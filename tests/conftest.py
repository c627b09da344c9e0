"""Shared fixtures: a small synthetic KB and a fully wired system.

Session-scoped because building the index embeds every chunk; all tests
treat these fixtures as read-only.  Tests that mutate state build their own
instances.
"""

from __future__ import annotations

import pytest

from repro.core.factory import UniAskSystem, build_uniask_system
from repro.corpus.generator import KbGenerator, KbGeneratorConfig, SyntheticKb
from repro.corpus.queries import (
    HumanDatasetConfig,
    KeywordDatasetConfig,
    generate_human_dataset,
    generate_keyword_dataset,
)
from repro.corpus.vocabulary import build_banking_lexicon
from repro.embeddings.concepts import ConceptLexicon
from repro.search import segment


@pytest.fixture(scope="session")
def small_kb() -> SyntheticKb:
    """A compact corpus: 40 topics + 3 error families (~100 documents)."""
    return KbGenerator(KbGeneratorConfig(num_topics=40, error_families=3, seed=7)).generate()


@pytest.fixture(scope="session")
def lexicon() -> ConceptLexicon:
    """The Italian banking concept lexicon."""
    return build_banking_lexicon()


@pytest.fixture(scope="session")
def tiny_kb() -> SyntheticKb:
    """The differential suites' corpus: 12 topics + 2 error families."""
    return KbGenerator(KbGeneratorConfig(num_topics=12, error_families=2, seed=23)).generate()


@pytest.fixture(scope="session")
def banking_lexicon(lexicon: ConceptLexicon) -> ConceptLexicon:
    """The name the differential suites know the shared lexicon by."""
    return lexicon


@pytest.fixture(scope="session")
def system(small_kb: SyntheticKb, lexicon: ConceptLexicon) -> UniAskSystem:
    """A fully wired UniAsk deployment over the small corpus (read-only)."""
    return build_uniask_system(small_kb.store(), lexicon, seed=3)


@pytest.fixture(scope="session")
def human_queries(small_kb: SyntheticKb):
    """A small human-question dataset over the small corpus."""
    return generate_human_dataset(small_kb, HumanDatasetConfig(num_questions=60, seed=5))


@pytest.fixture(scope="session")
def keyword_queries(small_kb: SyntheticKb):
    """A small keyword dataset (with its source log)."""
    queries, log = generate_keyword_dataset(
        small_kb, KeywordDatasetConfig(num_queries=40, log_searches=2000, seed=5)
    )
    return queries, log


@pytest.fixture
def segment_policy(monkeypatch):
    """Set :mod:`repro.search.segment` policy constants for one test.

    ``segment_policy(flush_threshold=3, max_segments=2)`` patches
    ``FLUSH_THRESHOLD`` and ``MAX_SEGMENTS``; the store reads them at use
    time, so the values hold for every index the test touches afterwards.
    """

    def apply(**policy):
        for name, value in policy.items():
            monkeypatch.setattr(segment, name.upper(), value)

    return apply
