"""The reranker analyzes each text once — and still scores what it always did.

``SemanticReranker`` keeps a chunk's fingerprints and term set in a bounded
LRU keyed by ``chunk_id`` and takes the query's once per ``rerank()``.
These tests pin the three things that design must not break:

* **scores**: the feature path is ``==`` the naive per-candidate formula
  written here against raw ``concepts_in_text`` / ``analyze_unique``;
* **invalidation**: an edited chunk, a grown lexicon and a full LRU never
  serve a stale feature, and the LRU pins no ``ChunkRecord``;
* **work**: a warm request costs the reranker a fixed number of
  ``analyze`` calls, and scores are the same floats in every process.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import create_backend
from repro.core.factory import build_uniask_system
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.embeddings.concepts import Concept, ConceptLexicon
from repro.search import reranker as reranker_module
from repro.search.reranker import SemanticReranker, _hash_noise
from repro.search.results import RetrievedChunk
from repro.search.schema import ChunkRecord
from repro.text.analyzer import FULL_ANALYZER, ItalianAnalyzer

SRC = Path(__file__).resolve().parents[1] / "src"

# The constructor defaults of SemanticReranker, restated so the oracle does
# not read them back from the object under test.
MAX_SCORE, TITLE_W, CONTENT_W, LEXICAL_W, NOISE = 4.0, 0.35, 0.45, 0.30, 0.35


def _naive_cosine(lexicon: ConceptLexicon, a: str, b: str) -> float:
    weights_a = lexicon.concepts_in_text(a)
    weights_b = lexicon.concepts_in_text(b)
    if not weights_a or not weights_b:
        return 0.0
    norm_a = sum(w * w for w in weights_a.values()) ** 0.5
    norm_b = sum(w * w for w in weights_b.values()) ** 0.5
    dot = sum(weights_a[cid] * weights_b[cid] for cid in weights_a if cid in weights_b)
    return dot / (norm_a * norm_b) if norm_a and norm_b else 0.0


def naive_score(lexicon: ConceptLexicon, query: str, record: ChunkRecord) -> float:
    """The reranker formula, re-analyzing every text for every candidate."""
    query_terms = FULL_ANALYZER.analyze_unique(query)
    if query_terms:
        lexical = len(query_terms & FULL_ANALYZER.analyze_unique(record.content)) / len(query_terms)
    else:
        lexical = 0.0
    total = TITLE_W + CONTENT_W + LEXICAL_W
    blended = (
        TITLE_W / total * _naive_cosine(lexicon, query, record.title)
        + CONTENT_W / total * _naive_cosine(lexicon, query, record.content)
        + LEXICAL_W / total * lexical
    )
    score = MAX_SCORE * min(max(blended, 0.0), 1.0)
    return max(0.0, score + NOISE * _hash_noise(query, record.chunk_id))


def _chunk(chunk_id: str = "doc#0", title: str = "", content: str = "") -> ChunkRecord:
    return ChunkRecord(chunk_id=chunk_id, doc_id=chunk_id.split("#")[0], title=title, content=content)


def _result(record: ChunkRecord) -> RetrievedChunk:
    return RetrievedChunk(record=record, score=0.0)


@pytest.fixture(scope="module")
def kb_records(system) -> list[ChunkRecord]:
    return [system.index.record(internal) for internal in system.index.live_internals()]


@pytest.fixture(scope="module")
def questions(human_queries, keyword_queries) -> list[str]:
    return [q.text for q in human_queries] + [q.text for q in keyword_queries[0]]


@pytest.fixture(scope="module")
def shared_reranker(lexicon) -> SemanticReranker:
    """One instance across all hypothesis examples, so most are cache hits."""
    return SemanticReranker(lexicon)


class TestScoreOracle:
    @given(st.integers(min_value=0), st.integers(min_value=0))
    @settings(max_examples=300, deadline=None)
    def test_feature_path_equals_naive_formula(
        self, shared_reranker, lexicon, kb_records, questions, record_index, question_index
    ):
        record = kb_records[record_index % len(kb_records)]
        question = questions[question_index % len(questions)]
        assert shared_reranker.score(question, _result(record)) == naive_score(
            lexicon, question, record
        )

    def test_rerank_adds_the_same_scores_score_returns(self, lexicon, kb_records, questions):
        reranker = SemanticReranker(lexicon)
        candidates = [_result(record) for record in kb_records[:30]]
        for question in questions[:10]:
            reranked = reranker.rerank(question, candidates)
            assert {r.record.chunk_id: r.components["rerank_adjust"] for r in reranked} == {
                c.record.chunk_id: naive_score(lexicon, question, c.record) for c in candidates
            }

    @pytest.mark.parametrize(
        "query, title, content",
        [
            ("", "Bloccare la carta di credito", "Per bloccare la carta chiamare il numero verde."),
            ("il lo la di", "Bloccare la carta di credito", "Per bloccare la carta chiamare."),
            ("bloccare la carta", "", "Per bloccare la carta di credito chiamare il numero verde."),
            ("bloccare la carta", "Ricetta", "Sbattere le uova con il pecorino e il pepe."),
            ("xyzzy frobnicate", "Bloccare la carta di credito", "Per bloccare la carta chiamare."),
            ("bloccare la carta", "", ""),
        ],
        ids=[
            "empty-query",
            "stopwords-only-query",
            "empty-title",
            "chunk-without-concepts",
            "query-without-concepts",
            "empty-chunk",
        ],
    )
    def test_degenerate_inputs(self, lexicon, query, title, content):
        record = _chunk(title=title, content=content)
        reranker = SemanticReranker(lexicon)
        first = reranker.score(query, _result(record))
        assert first == naive_score(lexicon, query, record)
        assert reranker.score(query, _result(record)) == first


class TestFeatureInvalidation:
    def test_edited_content_then_title_score_like_a_fresh_reranker(self, lexicon):
        query = "come bloccare la carta di credito"
        reranker = SemanticReranker(lexicon)
        record = _chunk(
            title="Bloccare la carta di credito",
            content="Per bloccare la carta di credito chiamare il numero verde.",
        )
        reranker.score(query, _result(record))

        edited = replace(record, content="Il bonifico estero si dispone dal portale pagamenti.")
        assert reranker.score(query, _result(edited)) == SemanticReranker(lexicon).score(
            query, _result(edited)
        )
        retitled = replace(edited, title="Disporre un bonifico estero")
        assert reranker.score(query, _result(retitled)) == SemanticReranker(lexicon).score(
            query, _result(retitled)
        )
        # Each edit replaced the chunk's slot; none added one.
        assert list(reranker._chunk_features) == [record.chunk_id]

    def test_lexicon_add_drops_cached_features(self):
        lexicon = ConceptLexicon([Concept("carta", "carta di credito")])
        reranker = SemanticReranker(lexicon, noise=0.0)
        record = _chunk(title="Rinnovo", content="Il badge aziendale si rinnova a BadgePoint.")
        query = "rinnovare il tesserino"
        before = reranker.score(query, _result(record))

        version = lexicon.version
        lexicon.add(Concept("badge", "badge aziendale", ("tesserino",)))
        assert lexicon.version == version + 1
        after = reranker.score(query, _result(record))
        assert after == SemanticReranker(lexicon, noise=0.0).score(query, _result(record))
        assert after > before

    def test_full_cache_evicts_least_recently_used_and_never_grows(self, lexicon, monkeypatch):
        monkeypatch.setattr(reranker_module, "FEATURE_CAPACITY", 4)
        reranker = SemanticReranker(lexicon)
        records = [_chunk(f"d{i}#0", "Carta", f"La carta numero {i}.") for i in range(7)]
        for record in records[:4]:
            reranker.score("carta", _result(record))
        reranker.score("carta", _result(records[0]))  # d0 is now the most recent
        for record in records[4:]:
            reranker.score("carta", _result(record))
            assert len(reranker._chunk_features) == 4
        assert list(reranker._chunk_features) == ["d0#0", "d4#0", "d5#0", "d6#0"]

    def test_deleted_chunk_leaves_only_its_slot(self, lexicon):
        kb = KbGenerator(KbGeneratorConfig(num_topics=6, error_families=1, seed=2)).generate()
        store = kb.store()
        system = build_uniask_system(store, lexicon, seed=2)
        topic = next(iter(kb.topics.values()))
        question = f"Come posso {topic.action.canonical} {topic.entity.canonical}?"
        hits = system.searcher.search(question)
        doomed = hits[0].record.doc_id
        features = system.searcher._reranker._chunk_features
        assert any(chunk_id.startswith(f"{doomed}#") for chunk_id in features)

        store.delete(doomed, deleted_at=system.clock.now() + 1)
        system.clock.advance(900)
        system.refresh()
        assert all(hit.record.doc_id != doomed for hit in system.searcher.search(question))
        # A slot holds texts and derived features, never the record: once the
        # index lets go of a deleted chunk, the reranker does not keep it alive.
        assert not any(isinstance(obj, ChunkRecord) for obj in _reachable_from(features))


def _reachable_from(root: object) -> list[object]:
    seen: dict[int, object] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


_SCORE_MATRIX_SCRIPT = """
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset
from repro.corpus.vocabulary import build_banking_lexicon
from repro.embeddings.concepts import concept_overlap
from repro.htmlproc.chunking import HtmlParagraphChunker
from repro.htmlproc.parser import parse_html
from repro.search.reranker import SemanticReranker
from repro.search.results import RetrievedChunk
from repro.search.schema import ChunkRecord

kb = KbGenerator(KbGeneratorConfig(num_topics=30, error_families=2, seed=7)).generate()
lexicon = build_banking_lexicon()
records = []
for generated in kb.documents:
    parsed = parse_html(generated.document.html)
    for chunk in HtmlParagraphChunker().chunk_document(parsed):
        records.append(ChunkRecord(f"{generated.doc_id}#{chunk.index}", generated.doc_id,
                                   parsed.title, chunk.text))
records = records[:60]
questions = [q.text for q in generate_human_dataset(kb, HumanDatasetConfig(num_questions=40, seed=5))]
reranker = SemanticReranker(lexicon)
print(repr([
    [(reranker.score(q, RetrievedChunk(r, 0.0)), concept_overlap(lexicon, q, r.content).score)
     for r in records]
    for q in questions
]))
"""


def test_scores_are_the_same_floats_under_any_string_hash_seed():
    """A set-intersection dot product summed in hash order moved the last ulp."""
    matrices = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", _SCORE_MATRIX_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        matrices.append(done.stdout)
    assert len(matrices[0]) > 40 * 60 * 10
    assert matrices[0] == matrices[1]


#: Analyzer calls the reranker may make per warm request: the query's
#: fingerprint and the query's term set.
MAX_WARM_ANALYZE_CALLS = 2


def test_warm_request_costs_the_reranker_a_fixed_number_of_analyze_calls(
    small_kb, lexicon, human_queries, monkeypatch
):
    system = build_uniask_system(small_kb.store(), lexicon, seed=3)
    backend = create_backend(system)
    token = backend.login("work-count")
    asked = list(dict.fromkeys(q.text for q in human_queries))[:20]
    assert len(asked) == 20
    for question in asked:  # warm the chunk features
        backend.serve(token, question)

    inside_rerank = False
    calls_per_rerank: list[int] = []
    original_analyze = ItalianAnalyzer.analyze
    original_rerank = SemanticReranker.rerank

    def counting_analyze(self, text):
        if inside_rerank:
            calls_per_rerank[-1] += 1
        return original_analyze(self, text)

    def flagged_rerank(self, query, results, ctx=None):
        nonlocal inside_rerank
        calls_per_rerank.append(0)
        inside_rerank = True
        try:
            return original_rerank(self, query, results, ctx=ctx)
        finally:
            inside_rerank = False

    monkeypatch.setattr(ItalianAnalyzer, "analyze", counting_analyze)
    monkeypatch.setattr(SemanticReranker, "rerank", flagged_rerank)
    for question in asked:
        backend.serve(token, question)

    assert len(calls_per_rerank) >= len(asked)
    assert max(calls_per_rerank) <= MAX_WARM_ANALYZE_CALLS
