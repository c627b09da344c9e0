"""An answer is assembled once: the cache serves its stored content by
reference, and each request gets one envelope.

The pipeline's :class:`~repro.core.answer.AnswerContent` is built once and
the answer cache keeps that very object; a hit wraps it in a
:class:`~repro.core.answer.UniAskAnswer` of its own — the requester's
question, the hit marker, the response time — without copying anything.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.api import AskRequest, CacheConfig, create_backend, create_engine
from repro.core.answer import AnswerContent, UniAskAnswer
from repro.core.config import UniAskConfig
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon
from repro.service.frontend import SNIPPET_COUNT, highlight_snippet, render_answer_page

QUESTION = "come sbloccare la carta di credito"


@pytest.fixture(scope="module")
def tiny_kb():
    return KbGenerator(KbGeneratorConfig(num_topics=12, error_families=2, seed=19)).generate()


@pytest.fixture(scope="module")
def banking_lexicon():
    return build_banking_lexicon()


def build_backend(tiny_kb, banking_lexicon):
    config = UniAskConfig(cache=CacheConfig(enabled=True))
    system = create_engine(tiny_kb.store(), banking_lexicon, config=config, seed=19)
    return system, create_backend(system)


def land(system, record) -> None:
    """Advance the clock past *record*'s completion, so the next request
    finds its flight landed and its answer in the cache instead of joining."""
    system.clock.advance(record.answer.response_time + 1.0)


class TestAHitIsTheRequestersPage:
    @pytest.mark.parametrize(
        "first, again, kind",
        [
            (QUESTION, "Come sbloccare la carta di credito?", "exact"),
            ("bonifico estero commissioni", "commissioni del bonifico estero", "semantic"),
        ],
    )
    def test_the_page_shows_the_words_of_whoever_asked(
        self, tiny_kb, banking_lexicon, first, again, kind
    ):
        """The stored content was computed for *first*; the page served to
        a colleague asking *again* prints and highlights *again*."""
        system, backend = build_backend(tiny_kb, banking_lexicon)
        land(system, backend.serve(backend.login("first-employee"), first))
        hit = backend.serve(backend.login("second-employee"), again)
        assert hit.answer.cache_hit == kind
        assert hit.answer.question == again
        page = render_answer_page(hit.answer).splitlines()
        assert page[0] == f"❓ {again}"
        snippets = [
            f"      {highlight_snippet(again, chunk.record.content)}"
            for chunk in hit.answer.documents[:SNIPPET_COUNT]
        ]
        assert snippets and all(snippet in page for snippet in snippets)


class TestCoalescedJoiner:
    def test_a_joiner_that_asks_to_profile_gets_its_join(self, tiny_kb, banking_lexicon):
        """On a backend built without profiling, ``options.profile`` alone
        makes the joiner count its work, as it does for the leader."""
        _, backend = build_backend(tiny_kb, banking_lexicon)
        token = backend.login("user-a")
        leader = backend.serve(token, AskRequest.of(QUESTION, profile=True))
        joiner = backend.serve(token, AskRequest.of(QUESTION, profile=True))
        plain = backend.serve(token, QUESTION)
        assert leader.answer.work
        assert joiner.answer.cache_hit == plain.answer.cache_hit == "coalesced"
        assert joiner.answer.work == {"coalesced_joins": 1}
        assert plain.answer.work is None

    def test_a_joiner_has_its_own_envelope_over_the_leaders_content(
        self, tiny_kb, banking_lexicon
    ):
        _, backend = build_backend(tiny_kb, banking_lexicon)
        token = backend.login("user-a")
        leader = backend.serve(token, QUESTION)
        joiner = backend.serve(token, QUESTION)
        assert joiner.answer is not leader.answer
        assert joiner.answer.content is leader.answer.content
        assert (leader.answer.cache_hit, joiner.answer.cache_hit) == ("", "coalesced")


class TestHitPathWork:
    def test_an_exact_hit_builds_no_content_and_replaces_nothing(
        self, tiny_kb, banking_lexicon, monkeypatch
    ):
        """A hit costs one envelope: no content object is built and no
        ``dataclasses.replace`` runs, and the envelope wraps the cache
        entry's own object."""
        system, backend = build_backend(tiny_kb, banking_lexicon)
        token = backend.login("user-a")
        computed = backend.serve(token, QUESTION)
        land(system, computed)
        built = {"content": 0, "envelope": 0, "replace": 0}

        def counting(cls, name):
            init = cls.__init__

            def counted(self, *args, **kwargs):
                built[name] += 1
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)

        counting(AnswerContent, "content")
        counting(UniAskAnswer, "envelope")
        replace = dataclasses.replace

        def counted_replace(obj, /, **changes):
            built["replace"] += 1
            return replace(obj, **changes)

        for module in list(sys.modules.values()):
            if getattr(module, "replace", None) is replace:
                monkeypatch.setattr(module, "replace", counted_replace)

        hit = backend.serve(token, QUESTION)
        assert hit.answer.cache_hit == "exact"
        assert built == {"content": 0, "envelope": 1, "replace": 0}
        cache = system.answer_cache
        entry = cache.lookup(cache.key(QUESTION), system.index.generation)
        assert hit.answer.content is entry.content is computed.answer.content
