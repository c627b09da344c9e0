"""The answer cache: exact tier, semantic tier, and per-request policies.

Unit tests drive :class:`~repro.cache.AnswerCache` directly with a private
clock and hand-built embeddings (unit vectors, so cosine similarity is
exact); the policy tests drive a fully wired cached deployment through the
engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import AskOptions, AskRequest, CacheConfig
from repro.cache import HIT_EXACT, HIT_SEMANTIC, AnswerCache, answer_cache
from repro.core.answer import OUTCOME_ANSWERED, AnswerContent
from repro.core.config import UniAskConfig
from repro.core.factory import build_uniask_system
from repro.obs.trace import RequestContext
from repro.pipeline.clock import SimulatedClock


def make_answer(text: str = "risposta") -> AnswerContent:
    return AnswerContent(answer_text=text, raw_answer=text, outcome=OUTCOME_ANSWERED)


@pytest.fixture
def make_cache(monkeypatch):
    """``make_cache(answer_ttl_seconds=60.0)``: a fresh cache and its clock,
    with the named :mod:`repro.cache.answer_cache` constants patched."""

    def make(**bounds) -> tuple[AnswerCache, SimulatedClock]:
        for name, value in bounds.items():
            monkeypatch.setattr(answer_cache, name.upper(), value)
        clock = SimulatedClock()
        return AnswerCache(clock=clock), clock

    return make


class TestExactTier:
    def test_store_then_hit(self, make_cache):
        cache, _ = make_cache()
        key = cache.key("Come sblocco la carta?")
        cache.store(key, make_answer(), epoch=0)
        hit = cache.lookup(key, epoch=0)
        assert hit is not None
        assert hit.kind == HIT_EXACT
        assert hit.similarity == 1.0
        assert hit.content.answer_text == "risposta"
        assert cache.stats.hits_exact == 1

    def test_key_normalizes_case_punctuation_and_stopwords(self, make_cache):
        cache, _ = make_cache()
        assert cache.key("Sbloccare la carta?") == cache.key("sbloccare carta")
        assert cache.key("SBLOCCARE   CARTA!!!") == cache.key("sbloccare carta")

    def test_filters_partition_the_key(self, make_cache):
        cache, _ = make_cache()
        plain = cache.key("sbloccare carta")
        filtered = cache.key("sbloccare carta", {"domain": "carte"})
        assert plain != filtered
        cache.store(plain, make_answer(), epoch=0)
        assert cache.lookup(filtered, epoch=0) is None

    def test_miss_on_unknown_key(self, make_cache):
        cache, _ = make_cache()
        assert cache.lookup(cache.key("mai vista"), epoch=0) is None
        assert cache.stats.misses == 1

    def test_stored_answer_is_stripped_of_request_envelope(self, make_cache):
        # Content has no request envelope to strip: the stored object itself
        # is what every hit returns.
        cache, _ = make_cache()
        content = make_answer()
        key = cache.key("domanda")
        cache.store(key, content, epoch=0)
        assert cache.lookup(key, epoch=0).content is content
        assert cache.lookup(key, epoch=0).content is content
        for envelope_field in ("question", "response_time", "cache_hit", "trace", "work"):
            assert not hasattr(content, envelope_field)

    def test_ttl_expires_on_the_simulated_clock(self, make_cache):
        cache, clock = make_cache(answer_ttl_seconds=60.0)
        key = cache.key("domanda")
        cache.store(key, make_answer(), epoch=0)
        clock.advance(59.9)
        assert cache.lookup(key, epoch=0) is not None
        clock.advance(0.2)  # past the TTL now
        assert cache.lookup(key, epoch=0) is None
        assert cache.stats.expirations == 1
        assert len(cache) == 0

    def test_none_ttl_never_expires(self, make_cache):
        cache, clock = make_cache(answer_ttl_seconds=None)
        key = cache.key("domanda")
        cache.store(key, make_answer(), epoch=0)
        clock.advance(1e9)
        assert cache.lookup(key, epoch=0) is not None

    def test_epoch_mismatch_invalidates(self, make_cache):
        cache, _ = make_cache()
        key = cache.key("domanda")
        cache.store(key, make_answer(), epoch=3)
        assert cache.lookup(key, epoch=4) is None
        assert cache.stats.invalidations == 1
        assert len(cache) == 0

    def test_lru_eviction_respects_recency(self, make_cache):
        cache, _ = make_cache(answer_capacity=2)
        key_a, key_b, key_c = (cache.key(q) for q in ("aaa", "bbb", "ccc"))
        cache.store(key_a, make_answer("a"), epoch=0)
        cache.store(key_b, make_answer("b"), epoch=0)
        cache.lookup(key_a, epoch=0)  # touch a: b becomes the LRU entry
        cache.store(key_c, make_answer("c"), epoch=0)
        assert cache.stats.evictions == 1
        assert cache.lookup(key_b, epoch=0) is None
        assert cache.lookup(key_a, epoch=0) is not None
        assert cache.lookup(key_c, epoch=0) is not None


class TestSemanticTier:
    def _embedding(self, angle_cos: float) -> np.ndarray:
        """A 2-D unit vector whose cosine against [1, 0] is *angle_cos*."""
        sin = float(np.sqrt(1.0 - angle_cos * angle_cos))
        return np.array([angle_cos, sin], dtype=np.float64)

    def _seeded(self, make_cache, **bounds):
        cache, clock = make_cache(**bounds)
        base_key = cache.key("sbloccare carta")
        cache.store(
            base_key, make_answer("risposta base"), epoch=0, embedding=self._embedding(1.0)
        )
        return cache, clock

    def test_hit_above_threshold(self, make_cache):
        cache, _ = self._seeded(make_cache, semantic_threshold=0.9)
        probe = cache.key("altra domanda")
        hit = cache.lookup(probe, epoch=0, embed_fn=lambda: self._embedding(0.95))
        assert hit is not None
        assert hit.kind == HIT_SEMANTIC
        assert hit.similarity == pytest.approx(0.95)
        assert hit.content.answer_text == "risposta base"
        assert cache.stats.hits_semantic == 1

    def test_hit_exactly_at_threshold(self, make_cache):
        cache, _ = self._seeded(make_cache, semantic_threshold=0.9)
        hit = cache.lookup(
            cache.key("altra domanda"), epoch=0, embed_fn=lambda: self._embedding(0.9)
        )
        assert hit is not None and hit.kind == HIT_SEMANTIC

    def test_miss_below_threshold(self, make_cache):
        cache, _ = self._seeded(make_cache, semantic_threshold=0.9)
        hit = cache.lookup(
            cache.key("altra domanda"), epoch=0, embed_fn=lambda: self._embedding(0.89)
        )
        assert hit is None
        assert cache.stats.misses == 1

    def test_best_candidate_wins(self, make_cache):
        cache, _ = self._seeded(make_cache, semantic_threshold=0.5)
        cache.store(
            cache.key("domanda vicina"),
            make_answer("risposta vicina"),
            epoch=0,
            embedding=self._embedding(0.99),
        )
        hit = cache.lookup(
            cache.key("terza domanda"), epoch=0, embed_fn=lambda: self._embedding(0.995)
        )
        assert hit.content.answer_text == "risposta vicina"

    def test_semantic_respects_filters(self, make_cache):
        cache, _ = make_cache(semantic_threshold=0.5)
        cache.store(
            cache.key("sbloccare carta", {"domain": "carte"}),
            make_answer(),
            epoch=0,
            embedding=self._embedding(1.0),
        )
        hit = cache.lookup(
            cache.key("altra domanda"), epoch=0, embed_fn=lambda: self._embedding(1.0)
        )
        assert hit is None  # stored under filters, probed without

    def test_semantic_skips_stale_entries(self, make_cache):
        cache, _ = self._seeded(make_cache, semantic_threshold=0.5)
        hit = cache.lookup(
            cache.key("altra domanda"), epoch=1, embed_fn=lambda: self._embedding(1.0)
        )
        assert hit is None
        assert cache.stats.invalidations == 1

    def test_disabled_semantic_tier_never_scans(self, make_cache):
        """The semantic tier is skipped when no stored entry carries an
        embedding (the query is then never embedded) and when the caller
        passes no ``embed_fn``."""
        cache, _ = make_cache()
        cache.store(cache.key("sbloccare carta"), make_answer(), epoch=0)
        calls = []

        def embed():
            calls.append(1)
            return self._embedding(1.0)

        assert cache.lookup(cache.key("altra domanda"), epoch=0, embed_fn=embed) is None
        assert not calls
        cache.store(cache.key("bloccare carta"), make_answer(), epoch=0, embedding=embed())
        assert cache.lookup(cache.key("altra domanda"), epoch=0) is None
        assert cache.stats.hits_semantic == 0


@pytest.fixture(scope="module")
def cached_system(small_kb, lexicon):
    """A cached single-index deployment (tests mutate only the cache)."""
    config = UniAskConfig(cache=CacheConfig(enabled=True))
    return build_uniask_system(small_kb.store(), lexicon, config=config, seed=3)


class TestEnginePolicies:
    def _question(self, small_kb, index: int = 0) -> str:
        topics = list(small_kb.topics.values())
        topic = topics[index % len(topics)]
        return f"Come posso {topic.action.canonical} {topic.entity.canonical}?"

    def test_repeat_hits_exact_tier(self, cached_system, small_kb):
        question = self._question(small_kb, 0)
        first = cached_system.engine.answer(question)
        again = cached_system.engine.answer(question)
        assert first.cache_hit == ""
        assert again.cache_hit == "exact"
        assert again.text == first.text
        assert again.citations == first.citations

    def test_refresh_recomputes_and_overwrites(self, cached_system, small_kb):
        question = self._question(small_kb, 1)
        cached_system.engine.answer(question)
        stores_before = cached_system.answer_cache.stats.stores
        hits_before = cached_system.answer_cache.stats.hits
        refreshed = cached_system.engine.answer(
            AskRequest(question, AskOptions(cache="refresh"))
        )
        assert refreshed.cache_hit == ""
        assert cached_system.answer_cache.stats.stores == stores_before + 1
        assert cached_system.answer_cache.stats.hits == hits_before
        # The refreshed entry serves subsequent default requests.
        assert cached_system.engine.answer(question).cache_hit == "exact"

    def test_bypass_neither_reads_nor_writes(self, cached_system, small_kb):
        question = self._question(small_kb, 2)
        cached_system.engine.answer(question)  # populate the entry
        stats = cached_system.answer_cache.stats
        lookups_before = stats.hits + stats.misses
        stores_before = stats.stores
        bypassed = cached_system.engine.answer(
            AskRequest(question, AskOptions(cache="bypass"))
        )
        assert bypassed.cache_hit == ""
        assert stats.hits + stats.misses == lookups_before
        assert stats.stores == stores_before

    def test_content_filter_outcome_is_not_cached(self, cached_system):
        question = "questo stupido sistema non funziona mai"
        stores_before = cached_system.answer_cache.stats.stores
        first = cached_system.engine.answer(question)
        second = cached_system.engine.answer(question)
        assert first.outcome == "content_filter"
        assert second.cache_hit == ""
        assert cached_system.answer_cache.stats.stores == stores_before

    def test_traced_hit_collapses_the_pipeline(self, cached_system, small_kb):
        question = self._question(small_kb, 3)
        cached_system.engine.answer(question)
        ctx = RequestContext.traced(request_id="t-hit")
        response = cached_system.engine.answer(question, ctx=ctx)
        assert response.cache_hit == "exact"
        stages = [span.name for span in ctx.trace.spans]
        assert "cache_lookup" in stages
        assert "retrieval" not in stages and "llm" not in stages
