"""Unit tests for the embedding cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.factory import build_uniask_system
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.embeddings.cache import CACHE_CAPACITY, CachingEmbedder
from repro.embeddings.concepts import Concept, ConceptLexicon
from repro.embeddings.model import SyntheticAdaEmbedder


@pytest.fixture()
def cached() -> CachingEmbedder:
    return CachingEmbedder(SyntheticAdaEmbedder(None, dim=32, seed=1), capacity=3)


class TestCachingEmbedder:
    def test_hit_on_repeat(self, cached):
        cached.embed("bonifico")
        cached.embed("bonifico")
        assert cached.hits == 1
        assert cached.misses == 1

    def test_cached_value_identical(self, cached):
        first = cached.embed("carta")
        second = cached.embed("carta")
        np.testing.assert_array_equal(first, second)

    def test_lru_eviction(self, cached):
        for text in ("a", "b", "c", "d"):  # capacity 3 -> "a" evicted
            cached.embed(text)
        cached.embed("a")
        assert cached.misses == 5  # a,b,c,d + re-embed of a

    def test_recently_used_survives(self, cached):
        cached.embed("a")
        cached.embed("b")
        cached.embed("c")
        cached.embed("a")  # refresh a
        cached.embed("d")  # evicts b, not a
        cached.embed("a")
        assert cached.hits == 2

    def test_hit_rate(self, cached):
        assert cached.hit_rate == 0.0
        cached.embed("x")
        cached.embed("x")
        assert cached.hit_rate == pytest.approx(0.5)

    def test_dim_passthrough(self, cached):
        assert cached.dim == 32

    def test_batch_through_cache(self, cached):
        batch = cached.embed_batch(["a", "a", "b"])
        assert batch.shape == (3, 32)
        assert cached.hits == 1

    def test_a_write_into_a_returned_vector_raises(self, cached):
        miss = cached.embed("carta")
        with pytest.raises(ValueError):
            miss[0] = 1.0
        hit = cached.embed("carta")
        with pytest.raises(ValueError):
            hit *= 2.0
        fresh = SyntheticAdaEmbedder(None, dim=32, seed=1).embed("carta")
        np.testing.assert_array_equal(cached.embed("carta"), fresh)

    def test_the_default_bound_is_query_scale(self):
        cache = CachingEmbedder(SyntheticAdaEmbedder(None, dim=8, seed=1))
        for number in range(CACHE_CAPACITY + 10):
            cache.embed(f"domanda {number}")
        assert len(cache._cache) == CACHE_CAPACITY

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CachingEmbedder(SyntheticAdaEmbedder(None, dim=8), capacity=0)

    def test_reingestion_scenario_hits_cache(self):
        """Texts embedded again within the bound are served, not re-embedded."""
        inner = SyntheticAdaEmbedder(None, dim=16, seed=2)
        cache = CachingEmbedder(inner, capacity=100)
        documents = [f"documento numero {i}" for i in range(20)]
        for text in documents:
            cache.embed(text)
        calls_before = inner.calls
        for text in documents:
            cache.embed(text)
        assert inner.calls == calls_before


class TestLexiconVersion:
    """A vector is good for the lexicon version it was embedded under."""

    @staticmethod
    def _lexicon() -> ConceptLexicon:
        return ConceptLexicon([Concept("carta", "carta di credito", ("tessera",))])

    def test_embedder_follows_lexicon_add(self):
        lexicon = self._lexicon()
        embedder = SyntheticAdaEmbedder(lexicon, dim=32, seed=1)
        text = "giroconto urgente"
        before = embedder.embed(text)
        untouched = embedder.embed("tessera smarrita")

        lexicon.add(Concept("giro", "giroconto", ("bonifico interno",)))
        fresh = SyntheticAdaEmbedder(lexicon, dim=32, seed=1)
        after = embedder.embed(text)
        np.testing.assert_array_equal(after, fresh.embed(text))
        assert not np.array_equal(after, before)  # "giroconto" left the out-of-lexicon table
        # Words the new concept does not touch embed as they did.
        np.testing.assert_array_equal(embedder.embed("tessera smarrita"), untouched)

    def test_caching_embedder_drops_vectors_of_an_older_version(self):
        lexicon = self._lexicon()
        cached = CachingEmbedder(SyntheticAdaEmbedder(lexicon, dim=32, seed=1), capacity=10)
        assert cached.lexicon is lexicon
        text = "giroconto urgente"
        before = cached.embed(text)
        assert cached.embed(text) is before  # a hit while the version stands

        lexicon.add(Concept("giro", "giroconto", ("bonifico interno",)))
        fresh = SyntheticAdaEmbedder(lexicon, dim=32, seed=1)
        after = cached.embed(text)
        np.testing.assert_array_equal(after, fresh.embed(text))
        assert not np.array_equal(after, before)
        assert cached.embed(text) is after

    def test_a_model_without_a_lexicon_is_cached_as_before(self, cached):
        assert cached.lexicon is None
        assert cached.embed("carta") is cached.embed("carta")


class TestReingestion:
    """Re-ingesting is cheap because the index relabels, not because of the cache.

    A 60-topic system holds more titles and contents than the cache's bound,
    so the cache cannot be what keeps an unchanged page from re-embedding:
    ``SearchIndex.replace_document`` leaves an equal chunk alone and
    relabels an unchanged field's stored vector.
    """

    def test_an_unchanged_page_embeds_nothing_and_a_content_edit_once(self, lexicon):
        kb = KbGenerator(KbGeneratorConfig(num_topics=60, error_families=6, seed=5)).generate()
        system = build_uniask_system(kb.store(), lexicon, seed=5, ann_backend="exact")
        store, inner = system.store, system.embedder._inner
        assert len(system.embedder._cache) <= CACHE_CAPACITY < 2 * len(system.index)

        def ingest(doc_id: str, html: str) -> int:
            """Wrapped-model embed calls of one poll-and-drain of *doc_id*."""
            system.clock.advance(1.0)
            store.update_html(doc_id, html, system.clock.now())
            calls = inner.calls
            system.ingestion.poll_now()
            assert system.indexing.drain().documents_indexed == 1
            return inner.calls - calls

        doc_id = sorted(document.doc_id for document in store.all_documents())[0]
        html = store.get(doc_id).html
        system.embedder._cache.clear()  # nothing of the page can be served from the cache
        assert "<p>In caso di dubbi" in html
        assert ingest(doc_id, html) == 0
        edited = html.replace("<p>In caso di dubbi", "<p>In caso di dubbi urgenti")
        assert ingest(doc_id, edited) == 1
