"""Unit tests for the embedding cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embeddings.cache import CachingEmbedder
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

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CachingEmbedder(SyntheticAdaEmbedder(None, dim=8), capacity=0)

    def test_reingestion_scenario_hits_cache(self):
        """Unchanged documents re-embedded on the next polling cycle are free."""
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
