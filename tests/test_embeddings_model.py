"""Unit tests for the synthetic embedder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann.distance import cosine_distance
from repro.embeddings.concepts import Concept, ConceptLexicon
from repro.embeddings.model import SyntheticAdaEmbedder


def _similarity(a, b) -> float:
    return 1.0 - cosine_distance(a, b)


@pytest.fixture()
def embedder() -> SyntheticAdaEmbedder:
    lexicon = ConceptLexicon(
        [
            Concept("bonifico", "bonifico", ("trasferimento fondi",)),
            Concept("carta", "carta di credito", ("carta revolving",)),
            Concept("token", "token di sicurezza", ("chiavetta OTP",)),
        ]
    )
    return SyntheticAdaEmbedder(lexicon, dim=128, seed=9)


class TestSyntheticAdaEmbedder:
    def test_unit_norm(self, embedder):
        vector = embedder.embed("attivare il bonifico per il cliente")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_deterministic(self, embedder):
        a = embedder.embed("bonifico estero")
        b = embedder.embed("bonifico estero")
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_model(self):
        lexicon = ConceptLexicon([Concept("x", "bonifico")])
        e1 = SyntheticAdaEmbedder(lexicon, dim=64, seed=5)
        e2 = SyntheticAdaEmbedder(lexicon, dim=64, seed=5)
        np.testing.assert_array_equal(e1.embed("bonifico oggi"), e2.embed("bonifico oggi"))

    def test_different_seed_different_space(self):
        lexicon = ConceptLexicon([Concept("x", "bonifico")])
        e1 = SyntheticAdaEmbedder(lexicon, dim=64, seed=5)
        e2 = SyntheticAdaEmbedder(lexicon, dim=64, seed=6)
        assert not np.allclose(e1.embed("bonifico"), e2.embed("bonifico"))

    def test_synonyms_are_close(self, embedder):
        canonical = embedder.embed("il bonifico del cliente")
        paraphrase = embedder.embed("il trasferimento fondi del cliente")
        unrelated = embedder.embed("il token di sicurezza del cliente")
        assert _similarity(canonical, paraphrase) > _similarity(canonical, unrelated)

    def test_paraphrase_beats_lexical_noise(self, embedder):
        """The property hybrid search needs from the real ada-002."""
        question = "come attivare un trasferimento fondi"
        right_doc = "procedura per attivare il bonifico tramite il portale"
        wrong_doc = "procedura per attivare il token di sicurezza tramite il portale"
        q = embedder.embed(question)
        assert _similarity(q, embedder.embed(right_doc)) > _similarity(
            q, embedder.embed(wrong_doc)
        )

    def test_empty_text_stable_direction(self, embedder):
        a = embedder.embed("")
        b = embedder.embed("il di la e")  # only stop words
        assert np.linalg.norm(a) == pytest.approx(1.0)
        np.testing.assert_array_equal(a, b)

    def test_batch_matches_single(self, embedder):
        texts = ["bonifico", "carta di credito"]
        batch = embedder.embed_batch(texts)
        assert batch.shape == (2, 128)
        np.testing.assert_array_equal(batch[0], embedder.embed(texts[0]))

    def test_empty_batch(self, embedder):
        assert embedder.embed_batch([]).shape == (0, 128)

    def test_invalid_dim_rejected(self):
        with pytest.raises(ValueError):
            SyntheticAdaEmbedder(None, dim=0)

    def test_works_without_lexicon(self):
        embedder = SyntheticAdaEmbedder(None, dim=64)
        a = embedder.embed("bonifico estero")
        b = embedder.embed("bonifico estero urgente")
        assert _similarity(a, b) > 0.3


class TestCosineSimilarity:
    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert _similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert _similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector(self):
        assert _similarity(np.zeros(3), np.ones(3)) == 0.0
