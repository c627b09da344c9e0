"""Unit tests for the concept lexicon."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embeddings.concepts import Concept, ConceptLexicon, part_cosines


def concept_overlap(lexicon: ConceptLexicon, a: str, b: str) -> tuple[set[str], float]:
    """The concepts *a* and *b* share, and their cosine through the kernel."""
    fingerprint_a, fingerprint_b = lexicon.fingerprint(a), lexicon.fingerprint(b)
    weights = fingerprint_b.weights
    positions = np.array([lexicon.positions[cid] for cid in weights], dtype=np.int32)
    cosines = part_cosines(
        lexicon, fingerprint_a, positions, np.array([*weights.values()]), [len(weights)],
        np.array([fingerprint_b.norm]),
    )
    return fingerprint_a.weights.keys() & weights.keys(), float(cosines[0])


@pytest.fixture()
def toy_lexicon() -> ConceptLexicon:
    return ConceptLexicon(
        [
            Concept("bonifico", "bonifico", ("trasferimento fondi", "pagamento SEPA"), "banking"),
            Concept("carta", "carta di credito", ("carta revolving",), "banking"),
            Concept("act_attivare", "attivare", ("abilitare",), "action"),
        ]
    )


class TestConceptLexicon:
    def test_len_and_contains(self, toy_lexicon):
        assert len(toy_lexicon) == 3
        assert "bonifico" in toy_lexicon
        assert "mutuo" not in toy_lexicon

    def test_duplicate_id_rejected(self, toy_lexicon):
        with pytest.raises(ValueError):
            toy_lexicon.add(Concept("bonifico", "altro"))

    def test_canonical_form_maps_to_concept(self, toy_lexicon):
        weights = toy_lexicon.concepts_in_text("vorrei fare un bonifico")
        assert "bonifico" in weights

    def test_synonym_maps_to_same_concept(self, toy_lexicon):
        weights = toy_lexicon.concepts_in_text("un trasferimento fondi urgente")
        assert "bonifico" in weights

    def test_inflected_form_maps_via_stem(self, toy_lexicon):
        weights = toy_lexicon.concepts_in_text("due bonifici")
        assert "bonifico" in weights

    def test_multiword_forms_have_fractional_weight(self, toy_lexicon):
        single = toy_lexicon.concepts_in_text("bonifico")["bonifico"]
        partial = toy_lexicon.concepts_in_text("trasferimento")["bonifico"]
        assert partial < single

    def test_stopwords_in_forms_ignored(self, toy_lexicon):
        # "carta di credito": "di" carries no weight.
        weights = toy_lexicon.concepts_in_text("carta di credito")
        assert weights["carta"] == pytest.approx(1.0)

    def test_unknown_text_has_no_concepts(self, toy_lexicon):
        assert toy_lexicon.concepts_in_text("pizza margherita") == {}

    def test_get_roundtrip(self, toy_lexicon):
        assert toy_lexicon.get("carta").canonical == "carta di credito"

    def test_concepts_listing_order(self, toy_lexicon):
        ids = [concept.concept_id for concept in toy_lexicon.concepts]
        assert ids == ["bonifico", "carta", "act_attivare"]


class TestConceptOverlap:
    def test_paraphrase_overlap_high(self, toy_lexicon):
        shared, score = concept_overlap(toy_lexicon, "attivare il bonifico", "abilitare un trasferimento fondi")
        assert score > 0.5
        assert shared == {"bonifico", "act_attivare"}

    def test_unrelated_zero(self, toy_lexicon):
        assert concept_overlap(toy_lexicon, "bonifico", "carta di credito")[1] == 0.0

    def test_identity_is_one(self, toy_lexicon):
        assert concept_overlap(toy_lexicon, "attivare bonifico", "attivare bonifico")[1] == pytest.approx(1.0)

    def test_empty_text(self, toy_lexicon):
        assert concept_overlap(toy_lexicon, "", "bonifico")[1] == 0.0
        assert concept_overlap(toy_lexicon, "bonifico", "")[1] == 0.0

    def test_score_bounded(self, toy_lexicon):
        _, score = concept_overlap(
            toy_lexicon, "bonifico carta attivare", "bonifico bonifico carta attivare attivare"
        )
        assert 0.0 <= score <= 1.0 + 1e-9
