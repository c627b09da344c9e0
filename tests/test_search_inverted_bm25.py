"""Unit tests for the inverted index and BM25 scoring."""

from __future__ import annotations

import math

import pytest

from repro.search.bm25 import Bm25Parameters, Bm25Scorer
from repro.search.inverted import InvertedIndex
from tests.reference_bm25 import ReferenceBm25Scorer


@pytest.fixture()
def index() -> InvertedIndex:
    idx = InvertedIndex()
    idx.add(0, "attivare la carta di credito tramite il portale")
    idx.add(1, "bloccare la carta di credito smarrita")
    idx.add(2, "richiedere un bonifico estero urgente")
    return idx


class TestInvertedIndex:
    def test_len(self, index):
        assert len(index) == 3

    def test_postings_present(self, index):
        terms = index.analyze_query("carta")
        postings = index.postings(terms[0])
        assert set(postings) == {0, 1}

    def test_term_frequency_counted(self):
        idx = InvertedIndex()
        idx.add(0, "carta carta carta")
        term = idx.analyze_query("carta")[0]
        assert idx.postings(term)[0] == 3

    def test_document_frequency(self, index):
        term = index.analyze_query("carta")[0]
        assert index.document_frequency(term) == 2

    def test_unknown_term_empty(self, index):
        assert index.postings("zzz") == {}
        assert index.document_frequency("zzz") == 0

    def test_average_length_tracks_adds(self):
        idx = InvertedIndex()
        assert idx.average_length == 0.0
        idx.add(0, "bonifico estero")
        idx.add(1, "carta")
        assert idx.average_length == pytest.approx(1.5)

    def test_remove_updates_everything(self, index):
        term = index.analyze_query("carta")[0]
        index.remove(0)
        assert len(index) == 2
        assert set(index.postings(term)) == {1}
        assert 0 not in index

    def test_remove_clears_empty_terms(self):
        idx = InvertedIndex()
        idx.add(0, "unico documento")
        idx.remove(0)
        assert idx.vocabulary_size == 0

    def test_remove_missing_is_noop(self, index):
        index.remove(99)
        assert len(index) == 3

    def test_duplicate_add_rejected(self, index):
        with pytest.raises(ValueError):
            index.add(0, "di nuovo")

    def test_stopwords_not_indexed(self, index):
        assert index.postings("il") == {}


def score_all(index: InvertedIndex, terms: list[str]) -> dict[int, float]:
    """The served scores as a dict, held bit-equal to the reference loop's."""
    ids, scores = Bm25Scorer(index).score_arrays(terms)
    served = dict(zip(ids.tolist(), scores.tolist()))
    assert served == ReferenceBm25Scorer(index).score_all(terms)
    return served


class TestBm25:
    def test_idf_decreases_with_frequency(self, index):
        scorer = Bm25Scorer(index)
        common = index.analyze_query("carta")[0]
        rare = index.analyze_query("bonifico")[0]
        assert scorer.idf(rare) > scorer.idf(common)

    def test_idf_nonnegative(self, index):
        scorer = Bm25Scorer(index)
        for term in ("carta", "credito", "bonifico"):
            assert scorer.idf(index.analyze_query(term)[0]) >= 0.0

    def test_matching_doc_ranks_first(self, index):
        scores = score_all(index, index.analyze_query("bonifico estero"))
        assert max(scores, key=scores.get) == 2

    def test_more_matched_terms_scores_higher(self, index):
        scores = score_all(index, index.analyze_query("bloccare carta"))
        assert scores[1] > scores[0]

    def test_no_match_empty(self, index):
        assert score_all(index, ["zzz"]) == {}

    def test_scores_only_matching_docs(self, index):
        assert set(score_all(index, index.analyze_query("carta credito"))) == {0, 1}

    def test_empty_query_scores_nothing(self, index):
        assert score_all(index, []) == {}

    def test_tf_saturation(self):
        """BM25's tf term saturates: 100 repetitions ≪ 100x one occurrence."""
        idx = InvertedIndex()
        idx.add(0, "carta " * 100)
        idx.add(1, "carta e altre parole di contesto generale")
        scores = score_all(idx, idx.analyze_query("carta"))
        assert scores[0] < 5 * scores[1]

    def test_length_normalization_prefers_shorter(self):
        idx = InvertedIndex()
        idx.add(0, "bonifico " + "parola " * 50)
        idx.add(1, "bonifico in breve")
        scores = score_all(idx, idx.analyze_query("bonifico"))
        assert scores[1] > scores[0]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Bm25Parameters(k1=-1.0)
        with pytest.raises(ValueError):
            Bm25Parameters(b=1.5)

    def test_idf_formula(self, index):
        scorer = Bm25Scorer(index)
        term = index.analyze_query("bonifico")[0]
        expected = math.log(1.0 + (3 - 1 + 0.5) / (1 + 0.5))
        assert scorer.idf(term) == pytest.approx(expected)

    def test_empty_index(self):
        index = InvertedIndex()
        assert Bm25Scorer(index).idf("x") == 0.0
        assert score_all(index, ["x"]) == {}
