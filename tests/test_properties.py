"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.exact import ExactKnnIndex
from repro.ann.hnsw import HnswIndex
from repro.eval.metrics import hit_rate_at, precision_at, recall_at, reciprocal_rank
from repro.search.fusion import reciprocal_rank_fusion
from repro.text.similarity import lcs_length, rouge_l
from repro.text.tokenizer import TokenCounter, word_tokenize
from tests.reference_pipeline import RecordList

# -- strategies ----------------------------------------------------------------

words = st.text(alphabet="abcdefghilmnoprstuvz", min_size=1, max_size=10)
texts = st.lists(words, min_size=0, max_size=30).map(" ".join)
token_lists = st.lists(words, min_size=0, max_size=25)


# -- text ------------------------------------------------------------------------


class TestTextProperties:
    @given(texts)
    @settings(max_examples=60)
    def test_rouge_self_similarity(self, text):
        if word_tokenize(text):
            assert rouge_l(text, text) == 1.0

    @given(texts, texts)
    @settings(max_examples=60)
    def test_rouge_bounded(self, a, b):
        assert 0.0 <= rouge_l(a, b) <= 1.0

    @given(token_lists, token_lists)
    @settings(max_examples=60)
    def test_lcs_symmetric_and_bounded(self, a, b):
        length = lcs_length(a, b)
        assert length == lcs_length(b, a)
        assert length <= min(len(a), len(b))

    @given(token_lists, token_lists, token_lists)
    @settings(max_examples=40)
    def test_lcs_monotone_under_concatenation(self, a, b, extra):
        assert lcs_length(a + extra, b + extra) >= lcs_length(a, b)

    @given(texts, st.integers(min_value=0, max_value=50))
    @settings(max_examples=60)
    def test_truncate_within_budget(self, text, budget):
        counter = TokenCounter()
        truncated = counter.truncate(text, budget)
        assert counter.count(truncated) <= budget

    @given(texts)
    @settings(max_examples=60)
    def test_count_nonnegative_and_additive_bound(self, text):
        counter = TokenCounter()
        assert counter.count(text) >= 0
        assert counter.count(text) >= len(text.split())


# -- metrics -----------------------------------------------------------------------

doc_ids = st.lists(
    st.text(alphabet="abcdef", min_size=1, max_size=3), min_size=0, max_size=20, unique=True
)


class TestMetricProperties:
    @given(doc_ids, st.sets(st.text(alphabet="abcdef", min_size=1, max_size=3), max_size=10))
    @settings(max_examples=80)
    def test_all_metrics_in_unit_interval(self, ranked, relevant):
        for n in (1, 4, 50):
            assert 0.0 <= precision_at(ranked, relevant, n) <= 1.0
            assert 0.0 <= recall_at(ranked, relevant, n) <= 1.0
            assert hit_rate_at(ranked, relevant, n) in (0.0, 1.0)
        assert 0.0 <= reciprocal_rank(ranked, relevant) <= 1.0

    @given(doc_ids, st.sets(st.text(alphabet="abcdef", min_size=1, max_size=3), max_size=10))
    @settings(max_examples=80)
    def test_recall_monotone_in_n(self, ranked, relevant):
        values = [recall_at(ranked, relevant, n) for n in (1, 4, 50)]
        assert values == sorted(values)

    @given(doc_ids, st.sets(st.text(alphabet="abcdef", min_size=1, max_size=3), max_size=10))
    @settings(max_examples=80)
    def test_hit_monotone_in_n(self, ranked, relevant):
        values = [hit_rate_at(ranked, relevant, n) for n in (1, 4, 50)]
        assert values == sorted(values)

    @given(doc_ids, st.sets(st.text(alphabet="abcdef", min_size=1, max_size=3), min_size=1, max_size=10))
    @settings(max_examples=80)
    def test_mrr_positive_iff_hit(self, ranked, relevant):
        rr = reciprocal_rank(ranked, relevant)
        hit = hit_rate_at(ranked, relevant, 50) if ranked else 0.0
        if len(ranked) <= 50:
            assert (rr > 0) == (hit == 1.0)


# -- fusion -------------------------------------------------------------------------


class TestFusionProperties:
    @given(st.lists(st.text(alphabet="xyzw", min_size=1, max_size=4), unique=True, max_size=12))
    @settings(max_examples=60)
    def test_single_ranking_identity_order(self, names):
        fused = reciprocal_rank_fusion({"only": RecordList().heads(names)}).fetch()
        assert [r.doc_id for r in fused] == names

    @given(
        st.lists(st.text(alphabet="xyzw", min_size=1, max_size=4), unique=True, max_size=10),
        st.lists(st.text(alphabet="xyzw", min_size=1, max_size=4), unique=True, max_size=10),
    )
    @settings(max_examples=60)
    def test_fused_scores_descending_and_complete(self, a, b):
        space = RecordList()
        fused = reciprocal_rank_fusion({"a": space.heads(a), "b": space.heads(b)}).fetch()
        scores = [r.score for r in fused]
        assert scores == sorted(scores, reverse=True)
        assert {r.doc_id for r in fused} == set(a) | set(b)


# -- ANN ---------------------------------------------------------------------------


class TestAnnProperties:
    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_hnsw_matches_exact_top1(self, count, seed):
        """The nearest neighbour must agree with brute force (unique distances)."""
        generator = np.random.default_rng(seed)
        vectors = generator.standard_normal((count, 8))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        hnsw = HnswIndex(dim=8, m=8, ef_construction=60, ef_search=60, seed=seed % 1000)
        exact = ExactKnnIndex(dim=8)
        for i, row in enumerate(vectors):
            hnsw.add(i, row)
            exact.add(i, row)
        query = generator.standard_normal(8)
        top_exact = exact.search(query, 2)
        top_hnsw = hnsw.search(query, 1)
        # Guard against ties, where either answer is correct.
        if len(top_exact) < 2 or abs(top_exact[0][1] - top_exact[1][1]) > 1e-9:
            assert top_hnsw[0][0] == top_exact[0][0]

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_hnsw_distances_sorted(self, count, seed):
        generator = np.random.default_rng(seed)
        vectors = generator.standard_normal((count, 6))
        index = HnswIndex(dim=6, m=6, seed=3)
        for i, row in enumerate(vectors):
            index.add(i, row)
        results = index.search(generator.standard_normal(6), min(count, 10))
        distances = [d for _, d in results]
        assert distances == sorted(distances)
