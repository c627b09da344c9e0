"""Unit tests for exhaustive k-NN and distance functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann.distance import cosine_distance, cosine_distances, float32_row
from repro.ann.exact import ExactKnnIndex
from repro.ann.hnsw import HnswIndex


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's norm as the store takes it."""
    return np.array([float32_row(row, "row")[1] for row in rows])


class TestDistances:
    def test_cosine_identical(self):
        """Zero to the float32 dot's precision: the norms are float64."""
        v = np.array([0.3, 0.4])
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-6)

    def test_cosine_opposite(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == pytest.approx(2.0)

    def test_cosine_zero_vector(self):
        assert cosine_distance(np.zeros(2), np.ones(2)) == 1.0

    def test_batch_matches_scalar(self):
        """The kernel over ten rows and the pair form agree to the bit."""
        generator = np.random.default_rng(0)
        matrix = generator.standard_normal((10, 6)).astype(np.float32)
        query = generator.standard_normal(6).astype(np.float32)
        batch = cosine_distances(query, row_norms(query[None, :])[0], matrix, row_norms(matrix))
        for i in range(10):
            assert batch[i] == cosine_distance(query, matrix[i])

    def test_batch_empty(self):
        rows, query = np.zeros((0, 3), dtype=np.float32), np.ones(3, np.float32)
        assert cosine_distances(query, 3**0.5, rows, row_norms(rows)).shape == (0,)

    @pytest.mark.parametrize("scale", (1e-12, 5e-13, 2e-12))
    def test_the_zero_norm_boundary_is_one_rule_on_both_backends(self, scale):
        """A norm product of exactly ``ZERO_NORM`` still has a direction:
        every definition and both backends compare with ``<``."""
        stored, query = np.array([1.0, 0.0]), np.array([scale, 0.0])
        expected = cosine_distance(query, stored)
        assert expected == (1.0 if scale < 1e-12 else 0.0)
        assert cosine_distance(stored, query) == expected
        for index in (ExactKnnIndex(dim=2), HnswIndex(dim=2)):
            index.add(0, stored)
            assert index.search(query, 1) == [(0, expected)]


class TestExactKnn:
    def test_orders_by_distance(self):
        index = ExactKnnIndex(dim=2)
        index.add(0, np.array([1.0, 0.0]))
        index.add(1, np.array([0.0, 1.0]))
        index.add(2, np.array([0.7, 0.7]))
        results = index.search(np.array([1.0, 0.0]), 3)
        assert [i for i, _ in results] == [0, 2, 1]

    def test_k_zero(self):
        index = ExactKnnIndex(dim=2)
        index.add(0, np.ones(2))
        assert index.search(np.ones(2), 0) == []

    def test_empty_index(self):
        assert ExactKnnIndex(dim=2).search(np.ones(2), 3) == []

    def test_wrong_shape_rejected(self):
        index = ExactKnnIndex(dim=2)
        with pytest.raises(ValueError):
            index.add(0, np.ones(3))

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, 1e39, -4e38))
    def test_non_finite_vector_never_enters_the_matrix(self, bad):
        """A value beyond float32's range is as non-finite as NaN: the row
        would be stored as an infinity."""
        index = ExactKnnIndex(dim=2)
        index.add(0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="not finite"):
            index.add(1, np.array([bad, 1.0]))
        index.add(2, np.array([0.0, 1.0]))
        assert len(index) == 2 and index._store.labels[: len(index)].tolist() == [0, 2]
        assert index.search(np.array([0.0, 1.0]), 5) == [(2, 0.0), (0, 1.0)]

    @pytest.mark.parametrize("bad", (np.nan, 1e39))
    def test_non_finite_query_rejected(self, bad):
        index = ExactKnnIndex(dim=2)
        index.add(0, np.ones(2))
        with pytest.raises(ValueError, match="not finite"):
            index.search(np.array([bad, 1.0]), 1)

    def test_vector_is_the_one_stored(self):
        """Also across a growth of the matrix (initial capacity 16): the
        float32 row."""
        rows = np.random.default_rng(3).standard_normal((40, 3)).astype(np.float32)
        index = ExactKnnIndex(dim=3)
        for i, row in enumerate(rows):
            index.add(100 + i, row)
        assert all(np.array_equal(index.vector(100 + i), row) for i, row in enumerate(rows))
        with pytest.raises(KeyError):
            index.vector(7)

    def test_incremental_adds_visible(self):
        index = ExactKnnIndex(dim=2)
        index.add(0, np.array([1.0, 0.0]))
        assert len(index.search(np.array([1.0, 0.0]), 5)) == 1
        index.add(1, np.array([0.9, 0.1]))
        assert len(index.search(np.array([1.0, 0.0]), 5)) == 2

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            ExactKnnIndex(dim=0)

    @pytest.mark.parametrize("dim", [1, 3, 8, 64, 129])
    def test_stored_norms_reproduce_the_reference_distances(self, dim):
        """``search`` reads row norms kept since ``add``; the distances must be
        ``==`` to what ``cosine_distances`` computes from the rows alone,
        across matrix growth, for a zero row and for a zero query."""
        generator = np.random.default_rng(dim)
        rows = generator.standard_normal((70, dim)) * generator.uniform(1e-3, 1e3, (70, 1))
        rows[17] = 0.0
        index = ExactKnnIndex(dim=dim)
        for item_id, row in enumerate(rows):
            index.add(item_id, row)
        for query in (generator.standard_normal(dim), rows[3], np.zeros(dim)):
            stored = index._store.rows[: len(index)]
            query32 = query.astype(np.float32)
            reference = cosine_distances(
                query32, row_norms(query32[None, :])[0], stored, row_norms(stored)
            )
            found = dict(index.search(query, len(rows)))
            assert [found[item_id] for item_id in range(len(rows))] == reference.tolist()
        assert dict(index.search(rows[3], len(rows)))[17] == 1.0
        assert {d for _, d in index.search(np.zeros(dim), len(rows))} == {1.0}
