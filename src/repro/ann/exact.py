"""Exhaustive (exact) k-nearest-neighbour search.

The ground-truth baseline the paper compares HNSW against ("HNSW and
exhaustive k-NN yield similar retrieval performance", Section 4).  Vectors
are kept in one contiguous matrix and scanned with vectorized numpy, which
is exact by construction.  The matrix grows geometrically in place, so a
live-ingestion upsert is an O(dim) row write — not an O(n·dim) rebuild —
and queries always scan a single contiguous block.  Row norms are kept
beside the rows, so a query pays one pass of row dots and no norm pass.
A removed row is overwritten by the last one, so the block holds live rows
only; a distance depends on the two vectors alone, never on the row's place
(:func:`~repro.ann.distance.batch_cosine_distance`), so where a row sits
changes no result.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ann.distance import batch_cosine_distance
from repro.obs.work import WORK_ANN_DISTANCE_EVALS

_INITIAL_CAPACITY = 16


class ExactKnnIndex:
    """Flat brute-force cosine k-NN index.

    Items are identified by arbitrary integer ids supplied at :meth:`add`
    time; queries return ``(id, distance)`` pairs sorted by ascending
    distance.
    """

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self._dim = dim
        self._count = 0
        self._ids = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._matrix = np.empty((_INITIAL_CAPACITY, dim), dtype=np.float64)
        self._norms = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._rows: dict[int, int] = {}

    def __len__(self) -> int:
        return self._count

    @property
    def matrix(self) -> np.ndarray:
        """The stored vectors as one contiguous ``(n, dim)`` view."""
        return self._matrix[: self._count]

    @property
    def ids(self) -> np.ndarray:
        """Item ids aligned with :attr:`matrix` rows."""
        return self._ids[: self._count]

    def vector(self, item_id: int) -> np.ndarray:
        """The vector stored under *item_id* (a copy: :meth:`remove` moves rows)."""
        return self._matrix[self._rows[item_id]].copy()

    def remove(self, item_id: int) -> None:
        """Drop *item_id*; ``KeyError`` when it is not stored (any more)."""
        row = self._rows.pop(item_id)
        last = self._count - 1
        if row != last:
            moved = int(self._ids[last])
            self._matrix[row] = self._matrix[last]
            self._norms[row] = self._norms[last]
            self._ids[row] = moved
            self._rows[moved] = row
        self._count = last

    def relabel(self, item_id: int, new_id: int) -> None:
        """Make the vector stored under *item_id* answer to *new_id*.

        ``ValueError`` when *item_id* is not stored or *new_id* is in use.
        """
        if new_id in self._rows:
            raise ValueError(f"item id in use: {new_id}")
        row = self._rows.pop(item_id, None)
        if row is None:
            raise ValueError(f"no live item {item_id} to relabel")
        self._rows[new_id] = row
        self._ids[row] = new_id

    def add(self, item_id: int, vector: np.ndarray) -> None:
        """Insert *vector* (finite values) under *item_id*."""
        if vector.shape != (self._dim,):
            raise ValueError(f"expected shape ({self._dim},), got {vector.shape}")
        if self._count == self._matrix.shape[0]:
            capacity = self._matrix.shape[0] * 2
            grown = np.empty((capacity, self._dim), dtype=np.float64)
            grown[: self._count] = self._matrix[: self._count]
            self._matrix = grown
            grown_ids = np.empty(capacity, dtype=np.int64)
            grown_ids[: self._count] = self._ids[: self._count]
            self._ids = grown_ids
            grown_norms = np.empty(capacity, dtype=np.float64)
            grown_norms[: self._count] = self._norms[: self._count]
            self._norms = grown_norms
        self._matrix[self._count] = np.asarray(vector, dtype=np.float64)
        # Row-wise, as batch_cosine_distance takes it: the 1-D form of
        # np.linalg.norm sums through BLAS and can differ in the last bit.
        norm = np.linalg.norm(self._matrix[self._count : self._count + 1], axis=1)[0]
        # The row only counts once ``_count`` moves past it.
        if not math.isfinite(norm):
            raise ValueError(f"vector of item {item_id} is not finite (norm {norm})")
        self._norms[self._count] = norm
        self._ids[self._count] = item_id
        self._rows[item_id] = self._count
        self._count += 1

    def search(
        self, query: np.ndarray, k: int, work=None, tie_keys: np.ndarray | None = None
    ) -> list[tuple[int, float]]:
        """Return the *k* nearest stored items to *query* by cosine distance.

        *work* optionally books ``ann_distance_evals`` — brute force
        evaluates every stored vector, so the count is the matrix height.
        *tie_keys* (indexed by item id) order equal distances, equal keys
        by item id; by default the item id alone does.
        """
        if k <= 0 or not self._count:
            return []
        query = np.asarray(query, dtype=np.float64)
        query_norm = float(np.linalg.norm(query))
        if not math.isfinite(query_norm):
            raise ValueError(f"query vector is not finite (norm {query_norm})")
        if work is not None:
            work.add(WORK_ANN_DISTANCE_EVALS, self._count)
        distances = batch_cosine_distance(query, self.matrix, self._norms[: self._count])
        k = min(k, self._count)
        # Ties break on insertion id (or the caller's keys), which makes the
        # ground truth fully deterministic and lets a sharded deployment cut
        # and merge per-shard results exactly as a single index would.
        ids = self.ids
        keys = (ids, distances) if tie_keys is None else (ids, tie_keys[ids], distances)
        order = np.lexsort(keys)[:k]
        return [(int(ids[i]), float(distances[i])) for i in order]
