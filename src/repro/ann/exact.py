"""Exhaustive (exact) k-nearest-neighbour search.

The ground-truth baseline the paper compares HNSW against ("HNSW and
exhaustive k-NN yield similar retrieval performance", Section 4): every
query is one pass over a :class:`~repro.ann.store.RowStore`.  A removed row
is overwritten by the last one, so the store holds live rows only; a
distance depends on the two vectors alone, never on the row's place
(:func:`~repro.ann.distance.batch_cosine_distance`), so where a row sits
changes no result.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ann.store import RowStore
from repro.obs.work import WORK_ANN_DISTANCE_EVALS


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
        self._store = RowStore(dim)

    def __len__(self) -> int:
        return self._store.count

    def vector(self, item_id: int) -> np.ndarray:
        """The vector stored under *item_id* (a copy: :meth:`remove` moves rows)."""
        return self._store.rows[self._store.row(item_id)].copy()

    def remove(self, item_id: int) -> None:
        """Drop *item_id*; ``KeyError`` when it is not stored (any more)."""
        self._store.remove(item_id, fill=True)

    def relabel(self, item_id: int, new_id: int) -> None:
        """Make the vector stored under *item_id* answer to *new_id*;
        ``ValueError`` when *item_id* is not stored or *new_id* is in use."""
        self._store.relabel(item_id, new_id)

    def add(self, item_id: int, vector: np.ndarray) -> None:
        """Insert *vector* (finite values) under *item_id*."""
        if vector.shape != (self._dim,):
            raise ValueError(f"expected shape ({self._dim},), got {vector.shape}")
        vector = np.asarray(vector, dtype=np.float64)
        # Row-wise, as batch_cosine_distance takes it: the 1-D form of
        # np.linalg.norm sums through BLAS and can differ in the last bit.
        norm = np.linalg.norm(vector[None, :], axis=1)[0]
        if not math.isfinite(norm):
            raise ValueError(f"vector of item {item_id} is not finite (norm {norm})")
        self._store.append(vector, norm, item_id)

    def search(self, query: np.ndarray, k: int, work=None) -> list[tuple[int, float]]:
        """Return the *k* nearest stored items to *query* by cosine distance.

        *work* optionally books ``ann_distance_evals`` — brute force
        evaluates every stored vector, so the count is the matrix height.
        Equal distances are ordered by item id.  That makes the ground
        truth deterministic and lets a sharded deployment cut and merge
        per-shard results exactly as a single index would.
        """
        if k <= 0 or not self._store.count:
            return []
        query = np.asarray(query, dtype=np.float64)
        query_norm = float(np.linalg.norm(query))
        if not math.isfinite(query_norm):
            raise ValueError(f"query vector is not finite (norm {query_norm})")
        if work is not None:
            work.add(WORK_ANN_DISTANCE_EVALS, self._store.count)
        return self._store.nearest(query, query_norm, k)
