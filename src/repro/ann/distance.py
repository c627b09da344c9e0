"""Cosine distance, the one metric of vector search.

All indexed vectors in this library are unit-normalized, so cosine distance
``1 - cos(a, b)`` is the canonical metric (it is also what Azure AI Search
uses by default for ada-002 embeddings).  The two functions here are the
reference definitions: :class:`~repro.ann.hnsw.HnswIndex` walks evaluate
:func:`cosine_distance` with both norms taken ahead of time, and a scan of
either backend's :class:`~repro.ann.store.RowStore` evaluates
:func:`batch_cosine_distance` with the row norms it keeps; the tests hold
both to these functions bit for bit.
"""

from __future__ import annotations

import numpy as np

#: A pair whose norms multiply to less than this has no direction to compare:
#: its distance is 1.0.
ZERO_NORM = 1e-12


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cosine similarity; 1.0 when either vector is (near) zero."""
    norm = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if norm < ZERO_NORM:
        return 1.0
    return 1.0 - float(np.dot(a, b)) / norm


def batch_cosine_distance(
    query: np.ndarray,
    matrix: np.ndarray,
    row_norms: np.ndarray | None = None,
    query_norm: float | None = None,
) -> np.ndarray:
    """Cosine distance from *query* to every row of *matrix* (vectorized).

    *row_norms* spares the O(n·dim) pass over *matrix* when the caller
    already holds ``np.linalg.norm(matrix, axis=1)``, *query_norm* the
    query's ``float(np.linalg.norm(query))``.

    Each row's dot is summed on its own (a stack of 1×dim by dim×1 products
    is a ``ddot`` per row), so a row's distance does not depend on where in
    *matrix* it sits or how tall *matrix* is, and equal rows get equal
    distances.  ``matrix @ query`` (``gemv``) promises neither: it blocks
    rows together and the same row reads one bit differently at another
    position, which would flip exactly the ties the tie-by-id order and the
    single-index ↔ cluster equivalence rest on.
    """
    if matrix.size == 0:
        return np.zeros(0)
    if query_norm is None:
        query_norm = float(np.linalg.norm(query))
    if row_norms is None:
        row_norms = np.linalg.norm(matrix, axis=1)
    denom = query_norm * row_norms
    dots = np.matmul(matrix[:, None, :], query)[:, 0]
    return 1.0 - np.divide(dots, denom, out=np.zeros(len(dots)), where=denom >= ZERO_NORM)
