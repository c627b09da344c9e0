"""Cosine distance, the one metric of vector search, and its one kernel.

All indexed vectors in this library are unit-normalized, so cosine distance
``1 - cos(a, b)`` is the canonical metric (it is also what Azure AI Search
uses by default for ada-002 embeddings).  Vectors are stored as float32
rows (:func:`float32_row`) beside a float64 norm taken from the stored row,
and every distance either ANN backend computes comes from
:func:`cosine_distances` (DESIGN.md §17); :func:`cosine_distance` is one
pair through it.
"""

from __future__ import annotations

import math

import numpy as np

#: A pair whose norms multiply to less than this has no direction to compare:
#: its distance is 1.0.  The float32 nearest 1e-12, so a row can sit on it.
ZERO_NORM = float(np.float32(1e-12))


def float32_row(vector: np.ndarray, what: str, dim: int | None = None) -> tuple[np.ndarray, float]:
    """*vector* as the float32 row the kernel reads, and that row's norm;
    ``ValueError`` naming *what* when it is not *dim* values long or a value
    is not finite in float32 (NaN, an infinity, or a float64 beyond
    float32's range, |x| > 3.4e38).  The norm is one ``ddot`` of the row
    widened to float64."""
    with np.errstate(over="ignore"):
        row = np.asarray(vector, dtype=np.float32)
    if dim is not None and row.shape != (dim,):
        raise ValueError(f"{what}: expected shape ({dim},), got {row.shape}")
    wide = row.astype(np.float64)
    norm = math.sqrt(wide @ wide)
    if not math.isfinite(norm):
        raise ValueError(f"{what} is not finite in float32 (norm {norm})")
    return row, norm


def cosine_distances(
    query: np.ndarray, query_norm: float, rows: np.ndarray, norms: np.ndarray
) -> np.ndarray:
    """The kernel: cosine distance from the float32 *query* to each float32
    row of *rows*, given the float64 norms of both.

    A stack of 1×dim by dim×1 products is one ``sdot`` per row, so a row's
    distance does not depend on where in *rows* it sits, how tall *rows* is,
    or which of the pair is the query, and equal rows get equal distances
    (``rows @ query``, a ``gemv``, blocks rows together and promises none of
    this).  The dot is float32; ``1 - dot / (|q| |row|)`` is float64.
    """
    dots = np.matmul(rows[:, None, :], query)[:, 0]
    denom = query_norm * norms
    return 1.0 - np.divide(dots, denom, out=np.zeros(len(dots)), where=denom >= ZERO_NORM)


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cosine similarity of one pair, through :func:`cosine_distances`;
    1.0 when either vector is (near) zero."""
    a, a_norm = float32_row(a, "vector")
    b, b_norm = float32_row(b, "vector")
    return float(cosine_distances(a, a_norm, b[None, :], np.array([b_norm]))[0])
