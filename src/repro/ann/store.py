"""One row matrix per vector index: the store both ANN backends keep.

Vectors are the float32 rows of one contiguous matrix that grows
geometrically, with a float64 norm taken from the stored row and a label
beside each row; :func:`~repro.ann.distance.cosine_distances` reads them
(:meth:`RowStore.distances`).  A label is the id the row answers to; ``-1``
is a row that answers to none (a removed HNSW node, which stays as a
route).  Labels are unique among live rows, which both backends look up
through the store.
"""

from __future__ import annotations

import numpy as np

from repro.ann.distance import cosine_distances, float32_row

_INITIAL_CAPACITY = 16


class RowStore:
    """Rows, norms and labels; the first :attr:`count` of each are stored."""

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.count = 0
        self.rows = np.empty((_INITIAL_CAPACITY, dim), dtype=np.float32)
        self.norms = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self.labels = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._row_of: dict[int, int] = {}  # live label -> row

    def __contains__(self, label: int) -> bool:
        return label in self._row_of

    def row(self, label: int) -> int:
        """The row *label* answers to; ``KeyError`` when no live row does."""
        return self._row_of[label]

    def append(self, vector: np.ndarray, label: int, norm: float | None = None) -> int:
        """Store *vector* as a float32 row under *label*; returns its row.

        ``ValueError``, storing nothing, when it is not a row of the store's
        width or a value is not finite in float32 (a *vector* with its *norm*
        is a row ``float32_row`` checked, stored as it is).  A full store grows by
        half first, so :attr:`rows` is then a new array and views of the old
        one no longer see later writes.  (Half, not double: while the rows
        are copied both blocks are resident, and that moment set
        ``peak_rss_mb`` on the benchmarks.)
        """
        if norm is None:
            vector, norm = float32_row(vector, f"vector of item {label}", self.rows.shape[1])
        row = self.count
        if row == len(self.rows):
            for name in ("rows", "norms", "labels"):
                old = getattr(self, name)
                grown = np.empty((row + row // 2, *old.shape[1:]), dtype=old.dtype)
                grown[:row] = old
                setattr(self, name, grown)
        self.rows[row] = vector
        self.norms[row] = norm
        self.labels[row] = label
        self._row_of[label] = row
        self.count = row + 1
        return row

    def relabel(self, label: int, new: int) -> None:
        """Make *label*'s row answer to *new*; ``ValueError`` when *label*
        is not live or *new* is."""
        if new in self._row_of:
            raise ValueError(f"item id in use: {new}")
        row = self._row_of.pop(label, None)
        if row is None:
            raise ValueError(f"no live item {label} to relabel")
        self._row_of[new] = row
        self.labels[row] = new

    def remove(self, label: int, fill: bool = False) -> None:
        """Take *label* off its row (``KeyError`` when no live row answers
        to it).  The row stays, labelled ``-1``; with *fill* the last row
        moves into it instead and the store is one row shorter."""
        row = self._row_of.pop(label)
        self.labels[row] = -1
        if fill:
            last = self.count = self.count - 1
            if row != last:
                moved = int(self.labels[last])
                self.rows[row], self.norms[row] = self.rows[last], self.norms[last]
                self.labels[row] = moved
                self._row_of[moved] = row

    def distances(self, query: np.ndarray, query_norm: float, rows) -> np.ndarray:
        """Distance from the float32 *query* to each of the first *rows* rows
        (an int: a scan of a view) or to each row *rows* names (a sequence:
        a gather), in that order: one kernel call, so a row has the same
        distance wherever and however it is read."""
        if isinstance(rows, int):
            block, norms = self.rows[:rows], self.norms[:rows]
        else:  # take gathers a few rows in half the time fancy indexing takes
            block, norms = self.rows.take(rows, axis=0), self.norms.take(rows)
        return cosine_distances(query, query_norm, block, norms)

    def nearest(self, query: np.ndarray, query_norm: float, k: int) -> list[tuple[int, float]]:
        """The *k* labelled rows nearest the float32 *query*, as ``(label,
        distance)``, over every stored row (:meth:`distances`) and cut in
        ``(distance, label)`` order."""
        distances = self.distances(query, query_norm, self.count)
        labels = self.labels[: self.count]
        live = labels >= 0
        if not live.all():
            distances, labels = distances[live], labels[live]
        order = np.lexsort((labels, distances))[:k]
        return [(int(labels[i]), float(distances[i])) for i in order]
