"""One row matrix per vector index: the store both ANN backends keep.

Vectors are the rows of one contiguous matrix that grows geometrically,
with a norm and a label beside each row.  The norm is the owner's:
:class:`~repro.ann.hnsw.HnswIndex` takes the 1-D form its scalar distance
reads, :class:`~repro.ann.exact.ExactKnnIndex` the row-wise form of
:func:`~repro.ann.distance.batch_cosine_distance` (the two can differ in
the last bit).  A label is the id the row answers to; ``-1`` is a row that
answers to none (a removed HNSW node, which stays as a route).  Labels are
unique among live rows, which both backends look up through the store.
"""

from __future__ import annotations

import numpy as np

from repro.ann.distance import batch_cosine_distance

_INITIAL_CAPACITY = 16


class RowStore:
    """Rows, norms and labels; the first :attr:`count` of each are stored."""

    def __init__(self, dim: int) -> None:
        self.count = 0
        self.rows = np.empty((_INITIAL_CAPACITY, dim), dtype=np.float64)
        self.norms = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self.labels = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._row_of: dict[int, int] = {}  # live label -> row

    def __contains__(self, label: int) -> bool:
        return label in self._row_of

    def row(self, label: int) -> int:
        """The row *label* answers to; ``KeyError`` when no live row does."""
        return self._row_of[label]

    def append(self, vector: np.ndarray, norm: float, label: int) -> int:
        """Store *vector* with its *norm* under *label*; returns its row.

        A full store grows by half first, so :attr:`rows` is then a new
        array and views of the old one no longer see later writes.  (Half,
        not double: while the rows are copied both blocks are resident, and
        that moment set ``peak_rss_mb`` on the benchmark workloads.)
        """
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

    def nearest(
        self, query: np.ndarray, query_norm: float, k: int, tie_keys: np.ndarray | None = None
    ) -> list[tuple[int, float]]:
        """The *k* labelled rows nearest *query*, as ``(label, distance)``.

        One :func:`~repro.ann.distance.batch_cosine_distance` pass over every
        stored row, so a distance has the bits of the scalar expression; the
        cut is in ``(distance, tie key, label)`` order, by ``(distance,
        label)`` without *tie_keys* (indexed by label).
        """
        count = self.count
        distances = batch_cosine_distance(query, self.rows[:count], self.norms[:count], query_norm)
        labels = self.labels[:count]
        live = labels >= 0
        if not live.all():
            distances, labels = distances[live], labels[live]
        keys = (labels, distances) if tie_keys is None else (labels, tie_keys[labels], distances)
        order = np.lexsort(keys)[:k]
        return [(int(labels[i]), float(distances[i])) for i in order]
