"""Vectorized retrieval kernels: contiguous postings + batch BM25.

A pure-Python scorer walks postings doc-at-a-time — one dict lookup and a
handful of float operations per (term, document) pair, all interpreted;
that loop is kept as the test oracle (``tests/reference_bm25.py``).  This
module stores the same postings as contiguous numpy arrays and scores
every field of a request in one vectorized pass over every view (sealed
segments plus the write buffer) — the one scoring path of every query.

**Bit-exactness contract.**  The kernel is not "approximately equal" to
the reference loop — it is gated *byte-identical* (scores and tie-breaks)
by the oracle tests.  That works because every float operation of the
loop formulation

    length_norm = 1 - b + b * (|d| / avgdl)
    contribution = idf * tf * (k1 + 1) / (tf + k1 * length_norm)
    score[d] += contribution            # terms in analyzed-query order

is reproduced elementwise with the same operator order and the same
IEEE-754 double rounding (numpy elementwise arithmetic is correctly
rounded exactly like CPython floats; a per-posting ``idf`` array carries
the same scalar the loop multiplies by), and the per-document accumulation
order is preserved: :func:`bm25_scores` concatenates the postings field
by field, view by view and, within a view, term by term in query order,
and ``np.bincount`` adds its weights into a zeroed array strictly in array
order — so each (field, document) accumulator receives its contributions
in query-term order, one addition per matched term, starting from
``0.0 + first``.  ``idf`` stays a scalar computed with :func:`math.log`
(``np.log`` is *not* guaranteed to round identically to libm).

A :class:`KernelPostings` is immutable once built: that is the data-layout
contract that makes sealed index segments (:mod:`repro.search.segment`)
safe to share between queries without locking, and it is why live updates
go through a mutable write buffer instead of patching arrays in place.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro.obs.work import WORK_POSTINGS_SCANNED


class KernelPostings:
    """Contiguous postings of one field over one immutable document set.

    Layout (CSR: four arrays, one dict and one list, whatever the
    vocabulary):

    * ``doc_ids`` — the member document ids, ascending (``int64``);
    * ``lengths`` — analyzed field length per slot (``float64``, aligned
      with ``doc_ids``);
    * ``rows`` — ``term -> row``, rows numbered in insertion order;
    * ``starts`` — row offsets: row ``r`` holds postings
      ``starts[r]:starts[r + 1]`` (a list: a lookup reads two ints);
    * ``slots`` (``int32`` positions into ``doc_ids``, ascending within a
      row) and the parallel ``tfs`` (``float64`` term frequencies).

    Documents are addressed by *slot* during scoring so the length
    normalization is one gather; ids are materialized only on output.
    """

    __slots__ = ("doc_ids", "lengths", "total_length", "rows", "starts", "slots", "tfs")

    def __init__(self, doc_ids: np.ndarray, lengths: np.ndarray, terms: list[str],
                 rows: np.ndarray, slots: np.ndarray, tfs: np.ndarray) -> None:
        """Freeze per-posting ``(row, slot, tf)`` arrays: one sort by (row,
        slot); a row of *terms* with no posting gets no row."""
        self.doc_ids = doc_ids
        self.lengths = lengths
        self.total_length = int(lengths.sum()) if lengths.size else 0
        counts = np.bincount(rows, minlength=len(terms))
        held = np.flatnonzero(counts).tolist()
        self.rows = {terms[row]: number for number, row in enumerate(held)}
        self.starts = [0, *np.cumsum(counts[held]).tolist()]
        order = np.lexsort((slots, rows))
        self.slots = slots[order].astype(np.int32)
        self.tfs = tfs[order]

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        doc_lengths: dict[int, int],
        postings: dict[str, dict[int, int]],
        doc_ids: np.ndarray | None = None,
    ) -> "KernelPostings":
        """Freeze dict-shaped postings (a write buffer) into CSR arrays.

        ``doc_ids`` optionally passes the ascending member ids (a sealed
        segment's fields share the one array); it must cover exactly the
        keys of *doc_lengths*.
        """
        ids = np.array(sorted(doc_lengths), dtype=np.int64) if doc_ids is None else doc_ids
        lengths = np.array([doc_lengths[doc] for doc in ids.tolist()], dtype=np.float64)
        counts = [len(term_postings) for term_postings in postings.values()]
        docs = np.fromiter(chain.from_iterable(postings.values()), np.int64, sum(counts))
        tfs = np.fromiter(
            chain.from_iterable(map(dict.values, postings.values())), np.float64, sum(counts)
        )
        rows = np.repeat(np.arange(len(counts)), counts)
        return cls(ids, lengths, list(postings), rows, np.searchsorted(ids, docs), tfs)

    @classmethod
    def merge(
        cls, parts: Sequence[tuple["KernelPostings", np.ndarray]], doc_ids: np.ndarray
    ) -> "KernelPostings":
        """Fold ``(kernel, live mask)`` parts over the ascending *doc_ids*
        (their live members) as array passes: each part masked by its live
        mask, slots remapped by one ``searchsorted``, one sort by (row,
        slot).  Terms take rows in order of first appearance over the parts,
        so the arrays do not depend on the string hash seed."""
        rows_of: dict[str, int] = {}
        pieces = []
        lengths = np.empty(doc_ids.size, dtype=np.float64)
        for kernel, live in parts:
            lengths[np.searchsorted(doc_ids, kernel.doc_ids[live])] = kernel.lengths[live]
            row_map = [rows_of.setdefault(term, len(rows_of)) for term in kernel.rows]
            keep = live[kernel.slots]
            rows = np.repeat(np.array(row_map, dtype=np.int64), np.diff(kernel.starts))
            pieces.append((rows[keep], kernel.doc_ids[kernel.slots[keep]], kernel.tfs[keep]))
        rows, docs, tfs = (np.concatenate(arrays) for arrays in zip(*pieces))
        return cls(doc_ids, lengths, list(rows_of), rows, np.searchsorted(doc_ids, docs), tfs)

    # -- sizing / lookup ---------------------------------------------------

    def __len__(self) -> int:
        return int(self.doc_ids.size)

    def document_frequency(self, term: str) -> int:
        """Number of member documents containing *term*."""
        row = self.rows.get(term)
        return 0 if row is None else self.starts[row + 1] - self.starts[row]

    def term_arrays(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The ``(slots, tfs)`` slices of *term* (None when unseen)."""
        row = self.rows.get(term)
        if row is None:
            return None
        start, stop = self.starts[row], self.starts[row + 1]
        return self.slots[start:stop], self.tfs[start:stop]


class KernelView:
    """One scorable unit: a frozen postings kernel plus its live mask.

    ``live`` is a boolean array aligned with the kernel's slots; ``None``
    means every member document is live.  Sealed segments share one
    mutable live mask between their fields (a tombstone flips a bit,
    nothing else moves); a plain :class:`~repro.search.inverted
    .InvertedIndex` has no tombstones, so its view carries ``None``.
    """

    __slots__ = ("kernel", "live")

    def __init__(self, kernel: KernelPostings, live: np.ndarray | None = None) -> None:
        self.kernel = kernel
        self.live = live


def bm25_scores(
    groups: Sequence[tuple[Sequence[KernelView], Sequence[tuple[str, float]], float]],
    k1: float, b: float, work=None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """BM25 scores of every live document a query term matches, per group.

    A group is one field of a request, ``(views, term_idfs,
    average_length)``.  One pass over every (group, view, term) in the
    order the module docstring states; a posting divides by its group's
    average length repeated per posting, the operands of a scalar divisor.
    *work* (optional) is booked ``postings_scanned``, one unit per posting.
    Returns one ``(doc_ids, scores)`` pair per group, views in order and
    slots ascending within a view.
    """
    parts: list[tuple] = []  # (slots, tfs, slot offset, idf, average length)
    views: list[KernelView] = []
    bounds = [0]
    offset = 0
    for group_views, term_idfs, average_length in groups:
        for view in group_views:
            for term, idf in term_idfs:
                arrays = view.kernel.term_arrays(term)
                if arrays is not None:
                    parts.append((*arrays, offset, idf, average_length))
            offset += view.kernel.doc_ids.size
        views.extend(group_views)
        bounds.append(offset)
    if not parts:
        return [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))] * len(groups)
    slot_parts, tf_parts, offsets, idfs, average_lengths = zip(*parts)
    sizes = [part.size for part in slot_parts]
    slots = np.concatenate(slot_parts) + np.repeat(offsets, sizes)
    tfs = np.concatenate(tf_parts)
    lengths = np.concatenate([view.kernel.lengths for view in views])[slots]
    ratio = lengths / np.repeat(average_lengths, sizes)
    length_norm = 1.0 - b + b * ratio
    contribution = np.repeat(idfs, sizes) * tfs * (k1 + 1.0) / (tfs + k1 * length_norm)
    acc = np.bincount(slots, weights=contribution, minlength=offset)
    touched = np.zeros(offset, dtype=bool)
    touched[slots] = True
    if any(view.live is not None for view in views):
        touched &= np.concatenate([
            np.ones(view.kernel.doc_ids.size, dtype=bool) if view.live is None else view.live
            for view in views
        ])
    hits = np.flatnonzero(touched)
    if work is not None:
        work.add(WORK_POSTINGS_SCANNED, slots.size)
    ids, scores = np.concatenate([view.kernel.doc_ids for view in views])[hits], acc[hits]
    cuts = np.searchsorted(hits, bounds).tolist()
    return [(ids[lo:hi], scores[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
