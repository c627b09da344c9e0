"""Vectorized retrieval kernels: contiguous postings + batch BM25.

A pure-Python scorer walks postings doc-at-a-time — one dict lookup and a
handful of float operations per (term, document) pair, all interpreted;
that loop is kept as the test oracle (``tests/reference_bm25.py``).  This
module stores the same postings as contiguous numpy arrays and scores a
field in one vectorized pass over every view (sealed segments plus the
write buffer) — the one scoring path queries are served from.

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
order is preserved: :func:`bm25_scores` concatenates the postings view by
view and, within a view, term by term in query order, and ``np.bincount``
adds its weights into a zeroed array strictly in array order — so each
document receives its contributions in query-term order, one addition per
matched term, starting from ``0.0 + first``.  ``idf`` stays a scalar
computed with :func:`math.log` (``np.log`` is *not* guaranteed to round
identically to libm).

A :class:`KernelPostings` is immutable once built: that is the data-layout
contract that makes sealed index segments (:mod:`repro.search.segment`)
safe to share between queries without locking, and it is why live updates
go through a mutable write buffer instead of patching arrays in place.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.obs.work import WORK_POSTINGS_SCANNED


class KernelPostings:
    """Contiguous postings of one field over one immutable document set.

    Layout:

    * ``doc_ids`` — the member document ids, ascending (``int64``);
    * ``lengths`` — analyzed field length per slot (``float64``, aligned
      with ``doc_ids``);
    * per term: a ``slots`` array (positions into ``doc_ids``) and a
      parallel ``tfs`` array (``float64`` term frequencies).

    Documents are addressed by *slot* during scoring so the length
    normalization is one gather; ids are materialized only on output.
    """

    __slots__ = ("doc_ids", "lengths", "total_length", "_slots", "_tfs")

    def __init__(
        self,
        doc_ids: np.ndarray,
        lengths: np.ndarray,
        slots_by_term: dict[str, np.ndarray],
        tfs_by_term: dict[str, np.ndarray],
    ) -> None:
        self.doc_ids = doc_ids
        self.lengths = lengths
        self.total_length = int(lengths.sum()) if lengths.size else 0
        self._slots = slots_by_term
        self._tfs = tfs_by_term

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        doc_lengths: dict[int, int],
        postings: dict[str, dict[int, int]],
        doc_ids: Sequence[int] | None = None,
    ) -> "KernelPostings":
        """Freeze dict-shaped postings into contiguous arrays.

        ``doc_ids`` optionally fixes the slot order (ascending ids when
        omitted); it must cover exactly the keys of *doc_lengths*.
        """
        if doc_ids is None:
            ids = np.array(sorted(doc_lengths), dtype=np.int64)
        else:
            ids = np.asarray(doc_ids, dtype=np.int64)
        lengths = np.array([float(doc_lengths[int(i)]) for i in ids], dtype=np.float64)
        slot_of = {int(doc): slot for slot, doc in enumerate(ids)}
        slots_by_term: dict[str, np.ndarray] = {}
        tfs_by_term: dict[str, np.ndarray] = {}
        for term, term_postings in postings.items():
            if not term_postings:
                continue
            pairs = sorted((slot_of[doc], tf) for doc, tf in term_postings.items())
            slots_by_term[term] = np.array([slot for slot, _ in pairs], dtype=np.int64)
            tfs_by_term[term] = np.array([float(tf) for _, tf in pairs], dtype=np.float64)
        return cls(ids, lengths, slots_by_term, tfs_by_term)

    # -- sizing / lookup ---------------------------------------------------

    def __len__(self) -> int:
        return int(self.doc_ids.size)

    def terms(self) -> Iterable[str]:
        """The indexed terms (arbitrary order)."""
        return self._slots.keys()

    def document_frequency(self, term: str) -> int:
        """Number of member documents containing *term*."""
        slots = self._slots.get(term)
        return int(slots.size) if slots is not None else 0

    def term_arrays(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The ``(slots, tfs)`` arrays of *term* (None when unseen)."""
        slots = self._slots.get(term)
        if slots is None:
            return None
        return slots, self._tfs[term]

    def postings_dict(self, term: str, live: np.ndarray | None = None) -> dict[int, int]:
        """The ``doc_id -> tf`` dict of *term*, masked by *live* slots."""
        arrays = self.term_arrays(term)
        if arrays is None:
            return {}
        slots, tfs = arrays
        if live is not None:
            keep = live[slots]
            slots, tfs = slots[keep], tfs[keep]
        ids = self.doc_ids[slots]
        return {int(doc): int(tf) for doc, tf in zip(ids, tfs)}

    def to_dicts(
        self, live: np.ndarray | None = None
    ) -> tuple[dict[int, int], dict[str, dict[int, int]]]:
        """Thaw back into ``(doc_lengths, postings)`` dicts (merge path)."""
        if live is None:
            keep_slots = np.arange(self.doc_ids.size)
        else:
            keep_slots = np.nonzero(live)[0]
        doc_lengths = {
            int(self.doc_ids[slot]): int(self.lengths[slot]) for slot in keep_slots
        }
        postings: dict[str, dict[int, int]] = {}
        for term in self._slots:
            term_postings = self.postings_dict(term, live)
            if term_postings:
                postings[term] = term_postings
        return doc_lengths, postings


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
    views: Sequence[KernelView], term_idfs: Sequence[tuple[str, float]],
    k1: float, b: float, average_length: float, work=None,
) -> tuple[np.ndarray, np.ndarray]:
    """BM25 scores of every live document of *views* a query term matches.

    One pass: the views' slots are numbered end to end and the postings of
    every (view, term) pair concatenated in the order the module docstring
    states.  *work* is an optional :class:`~repro.obs.work.WorkCounters`;
    this kernel books ``postings_scanned``, one unit per posting scored.
    Returns parallel ``(doc_ids, scores)`` arrays, views in order and slots
    ascending within a view.
    """
    slot_parts: list[np.ndarray] = []
    tf_parts: list[np.ndarray] = []
    part_offsets: list[int] = []
    part_idfs: list[float] = []
    offset = 0
    for view in views:
        for term, idf in term_idfs:
            arrays = view.kernel.term_arrays(term)
            if arrays is not None:
                slot_parts.append(arrays[0])
                tf_parts.append(arrays[1])
                part_offsets.append(offset)
                part_idfs.append(idf)
        offset += view.kernel.doc_ids.size
    if not slot_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    sizes = [part.size for part in slot_parts]
    slots = np.concatenate(slot_parts)
    slots += np.repeat(part_offsets, sizes)
    tfs = np.concatenate(tf_parts)
    ratio = np.concatenate([view.kernel.lengths for view in views])[slots] / average_length
    length_norm = 1.0 - b + b * ratio
    contribution = np.repeat(part_idfs, sizes) * tfs * (k1 + 1.0) / (tfs + k1 * length_norm)
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
    return np.concatenate([view.kernel.doc_ids for view in views])[hits], acc[hits]
