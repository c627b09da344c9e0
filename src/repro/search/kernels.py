"""Vectorized retrieval kernels: contiguous postings + batch BM25.

A pure-Python scorer walks postings doc-at-a-time — one dict lookup and a
handful of float operations per (term, document) pair, all interpreted;
that loop is kept as the test oracle (``tests/reference_bm25.py``).  This
module stores the same postings as contiguous numpy arrays and scores them
term-at-a-time with vectorized arithmetic — the one scoring path queries
are served from.

**Bit-exactness contract.**  The kernel is not "approximately equal" to
the reference loop — it is gated *byte-identical* (scores and tie-breaks)
by the oracle tests.  That works because every float operation of the
loop formulation

    length_norm = 1 - b + b * (|d| / avgdl)
    contribution = idf * tf * (k1 + 1) / (tf + k1 * length_norm)
    score[d] += contribution            # terms in analyzed-query order

is reproduced elementwise with the same operator order and the same
IEEE-754 double rounding (numpy elementwise arithmetic is correctly
rounded exactly like CPython floats), and the per-document accumulation
order — query-term order, one addition per matched term — is preserved by
accumulating one term at a time into a dense slot-indexed array.  ``idf``
stays a scalar computed with :func:`math.log` (``np.log`` is *not*
guaranteed to round identically to libm).

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

    # -- scoring -----------------------------------------------------------

    def accumulate_bm25(
        self,
        term_idfs: Sequence[tuple[str, float]],
        k1: float,
        b: float,
        average_length: float,
        work=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Accumulate BM25 contributions term-at-a-time into slot arrays.

        *term_idfs* carries the analyzed query terms **in query order**
        (repeats included) with their precomputed idf, so each document's
        additions happen in exactly the order the loop scorer performs
        them.

        *work* is an optional :class:`~repro.obs.work.WorkCounters`; this
        kernel is the source of truth for ``postings_scanned`` (one unit
        per (term, posting) pair computed).  Counters are booked from
        array sizes outside the float pipeline, so the scores' bits are
        untouched.

        Returns ``(acc, touched)``: the per-slot score sums and the mask
        of slots at least one term matched.
        """
        n = self.doc_ids.size
        acc = np.zeros(n, dtype=np.float64)
        touched = np.zeros(n, dtype=bool)
        scanned = 0
        for term, idf in term_idfs:
            arrays = self.term_arrays(term)
            if arrays is None:
                continue
            slots, tfs = arrays
            scanned += int(slots.size)
            ratio = self.lengths[slots] / average_length
            length_norm = 1.0 - b + b * ratio
            contribution = idf * tfs * (k1 + 1.0) / (tfs + k1 * length_norm)
            acc[slots] += contribution
            touched[slots] = True
        if work is not None and scanned:
            work.add(WORK_POSTINGS_SCANNED, scanned)
        return acc, touched


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

    def live_slots(self, slots: np.ndarray) -> np.ndarray:
        """Filter a slot array down to live members."""
        if self.live is None:
            return slots
        return slots[self.live[slots]]
