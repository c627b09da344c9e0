"""Postings kernels as they stood before CSR: two arrays per term, dict merges.

Test oracle only: :mod:`tests.test_search_postings_oracle` requires every
kernel that :func:`~repro.search.segment.seal_buffer`,
:func:`~repro.search.segment.merge_segments` and
:meth:`~repro.search.segment.SegmentedTextStore.compact_all` make to equal,
term by term, what this module makes from the same postings: the same
member ids, lengths and terms, and per term the same slots and the same
``tfs`` bits.  :class:`ReferenceKernelPostings` is the dict-built
``KernelPostings`` as it stood before the CSR layout, ``build`` /
``to_dicts`` unchanged; :func:`reference_merge` is the ``merge_segments``
body of that time, which thawed every victim to per-posting dicts and froze
the union again.  :func:`thaw` reads a served (CSR) kernel back into the dicts the
tests compare.  Do not optimise this file.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class ReferenceKernelPostings:
    """One field's postings over one document set, one array pair per term."""

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

    @classmethod
    def build(
        cls,
        doc_lengths: dict[int, int],
        postings: dict[str, dict[int, int]],
        doc_ids: Sequence[int] | None = None,
    ) -> "ReferenceKernelPostings":
        """Freeze dict-shaped postings into per-term arrays."""
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

    def terms(self):
        """The indexed terms."""
        return self._slots.keys()

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
        """Thaw back into ``(doc_lengths, postings)`` dicts."""
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


def reference_merge(
    parts: Sequence[tuple[ReferenceKernelPostings, np.ndarray]],
) -> ReferenceKernelPostings | None:
    """One field's merge of ``(kernel, live mask)`` victims: thaw, refreeze."""
    doc_lengths: dict[int, int] = {}
    postings: dict[str, dict[int, int]] = {}
    for kernel, live in parts:
        part_lengths, part_postings = kernel.to_dicts(live)
        doc_lengths.update(part_lengths)
        for term, term_postings in part_postings.items():
            postings.setdefault(term, {}).update(term_postings)
    if not doc_lengths:
        return None
    return ReferenceKernelPostings.build(doc_lengths, postings, doc_ids=sorted(doc_lengths))


def thaw(
    kernel, live: np.ndarray | None = None
) -> tuple[dict[int, int], dict[str, dict[int, int]]]:
    """A served kernel's live ``(doc_lengths, postings)``, read through
    ``rows`` and ``term_arrays``."""
    keep = np.ones(kernel.doc_ids.size, dtype=bool) if live is None else live
    doc_lengths = {
        int(doc): int(length) for doc, length in zip(kernel.doc_ids[keep], kernel.lengths[keep])
    }
    postings: dict[str, dict[int, int]] = {}
    for term in kernel.rows:
        slots, tfs = kernel.term_arrays(term)
        held = keep[slots]
        if held.any():
            docs, counts = kernel.doc_ids[slots[held]], tfs[held].astype(int)
            postings[term] = dict(zip(docs.tolist(), counts.tolist()))
    return doc_lengths, postings


def assert_kernel_equals(kernel, reference: ReferenceKernelPostings) -> None:
    """Term by term: members, lengths, terms, slots and ``tfs`` bits."""
    assert kernel.doc_ids.tolist() == reference.doc_ids.tolist()
    assert kernel.lengths.tobytes() == reference.lengths.tobytes()
    assert kernel.total_length == reference.total_length
    assert sorted(kernel.rows) == sorted(reference.terms())
    for term in reference.terms():
        slots, tfs = kernel.term_arrays(term)
        expected_slots, expected_tfs = reference.term_arrays(term)
        assert slots.tolist() == expected_slots.tolist(), term
        assert tfs.tobytes() == expected_tfs.tobytes(), term
        assert kernel.document_frequency(term) == expected_slots.size
