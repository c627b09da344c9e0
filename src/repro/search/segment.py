"""Lucene-style segmented postings: sealed segments + a write buffer.

A single mutable postings structure couples ingestion to query cost: every
upsert mutates what every query reads, and the kernel layer
(:mod:`repro.search.kernels`) would have to re-freeze the whole collection
on every write.  The segmented design decouples them the way Lucene does:

* **Write buffer** — a small mutable :class:`~repro.search.inverted
  .InvertedIndex` per field.  Upserts and deletes of buffered documents are
  plain dict operations and are *immediately* visible to queries, so live
  ingestion needs no stop-the-world rebuild.
* **Sealed segments** — once the buffer reaches ``FLUSH_THRESHOLD``
  documents it is frozen into a :class:`SealedSegment`: per-field
  :class:`~repro.search.kernels.KernelPostings` (immutable contiguous
  arrays) plus one *shared* live mask.  Deleting a sealed document flips a
  bit and records the document's length and distinct terms in per-field
  ledgers, so global statistics stay exact without touching the arrays.
* **Background merges** — maintenance on the simulated clock folds small
  or tombstone-heavy segments together (:meth:`SegmentedTextStore
  .run_maintenance`), which is all ``vacuum()`` fundamentally is.

**Exact global statistics.**  BM25 is a function of the collection's
document count, per-term document frequencies and total analyzed length.
Each is kept as an exact integer per segment (raw totals minus the deleted
ledgers) and summed across segments + buffer, so the one float division
``total_length / document_count`` sees bit-identical operands to one
never-sealed :class:`~repro.search.inverted.InvertedIndex` over the same
live documents — the keystone of the byte-identical differential gate.

**The segment policy is module constants**, read at use time (no
deployment sets them; a test patches the module): ``FLUSH_THRESHOLD``
128, ``MAX_SEGMENTS`` 8, ``MERGE_FACTOR`` 4, ``SEGMENT_DEAD_RATIO`` 0.25
and ``MERGE_INTERVAL`` 900 simulated seconds.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.search.inverted import InvertedIndex
from repro.search.kernels import KernelPostings, KernelView
from repro.text.analyzer import ItalianAnalyzer

#: Buffered documents that trigger an automatic seal.
FLUSH_THRESHOLD = 128
#: Maintenance merges down to this many segments.
MAX_SEGMENTS = 8
#: How many of the smallest segments one merge folds.
MERGE_FACTOR = 4
#: Tombstone fraction above which maintenance compacts a segment in place.
SEGMENT_DEAD_RATIO = 0.25
#: Simulated seconds between maintenance sweeps.
MERGE_INTERVAL = 900.0


class SegmentField:
    """One field's frozen postings inside a segment, plus deletion ledgers.

    A sealed segment cannot remove postings, so deletes are accounted for
    on the side: ``deleted_total_length`` and ``deleted_df`` record what
    the dead documents contributed to this field's statistics.  Raw kernel
    totals minus the ledgers give the exact live statistics.
    """

    __slots__ = ("kernel", "deleted_total_length", "deleted_df")

    def __init__(self, kernel: KernelPostings) -> None:
        self.kernel = kernel
        self.deleted_total_length = 0
        self.deleted_df: dict[str, int] = {}

    @property
    def live_total_length(self) -> int:
        """Exact summed analyzed length of the live member documents."""
        return self.kernel.total_length - self.deleted_total_length

    def live_document_frequency(self, term: str) -> int:
        """Exact number of live member documents containing *term*."""
        df = self.kernel.document_frequency(term)
        if not df:
            return 0
        return df - self.deleted_df.get(term, 0)


class SealedSegment:
    """An immutable generation of documents with a shared live mask.

    All fields of one segment share the same slot order (every document
    indexes every searchable field), so a single boolean ``live`` array
    serves them all: a tombstone flips one bit and bumps the segment's
    ``epoch`` — the per-segment cache-invalidation stamp — while the
    postings arrays never move.
    """

    def __init__(self, segment_id: int, doc_ids: np.ndarray, fields: dict[str, SegmentField]) -> None:
        self.segment_id = segment_id
        self.epoch = 0
        self.doc_ids = doc_ids
        self.fields = fields
        self.live = np.ones(doc_ids.size, dtype=bool)
        self.live_count = int(doc_ids.size)

    @property
    def dead_ratio(self) -> float:
        """Fraction of member documents that are tombstoned."""
        if not self.doc_ids.size:
            return 0.0
        return 1.0 - self.live_count / self.doc_ids.size

    def slot_of(self, internal: int) -> int:
        """The member slot of *internal*; -1 when not a member."""
        position = int(np.searchsorted(self.doc_ids, internal))
        if position < self.doc_ids.size and int(self.doc_ids[position]) == internal:
            return position
        return -1

    def tombstone(self, internal: int, field_terms: dict[str, Iterable[str]]) -> bool:
        """Mark *internal* dead; *field_terms* re-derives its ledger entries.

        The analyzer is deterministic, so re-analyzing the record's field
        text yields exactly the distinct terms that were indexed at add
        time — the segment stores no per-document term list.
        """
        slot = self.slot_of(internal)
        if slot < 0 or not self.live[slot]:
            return False
        self.live[slot] = False
        self.live_count -= 1
        self.epoch += 1
        for name, field in self.fields.items():
            field.deleted_total_length += int(field.kernel.lengths[slot])
            for term in set(field_terms.get(name, ())):
                field.deleted_df[term] = field.deleted_df.get(term, 0) + 1
        return True

    def live_internal_ids(self) -> list[int]:
        """The live member document ids, ascending."""
        return [int(i) for i in self.doc_ids[self.live]]


def seal_buffer(segment_id: int, buffers: dict[str, InvertedIndex]) -> SealedSegment | None:
    """Freeze the write buffer into a sealed segment (None when empty).

    Every field buffer holds the same document set, so the first one fixes
    the shared slot order and every field kernel is built against it.
    """
    field_names = list(buffers)
    if not field_names or not len(buffers[field_names[0]]):
        return None
    first = buffers[field_names[0]]
    doc_ids = np.array(sorted(first.doc_ids()), dtype=np.int64)
    fields = {
        name: SegmentField(buffer.to_kernel(doc_ids=doc_ids))
        for name, buffer in buffers.items()
    }
    return SealedSegment(segment_id, doc_ids, fields)


def merge_segments(segment_id: int, segments: list[SealedSegment]) -> SealedSegment | None:
    """Fold several segments into one, dropping tombstoned documents."""
    if not segments:
        return None
    field_names = list(segments[0].fields)
    merged_ids: list[int] = []
    for segment in segments:
        merged_ids.extend(segment.live_internal_ids())
    if not merged_ids:
        return None
    doc_ids = np.array(sorted(merged_ids), dtype=np.int64)
    fields: dict[str, SegmentField] = {}
    for name in field_names:
        doc_lengths: dict[int, int] = {}
        postings: dict[str, dict[int, int]] = {}
        for segment in segments:
            seg_lengths, seg_postings = segment.fields[name].kernel.to_dicts(segment.live)
            doc_lengths.update(seg_lengths)
            for term, term_postings in seg_postings.items():
                postings.setdefault(term, {}).update(term_postings)
        fields[name] = SegmentField(KernelPostings.build(doc_lengths, postings, doc_ids=doc_ids))
    return SealedSegment(segment_id, doc_ids, fields)


class SegmentedTextStore:
    """All searchable-field postings of one index.

    Owns the sealed segment list, the per-field write buffers, and the
    document→segment map; :class:`~repro.search.index.SearchIndex`
    delegates every full-text read and write here.
    """

    def __init__(
        self,
        field_names: tuple[str, ...],
        analyzer: ItalianAnalyzer,
    ) -> None:
        self.analyzer = analyzer
        self.field_names = tuple(field_names)
        self.segments: list[SealedSegment] = []
        self.buffers: dict[str, InvertedIndex] = {
            name: InvertedIndex(analyzer) for name in self.field_names
        }
        self.op_counts: dict[str, int] = {}
        self._segment_by_internal: dict[int, SealedSegment] = {}
        self._next_segment_id = 0
        self._buffer_writes = 0
        self._last_maintenance: float | None = None
        self._views: dict[str, SegmentedFieldView] = {}

    # -- sizing / stamps ---------------------------------------------------

    def buffered_count(self) -> int:
        """Documents currently in the (unsealed) write buffer."""
        if not self.field_names:
            return 0
        return len(self.buffers[self.field_names[0]])

    def doc_count(self) -> int:
        """Live documents across sealed segments and the buffer."""
        return sum(segment.live_count for segment in self.segments) + self.buffered_count()

    def segment_stamp(self) -> tuple:
        """The cache-invalidation stamp: per-segment epochs + buffer writes.

        Changes on every content-changing write (adds and buffer removals
        bump the buffer-write counter, sealed-document tombstones bump that
        segment's epoch) and on segment replacement (merges introduce new
        segment ids), but an untouched segment's component stays stable.
        """
        parts: list[tuple] = [
            (segment.segment_id, segment.epoch) for segment in self.segments
        ]
        parts.append(("buffer", self._buffer_writes))
        return tuple(parts)

    # -- writes ------------------------------------------------------------

    def add(self, internal: int, field_texts: dict[str, str]) -> dict[str, Iterable[str]]:
        """Buffer one document; auto-seals at the flush threshold.

        Returns each field's distinct analyzed terms.
        """
        field_terms = {
            name: buffer.add(internal, field_texts[name]) for name, buffer in self.buffers.items()
        }
        self._buffer_writes += 1
        if self.buffered_count() >= FLUSH_THRESHOLD:
            self.flush()
        return field_terms

    def remove(
        self,
        internal: int,
        field_texts: dict[str, str],
        known_terms: dict[str, Iterable[str]] | None = None,
    ) -> bool:
        """Remove a document: for-real from the buffer, masked when sealed.

        A sealed document's ledger entries need its distinct terms per
        field: *known_terms* supplies those the caller still holds, the
        rest are re-derived from *field_texts*.
        """
        segment = self._segment_by_internal.get(internal)
        if segment is not None:
            field_terms = dict(known_terms or ())
            for name, text in field_texts.items():
                if name not in field_terms:
                    field_terms[name] = self.analyzer.analyze(text)
            if segment.tombstone(internal, field_terms):
                del self._segment_by_internal[internal]
                return True
            return False
        if not self.field_names:
            return False
        if internal not in self.buffers[self.field_names[0]]:
            return False
        for buffer in self.buffers.values():
            buffer.remove(internal)
        self._buffer_writes += 1
        return True

    def flush(self) -> SealedSegment | None:
        """Seal the write buffer into a new immutable segment."""
        segment = seal_buffer(self._next_segment_id, self.buffers)
        if segment is None:
            return None
        self._next_segment_id += 1
        self.segments.append(segment)
        for internal in segment.doc_ids:
            self._segment_by_internal[int(internal)] = segment
        self.buffers = {
            name: InvertedIndex(self.analyzer) for name in self.field_names
        }
        self._count_op("seal")
        return segment

    # -- maintenance -------------------------------------------------------

    def run_maintenance(self, now: float) -> dict[str, int]:
        """One maintenance sweep on the simulated clock; returns op counts.

        Compacts tombstone-heavy segments in place and folds the smallest
        segments together while the segment count exceeds ``MAX_SEGMENTS``.
        Maintenance preserves live content exactly — queries before and
        after a sweep return byte-identical results.
        """
        ops: dict[str, int] = {}
        if (
            self._last_maintenance is not None
            and now - self._last_maintenance < MERGE_INTERVAL
        ):
            return ops
        self._last_maintenance = now
        for segment in list(self.segments):
            if segment.dead_ratio > SEGMENT_DEAD_RATIO:
                self._replace_segments([segment])
                ops["compact"] = ops.get("compact", 0) + 1
                self._count_op("compact")
        while len(self.segments) > MAX_SEGMENTS:
            victims = sorted(self.segments, key=lambda s: (s.live_count, s.segment_id))
            victims = victims[: MERGE_FACTOR]
            self._replace_segments(victims)
            ops["merge"] = ops.get("merge", 0) + 1
            self._count_op("merge")
        return ops

    def compact_all(self) -> None:
        """Seal the buffer and fold everything into one all-live segment."""
        self.flush()
        if self.segments:
            self._replace_segments(list(self.segments))

    def _replace_segments(self, victims: list[SealedSegment]) -> None:
        """Atomically swap *victims* for their merged replacement.

        The merged segment is fully built before the segment list mutates,
        mirroring the atomic generation swap a concurrent deployment needs.
        """
        merged = merge_segments(self._next_segment_id, victims)
        victim_ids = {segment.segment_id for segment in victims}
        survivors = [s for s in self.segments if s.segment_id not in victim_ids]
        if merged is not None:
            self._next_segment_id += 1
            survivors.append(merged)
            for internal in merged.doc_ids:
                self._segment_by_internal[int(internal)] = merged
        self.segments = survivors

    def _count_op(self, op: str) -> None:
        self.op_counts[op] = self.op_counts.get(op, 0) + 1

    # -- reads -------------------------------------------------------------

    def view(self, field_name: str) -> "SegmentedFieldView":
        """The reader view of one searchable field (cached)."""
        view = self._views.get(field_name)
        if view is None:
            if field_name not in self.buffers:
                raise KeyError(field_name)
            view = self._views[field_name] = SegmentedFieldView(self, field_name)
        return view


class SegmentedFieldView:
    """One field's reader surface over segments + buffer.

    Implements the reader surface the BM25 scorer and the cluster's
    global-statistics wrapper consume (``__len__`` / ``document_frequency``
    / ``average_length`` / ``kernel_views`` / ``analyze_query``).
    Statistics are exact integers aggregated across segments and buffer.
    """

    def __init__(self, store: SegmentedTextStore, field_name: str) -> None:
        self._store = store
        self._field_name = field_name

    def _buffer(self) -> InvertedIndex:
        return self._store.buffers[self._field_name]

    def _segment_fields(self) -> list[tuple[SealedSegment, SegmentField]]:
        return [
            (segment, segment.fields[self._field_name])
            for segment in self._store.segments
        ]

    def __len__(self) -> int:
        return self._store.doc_count()

    @property
    def total_length(self) -> int:
        """Exact summed analyzed length of all live documents."""
        total = self._buffer().total_length
        for _, field in self._segment_fields():
            total += field.live_total_length
        return total

    @property
    def average_length(self) -> float:
        """Mean analyzed length of live documents (0 when empty).

        One float division over exact integer aggregates — bit-identical
        to a single :class:`InvertedIndex`'s ``total / count``.
        """
        documents = len(self)
        if documents == 0:
            return 0.0
        return self.total_length / documents

    def document_frequency(self, term: str) -> int:
        """Number of live documents containing *term*."""
        df = self._buffer().document_frequency(term)
        for _, field in self._segment_fields():
            df += field.live_document_frequency(term)
        return df

    def analyze_query(self, query: str) -> list[str]:
        """Analyze a query string with this field's analyzer."""
        return self._store.analyzer.analyze(query)

    def kernel_views(self) -> list[KernelView]:
        """Scorable kernel views: one per sealed segment, plus the buffer."""
        views = [
            KernelView(field.kernel, segment.live)
            for segment, field in self._segment_fields()
            if segment.live_count
        ]
        views.extend(self._buffer().kernel_views())
        return views
