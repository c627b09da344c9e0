"""The search index: documents, inverted postings and vector graphs.

:class:`SearchIndex` is the in-process equivalent of the Azure AI Search
index the paper builds (Section 4).  It owns:

* the full-text postings of every *searchable* field — sealed immutable
  segments plus a write buffer (:mod:`repro.search.segment`), so live
  ingestion never rebuilds what queries are reading;
* one ANN index (HNSW by default, exact k-NN optionally) per *vector*
  field, fed by the configured embedding model.  Vector structures stay
  index-level and incremental — HNSW supports live inserts natively, and
  per-segment graphs could not reproduce the single-graph results
  byte-for-byte (the graph depends on the full insertion sequence);
* the chunk records themselves, for retrieval of *retrievable* fields;
* exact-match filtering on *filterable* fields.

Updates: the ingestion flow re-indexes modified documents every polling
cycle, so the index has one upsert, :meth:`SearchIndex.replace_document`,
which re-indexes only what changed: a chunk whose record is unchanged is
left alone, and a vector field whose text is unchanged keeps its stored
vector under the chunk's new internal id (``relabel``) instead of being
embedded and inserted again.  HNSW has no efficient hard delete, so a
deleted or replaced chunk is tombstoned: the ANN index owns the vector-side
tombstone (``remove`` — the node keeps routing and is never a result, so a
vector query asks for *k* and gets *k* live chunks), and :meth:`vacuum`
rebuilds the graphs when the tombstone ratio crosses a threshold.
Sealed-segment postings are likewise tombstoned in place (a bit flip plus
exact statistics ledgers) and reclaimed by background merges on the
simulated clock (:meth:`run_maintenance`) — `vacuum()` is just the most
aggressive merge policy plus the ANN rebuild.

What the index asks of an ANN backend is ``add`` / ``remove`` / ``relabel``
/ ``search`` / ``vector`` / ``__len__``, nothing else.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.ann.distance import float32_row
from repro.ann.exact import ExactKnnIndex
from repro.ann.hnsw import HnswIndex
from repro.embeddings.model import EmbeddingModel
from repro.obs import spans
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.trace import NULL_CONTEXT, RequestContext
from repro.search.reading import read_chunk, unread_chunk
from repro.search.schema import ChunkRecord, IndexSchema, uniask_schema
from repro.search.segment import SegmentedTextStore
from repro.text.analyzer import FULL_ANALYZER, ItalianAnalyzer

#: Default threshold of :meth:`SearchIndex.vacuum`: a no-arg vacuum only
#: rebuilds once this fraction of chunks is dead.
VACUUM_TOMBSTONE_RATIO = 0.35


class SearchIndex:
    """An updatable hybrid (text + vector) chunk index.

    Args:
        schema: field definitions; defaults to the UniAsk production schema.
        embedder: model used to embed vector fields and queries.
        ann_backend: ``"hnsw"`` (production) or ``"exact"`` (ground truth).
        hnsw_m / hnsw_ef_construction / hnsw_ef_search: HNSW parameters.
        seed: seed forwarded to HNSW level draws.
        registry: metrics registry for the maintenance counters (optional).
    """

    #: Optional incident flight recorder; set by the factory on the
    #: deployment's top-level index only, so per-shard members of a
    #: cluster never double-record.
    recorder = None

    def __init__(
        self,
        embedder: EmbeddingModel,
        schema: IndexSchema | None = None,
        ann_backend: str = "hnsw",
        hnsw_m: int = 16,
        hnsw_ef_construction: int = 100,
        hnsw_ef_search: int = 80,
        seed: int = 42,
        analyzer: ItalianAnalyzer | None = None,
        registry=None,
    ) -> None:
        if ann_backend not in ("hnsw", "exact"):
            raise ValueError("ann_backend must be 'hnsw' or 'exact'")
        self.schema = schema or uniask_schema()
        self.embedder = embedder
        self._ann_backend = ann_backend
        self._hnsw_m = hnsw_m
        self._hnsw_ef_construction = hnsw_ef_construction
        self._hnsw_ef_search = hnsw_ef_search
        self._seed = seed

        self._records: dict[int, ChunkRecord] = {}
        self._internal_by_chunk: dict[str, int] = {}
        self._internals_by_doc: dict[str, list[int]] = {}
        self._next_internal = 0
        #: Liveness by internal id, kept by every write (grown by doubling).
        self._live = np.zeros(64, dtype=bool)
        self._generation = 0

        self.analyzer = analyzer if analyzer is not None else FULL_ANALYZER
        self._store = SegmentedTextStore(self.schema.searchable_fields, self.analyzer)
        self._vectors: dict[str, HnswIndex | ExactKnnIndex] = {
            name: self._new_ann_index() for name in self.schema.vector_fields
        }
        self._maintenance_counter = (registry or NULL_REGISTRY).counter(
            "uniask_index_maintenance_total",
            "Index maintenance operations by kind (seal/merge/compact/vacuum).",
            ("op",),
        )

    # -- sizing ------------------------------------------------------------

    def __len__(self) -> int:
        return int(np.count_nonzero(self._live))

    @property
    def document_count(self) -> int:
        """Number of live source documents."""
        return sum(
            1
            for internals in self._internals_by_doc.values()
            if self._live[internals].any()
        )

    @property
    def generation(self) -> int:
        """Monotonic write counter; bumps on every content-changing write.

        Caches stamp entries with the generation they were computed against
        and treat a mismatch as an invalidation signal (see
        :mod:`repro.cache.retrieval_cache`).  Maintenance (seals and
        merges) preserves content exactly and deliberately does *not* bump
        this counter, so cached answers survive background compaction.
        """
        return self._generation

    @property
    def segment_count(self) -> int:
        """Number of sealed segments."""
        return len(self._store.segments)

    @property
    def buffered_count(self) -> int:
        """Documents in the unsealed write buffer."""
        return self._store.buffered_count()

    def segment_stamp(self) -> tuple:
        """Per-segment cache-invalidation stamp.

        A tuple of ``(segment_id, epoch)`` pairs plus the buffer write
        counter — a write invalidates only the component it touched.
        """
        return self._store.segment_stamp()

    @property
    def tombstone_ratio(self) -> float:
        """Fraction of stored chunks that are deleted but not vacuumed."""
        if not self._records:
            return 0.0
        return (len(self._records) - len(self)) / len(self._records)

    # -- writes --------------------------------------------------------------

    def add_chunk(self, record: ChunkRecord, vectors: dict[str, np.ndarray] | None = None) -> int:
        """Index one chunk; returns its internal id.

        Re-adding an existing ``chunk_id`` replaces the previous version
        under a fresh internal id; a vector field whose text did not change
        keeps its stored vector, which from now on answers to the new id.
        ``vectors`` optionally supplies pre-computed embeddings per vector
        field (used when loading a persisted index), bypassing the embedder;
        a supplied vector is always inserted.
        The chunk is queryable the moment this method returns: postings
        land in the write buffer (no rebuild of sealed segments)
        and ANN inserts are incremental.
        """
        previous = self._internal_by_chunk.get(record.chunk_id)
        replaced = None if previous is None else self._records[previous]
        # Every vector is made and checked before the first write, so a
        # refused one (wrong shape, not finite in float32) changes nothing.
        fresh: dict[str, np.ndarray] = {}
        for name in self._vectors:
            if vectors is not None and name in vectors:
                fresh[name] = vectors[name]
            elif replaced is None or replaced.value(name) != record.value(name):
                fresh[name] = self.embedder.embed(record.value(name))
        for name, vector in fresh.items():
            float32_row(vector, f"{name} vector of {record.chunk_id!r}", self.embedder.dim)
        if previous is not None:
            self._tombstone_text(previous)

        self._generation += 1
        internal = self._next_internal
        self._next_internal += 1
        self._records[internal] = record
        if internal == self._live.size:
            self._live = np.concatenate([self._live, np.zeros(internal, dtype=bool)])
        self._live[internal] = True
        self._internal_by_chunk[record.chunk_id] = internal
        self._internals_by_doc.setdefault(record.doc_id, []).append(internal)

        field_terms = self._store.add(
            internal, {name: record.value(name) for name in self.schema.searchable_fields}
        )
        self._drain_maintenance_ops()
        lexicon = getattr(self.embedder, "lexicon", None)
        if lexicon is not None:
            # The chunk is read when it is written, not when it is first
            # asked about; the content terms are the ones just indexed.
            read_chunk(record, lexicon, self.analyzer, field_terms.get("content"))
        for name, ann in self._vectors.items():
            if name not in fresh:
                ann.relabel(previous, internal)
                continue
            ann.add(internal, fresh[name])
            if replaced is not None:
                ann.remove(previous)
        return internal

    def chunk_vector(self, internal: int, field_name: str) -> np.ndarray:
        """The stored embedding of a live chunk's vector field.

        Read from the ANN index, never re-embedded: the embedder of a loaded
        index need not be the one that produced the stored vectors.
        """
        if not self.is_live(internal):
            raise KeyError(f"chunk {internal} is not live")
        return self._vectors[field_name].vector(internal)

    def add_chunks(self, records: Iterable[ChunkRecord]) -> list[int]:
        """Index many chunks; returns their internal ids."""
        return [self.add_chunk(record) for record in records]

    def replace_document(self, doc_id: str, records: Iterable[ChunkRecord]) -> list[int]:
        """Upsert: make *records* the live chunks of *doc_id*.

        Only what changed is written.  A record equal to the live one of its
        ``chunk_id`` is left alone — same internal id, no :attr:`generation`
        bump: re-indexing an unchanged page is not a write.  A record that
        differs goes through :meth:`add_chunk`, and live chunks of the
        document that *records* no longer names are tombstoned.  Returns the
        internal ids of the chunks written, in the order of *records*.

        ``ValueError``, before anything is written, when a record belongs to
        another document or two records share a ``chunk_id``.
        """
        records = list(records)
        chunk_ids = {record.chunk_id for record in records}
        if len(chunk_ids) != len(records):
            raise ValueError(f"two records of {doc_id!r} share a chunk_id")
        for record in records:
            if record.doc_id != doc_id:
                raise ValueError(
                    f"chunk {record.chunk_id!r} belongs to {record.doc_id!r}, not {doc_id!r}"
                )
        dropped = False
        for internal in self._internals_by_doc.get(doc_id, ()):
            if self._live[internal] and self._records[internal].chunk_id not in chunk_ids:
                self._tombstone(internal)
                dropped = True
        if dropped:
            self._generation += 1
        written = []
        for record in records:
            live = self._internal_by_chunk.get(record.chunk_id)
            if live is None or self._records[live] != record:
                written.append(self.add_chunk(record))
        return written

    def delete_document(self, doc_id: str) -> int:
        """Tombstone every chunk of *doc_id*; returns how many were removed."""
        internals = self._internals_by_doc.get(doc_id, [])
        removed = 0
        for internal in internals:
            if self._live[internal]:
                self._tombstone(internal)
                removed += 1
        if removed:
            self._generation += 1
        return removed

    def flush(self) -> None:
        """Seal the current write buffer (no-op when empty)."""
        self._store.flush()
        self._drain_maintenance_ops()

    def run_maintenance(self, now: float, ctx: RequestContext = NULL_CONTEXT) -> dict[str, int]:
        """Background segment maintenance on the simulated clock.

        Folds tombstone-heavy and surplus segments together (see
        :meth:`~repro.search.segment.SegmentedTextStore.run_maintenance`);
        returns the op counts performed.  Content-preserving, so neither
        the :attr:`generation` nor cached answers are invalidated.
        """
        with ctx.trace.span(spans.STAGE_INDEX_MAINTENANCE) as span:
            ops = self._store.run_maintenance(now)
            span.annotate(**ops)
        self._drain_maintenance_ops()
        if self.recorder is not None and any(ops.values()):
            self.recorder.record("segment_merge", "index", ops=dict(ops))
        return ops

    def vacuum(
        self,
        max_tombstone_ratio: float = VACUUM_TOMBSTONE_RATIO,
        ctx: RequestContext = NULL_CONTEXT,
    ) -> bool:
        """Reclaim tombstones: rebuild vector graphs, compact segments.

        ``max_tombstone_ratio`` is the trigger threshold: the rebuild runs
        only when :attr:`tombstone_ratio` exceeds it, so a no-arg vacuum on
        a clean or lightly-tombstoned index is a cheap no-op; pass ``0.0``
        explicitly to force reclamation of any tombstone.

        Returns True when a rebuild happened.
        """
        if self.tombstone_ratio <= max_tombstone_ratio:
            return False
        with ctx.trace.span(spans.STAGE_VACUUM, tombstones=len(self._records) - len(self)):
            self._vacuum_rebuild()
        self._maintenance_counter.labels("vacuum").inc()
        return True

    def _vacuum_rebuild(self) -> None:
        self._generation += 1
        live = {i: r for i, r in self._records.items() if self._live[i]}
        stored = self._vectors
        self._vectors = {name: self._new_ann_index() for name in self.schema.vector_fields}
        for internal in live:
            for name, ann in self._vectors.items():
                ann.add(internal, stored[name].vector(internal))
        self._store.compact_all()
        self._drain_maintenance_ops()
        self._records = live
        for doc_id in list(self._internals_by_doc):
            kept = [i for i in self._internals_by_doc[doc_id] if i in live]
            if kept:
                self._internals_by_doc[doc_id] = kept
            else:
                del self._internals_by_doc[doc_id]

    # -- reads ---------------------------------------------------------------

    def record(self, internal: int) -> ChunkRecord:
        """The chunk record stored under internal id *internal*."""
        return self._records[internal]

    def is_live(self, internal: int) -> bool:
        """False when the chunk has been tombstoned."""
        return internal in self._records and bool(self._live[internal])

    def live_mask(self) -> np.ndarray:
        """Liveness by internal id, over every id written so far and more."""
        return self._live

    def live_internals(self) -> list[int]:
        """All live internal ids."""
        return np.flatnonzero(self._live).tolist()

    def inverted_index(self, field_name: str):
        """The postings reader of searchable field *field_name*."""
        return self._store.view(field_name)

    def vector_search(
        self, field_name: str, query_vector: np.ndarray, k: int, work=None
    ) -> list[tuple[int, float]]:
        """The *k* nearest live chunks to *query_vector* on a vector field,
        equal distances in internal-id order."""
        return self._vectors[field_name].search(query_vector, k, work=work)

    def matches_filters(self, internal: int, filters: dict[str, str] | None) -> bool:
        """Exact-match filter evaluation on filterable fields."""
        if not filters:
            return True
        record = self._records[internal]
        for name, expected in filters.items():
            if name not in self.schema.filterable_fields:
                raise KeyError(f"field {name!r} is not filterable")
            value = getattr(record, name)
            if isinstance(value, tuple):
                if expected not in value:
                    return False
            elif value != expected:
                return False
        return True

    # -- internals -------------------------------------------------------------

    def _tombstone(self, internal: int) -> None:
        self._tombstone_text(internal)
        for ann in self._vectors.values():
            ann.remove(internal)

    def _tombstone_text(self, internal: int) -> None:
        """Everything of a tombstone but the vectors, whose fate the caller
        decides per field (:meth:`add_chunk` may hand them to the successor)."""
        self._live[internal] = False
        record = self._records[internal]
        self._internal_by_chunk.pop(record.chunk_id, None)
        content_terms = unread_chunk(record, self.analyzer)
        self._store.remove(
            internal,
            {name: record.value(name) for name in self.schema.searchable_fields},
            {} if content_terms is None else {"content": content_terms},
        )

    def _drain_maintenance_ops(self) -> None:
        if not self._store.op_counts:
            return
        for op, count in self._store.op_counts.items():
            self._maintenance_counter.labels(op).inc(count)
        self._store.op_counts.clear()

    def _new_ann_index(self) -> HnswIndex | ExactKnnIndex:
        if self._ann_backend == "exact":
            return ExactKnnIndex(self.embedder.dim)
        return HnswIndex(
            self.embedder.dim,
            m=self._hnsw_m,
            ef_construction=self._hnsw_ef_construction,
            ef_search=self._hnsw_ef_search,
            seed=self._seed,
        )
