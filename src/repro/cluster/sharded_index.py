"""A corpus partitioned over several :class:`SearchIndex` shards.

:class:`ShardedSearchIndex` presents the same write surface as a single
:class:`~repro.search.index.SearchIndex` (``add_chunk`` / ``add_chunks`` /
``replace_document`` / ``delete_document`` / ``__len__`` / ``vacuum``), so
the ingestion and indexing services drive it unchanged, while routing every
document to the shard chosen by the
:class:`~repro.cluster.planner.ShardPlanner`.

Two pieces make scatter-gather retrieval rank *exactly* like one big index:

* **Global collection statistics.**  BM25 scores depend on the document
  count, per-term document frequencies and the average document length of
  the collection.  Scored per shard with local statistics those numbers
  diverge from the single-index scores, and rankings merged across shards
  stop being comparable.  :class:`_GlobalStatsInverted` is a view over one
  shard's postings that answers the statistics queries with cluster-wide
  aggregates (summed as exact integers — a mean of per-shard means would
  already differ in the last float bit), so every shard scores against the
  same global numbers the single index would use.

* **Global insertion ordinals.**  A single index breaks score ties by
  insertion order of its internal ids.  The facade assigns every chunk a
  monotonically increasing *ordinal* at ``add_chunk`` time — a chunk that
  ``replace_document`` leaves alone keeps its ordinal as it keeps its
  internal id, a chunk it rewrites gets a fresh one, a chunk a migration
  moves keeps its own.  The ordinal is stored once, in the shard that
  holds the chunk (:meth:`~repro.search.index.SearchIndex.set_ordinal`):
  each shard ranks its chunks by it, so a tie at a leg's cut falls where
  the single index would put it, and the router merges per-shard rankings
  with ``(-score, ordinal)``, reading it back through :meth:`ordinal`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.cluster.planner import ShardPlanner
from repro.embeddings.model import EmbeddingModel
from repro.obs.trace import NULL_CONTEXT, RequestContext
from repro.search.index import NO_ORDINAL, VACUUM_TOMBSTONE_RATIO, SearchIndex
from repro.search.inverted import InvertedIndex
from repro.search.schema import ChunkRecord, IndexSchema, uniask_schema
from repro.text.analyzer import ItalianAnalyzer


class _GlobalStatsInverted:
    """One shard's postings scored against cluster-wide BM25 statistics.

    Postings arrays and query analysis are local to the shard;
    ``len()``, ``document_frequency`` and ``average_length`` aggregate over
    every shard, which is exactly the split a distributed BM25 needs: term
    walks stay shard-local, collection statistics are global.
    """

    def __init__(self, cluster: "ShardedSearchIndex", field_name: str, local: InvertedIndex) -> None:
        self._cluster = cluster
        self._field_name = field_name
        self._local = local

    def _field_indexes(self) -> list[InvertedIndex]:
        return [
            self._cluster.shard_index(shard_id).inverted_index(self._field_name)
            for shard_id in self._cluster.shard_ids
        ]

    # -- global collection statistics --------------------------------------

    def __len__(self) -> int:
        return sum(len(index) for index in self._field_indexes())

    def document_frequency(self, term: str) -> int:
        return sum(index.document_frequency(term) for index in self._field_indexes())

    @property
    def average_length(self) -> float:
        indexes = self._field_indexes()
        documents = sum(len(index) for index in indexes)
        if documents == 0:
            return 0.0
        return sum(index.total_length for index in indexes) / documents

    # -- shard-local postings ----------------------------------------------

    def analyze_query(self, query: str) -> list[str]:
        return self._local.analyze_query(query)

    def kernel_views(self):
        """The shard-local kernel views.

        Postings arrays stay shard-local while the scorer reads ``len()``
        / ``document_frequency`` / ``average_length`` from this wrapper,
        i.e. globally — so kernel scores are bit-identical to single-index
        scores here too.
        """
        return self._local.kernel_views()


class _ShardSearchView:
    """A :class:`SearchIndex` facade over one shard for the query executors.

    Identical to the shard's own index except that ``inverted_index``
    returns the global-statistics view, so a ``FullTextSearch`` built on
    this view produces BM25 scores bit-identical to a single global index.
    """

    def __init__(self, cluster: "ShardedSearchIndex", shard_id: int) -> None:
        self._cluster = cluster
        self._shard = cluster.shard_index(shard_id)
        self.schema = self._shard.schema
        self.embedder = self._shard.embedder

    def inverted_index(self, field_name: str) -> _GlobalStatsInverted:
        return _GlobalStatsInverted(
            self._cluster, field_name, self._shard.inverted_index(field_name)
        )

    def is_live(self, internal: int) -> bool:
        return self._shard.is_live(internal)

    def ordinals(self, internals: np.ndarray) -> np.ndarray:
        return self._shard.ordinals(internals)

    def matches_filters(self, internal: int, filters: dict[str, str] | None) -> bool:
        return self._shard.matches_filters(internal, filters)

    def record(self, internal: int) -> ChunkRecord:
        return self._shard.record(internal)


class ShardedSearchIndex:
    """N per-shard :class:`SearchIndex` instances behind one write surface.

    Args:
        embedder: embedding model shared by every shard.
        schema: field definitions; defaults to the UniAsk production schema.
        num_shards: shards to create (ignored when *planner* or
            *shard_indexes* is given).
        planner: reuse an existing placement ring (restores a persisted
            cluster); defaults to a fresh ``num_shards``-shard ring.
        shard_indexes: pre-built ``shard_id -> SearchIndex`` map (the load
            path); must cover exactly the planner's shard ids.
        Remaining arguments mirror :class:`SearchIndex` and are applied to
        every shard (existing and future).
    """

    #: Optional incident flight recorder; set by the factory (per-shard
    #: members keep None — merges are recorded once, at the cluster).
    recorder = None

    def __init__(
        self,
        embedder: EmbeddingModel,
        schema: IndexSchema | None = None,
        num_shards: int = 2,
        ann_backend: str = "hnsw",
        hnsw_m: int = 16,
        hnsw_ef_construction: int = 100,
        hnsw_ef_search: int = 80,
        seed: int = 42,
        analyzer: ItalianAnalyzer | None = None,
        planner: ShardPlanner | None = None,
        shard_indexes: dict[int, SearchIndex] | None = None,
        registry=None,
    ) -> None:
        self.schema = schema or uniask_schema()
        self.embedder = embedder
        self._index_kwargs = dict(
            ann_backend=ann_backend,
            hnsw_m=hnsw_m,
            hnsw_ef_construction=hnsw_ef_construction,
            hnsw_ef_search=hnsw_ef_search,
            seed=seed,
            analyzer=analyzer,
            registry=registry,
        )
        if planner is not None:
            self._planner = planner
        elif shard_indexes is not None:
            self._planner = ShardPlanner(shard_ids=sorted(shard_indexes))
        else:
            self._planner = ShardPlanner(num_shards=num_shards)

        if shard_indexes is not None:
            if set(shard_indexes) != set(self._planner.shard_ids):
                raise ValueError("shard_indexes must cover exactly the planner's shards")
            self._shards = dict(shard_indexes)
        else:
            self._shards = {
                shard_id: self._new_shard_index() for shard_id in self._planner.shard_ids
            }

        self._next_ordinal = 0
        self._generation = 0

    def _new_shard_index(self) -> SearchIndex:
        return SearchIndex(self.embedder, schema=self.schema, **self._index_kwargs)

    # -- topology ----------------------------------------------------------

    @property
    def planner(self) -> ShardPlanner:
        """The document-placement ring."""
        return self._planner

    @property
    def generation(self) -> int:
        """Monotonic cluster-wide write counter (the answer-cache epoch).

        Kept as the facade's own counter rather than a sum of the per-shard
        generations: ``remove_shard`` drops a shard's counter from such a
        sum, which would make the aggregate non-monotonic and could collide
        with an epoch a cache already stamped.
        """
        return self._generation

    @property
    def shard_ids(self) -> tuple[int, ...]:
        """All shard ids, in creation order."""
        return self._planner.shard_ids

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return self._planner.num_shards

    def shard_index(self, shard_id: int) -> SearchIndex:
        """The :class:`SearchIndex` of shard *shard_id*."""
        return self._shards[shard_id]

    def search_view(self, shard_id: int) -> _ShardSearchView:
        """A query-executor facade of *shard_id* with global BM25 stats."""
        return _ShardSearchView(self, shard_id)

    def add_shard(self) -> int:
        """Grow the ring by one shard and migrate the documents it now owns."""
        shard_id = self._planner.add_shard()
        self._shards[shard_id] = self._new_shard_index()
        self._migrate()
        self._generation += 1
        return shard_id

    def remove_shard(self, shard_id: int) -> None:
        """Drain *shard_id*'s documents to the survivors and drop the shard."""
        if shard_id not in self._shards:
            raise KeyError(f"unknown shard {shard_id}")
        self._planner.remove_shard(shard_id)
        doomed = self._shards.pop(shard_id)
        self._migrate(extra_sources={shard_id: doomed})
        self._generation += 1

    def rebalance_shard(self, from_shard: int, to_shard: int, fraction: float = 0.25) -> int:
        """Move a bounded slice of *from_shard*'s documents to *to_shard*.

        A hot-shard relief valve: pins the lowest
        ``fraction`` of *from_shard*'s documents (by doc id, so repeated
        calls are deterministic) onto *to_shard* in the placement ring
        and migrates exactly those — the planner's minimal-movement
        property keeps every other document where it is.  Returns the
        number of chunks moved; bumps the generation (a placement change
        is a write, so caches re-epoch) only when something moved.
        """
        if from_shard not in self._shards:
            raise KeyError(f"unknown shard {from_shard}")
        if to_shard not in self._shards:
            raise KeyError(f"unknown shard {to_shard}")
        if from_shard == to_shard:
            raise ValueError("from_shard and to_shard must differ")
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        source = self._shards[from_shard]
        doc_ids = sorted({source.record(i).doc_id for i in source.live_internals()})
        if not doc_ids:
            return 0
        for doc_id in doc_ids[: max(1, int(len(doc_ids) * fraction))]:
            self._planner.pin(doc_id, to_shard)
        moved = self._migrate()
        if moved:
            self._generation += 1
        return moved

    def bump_generation(self) -> int:
        """Force a cache-epoch flip without touching any content.

        Chaos hook for thundering-herd drills: every answer-cache entry
        stamped with the previous epoch becomes stale at once, so the
        next wave of repeat questions re-runs the full pipeline — exactly
        what a bulk corpus refresh does in production, without the cost
        of actually rewriting documents in a load scenario.
        """
        self._generation += 1
        return self._generation

    def _migrate(self, extra_sources: dict[int, SearchIndex] | None = None) -> int:
        """Re-place documents whose ring owner changed; returns chunks moved.

        Moved chunks keep their global ordinal, so merged rankings remain
        stable for the unmoved majority of the corpus.
        """
        sources = dict(self._shards)
        sources.update(extra_sources or {})
        moved_chunks = 0
        for source_id, source in sources.items():
            # A chunk moves with the vectors it is served by, not re-embedded.
            stale: dict[str, list[tuple[int, ChunkRecord, dict[str, np.ndarray]]]] = {}
            for internal in source.live_internals():
                record = source.record(internal)
                if self._planner.assign(record.doc_id) != source_id:
                    vectors = {
                        name: source.chunk_vector(internal, name)
                        for name in self.schema.vector_fields
                    }
                    ordinal = source.ordinal(record.chunk_id)
                    stale.setdefault(record.doc_id, []).append((ordinal, record, vectors))
            for doc_id, chunks in stale.items():
                target = self._shards[self._planner.assign(doc_id)]
                source.delete_document(doc_id)
                # Re-added in ordinal order under their old ordinals, which
                # the target shard's cuts break ties on.
                for ordinal, record, vectors in sorted(chunks, key=lambda c: c[0]):
                    internal = target.add_chunk(record, vectors=vectors)
                    target.set_ordinal(internal, ordinal)
                    moved_chunks += 1
        return moved_chunks

    # -- sizing ------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards.values())

    @property
    def document_count(self) -> int:
        """Number of live source documents across all shards."""
        return sum(shard.document_count for shard in self._shards.values())

    # -- writes ------------------------------------------------------------

    def add_chunk(self, record: ChunkRecord, vectors: dict[str, np.ndarray] | None = None) -> int:
        """Index one chunk on its planner-assigned shard.

        Returns the chunk's shard-local internal id.  Also stamps the
        chunk's global insertion ordinal (re-adding an existing chunk id
        stamps a fresh one, mirroring the fresh internal id a single index
        would assign).
        """
        shard = self._shards[self._planner.assign(record.doc_id)]
        internal = shard.add_chunk(record, vectors=vectors)
        self._stamp(shard, internal)
        self._generation += 1
        return internal

    def add_chunks(self, records: Iterable[ChunkRecord]) -> list[int]:
        """Index many chunks; returns their shard-local internal ids."""
        return [self.add_chunk(record) for record in records]

    def replace_document(self, doc_id: str, records: Iterable[ChunkRecord]) -> list[int]:
        """Upsert *doc_id* on its owning shard, writing only what changed.

        A chunk the shard wrote gets a fresh ordinal, as the fresh internal
        id it got there; a chunk the shard left alone keeps its ordinal, and
        a replace that changed nothing leaves the :attr:`generation` alone.
        Returns the shard-local internal ids written.
        """
        shard = self._shards[self._planner.assign(doc_id)]
        before = shard.generation
        written = shard.replace_document(doc_id, records)
        for internal in written:
            self._stamp(shard, internal)
        if shard.generation != before:
            self._generation += 1
        return written

    def delete_document(self, doc_id: str) -> int:
        """Tombstone every chunk of *doc_id* on its shard."""
        removed = self._shards[self._planner.assign(doc_id)].delete_document(doc_id)
        if removed:
            self._generation += 1
        return removed

    def vacuum(self, max_tombstone_ratio: float = VACUUM_TOMBSTONE_RATIO) -> bool:
        """Vacuum every shard past the threshold, exactly like a single
        index; True when any shard rebuilt its graphs."""
        rebuilt = False
        for shard in self._shards.values():
            rebuilt = shard.vacuum(max_tombstone_ratio) or rebuilt
        if rebuilt:
            self._generation += 1
        return rebuilt

    def flush(self) -> None:
        """Seal every shard's write buffer."""
        for shard in self._shards.values():
            shard.flush()

    def run_maintenance(
        self, now: float, ctx: RequestContext = NULL_CONTEXT
    ) -> dict[str, int]:
        """Run segment maintenance on every shard; merged op counts.

        Content-preserving: the cluster :attr:`generation` is deliberately
        not bumped, so cached answers and legs survive background merges.
        """
        totals: dict[str, int] = {}
        for shard in self._shards.values():
            for op, count in shard.run_maintenance(now, ctx=ctx).items():
                totals[op] = totals.get(op, 0) + count
        if self.recorder is not None and any(totals.values()):
            self.recorder.record("segment_merge", "index", ops=dict(totals))
        return totals

    # -- global ordering ---------------------------------------------------

    def _stamp(self, shard: SearchIndex, internal: int) -> None:
        """Give the chunk just written at *internal* the next ordinal."""
        shard.set_ordinal(internal, self._next_ordinal)
        self._next_ordinal += 1

    def ordinal(self, chunk_id: str) -> int:
        """Global insertion ordinal of live chunk *chunk_id*, read from the
        shard holding it (unknown chunks sort last)."""
        for shard in self._shards.values():
            ordinal = shard.ordinal(chunk_id)
            if ordinal is not None:
                return ordinal
        return NO_ORDINAL

    def live_ordinals(self) -> dict[str, int]:
        """``chunk_id -> ordinal`` for every live chunk (persistence)."""
        live: dict[str, int] = {}
        for shard in self._shards.values():
            for internal in shard.live_internals():
                chunk_id = shard.record(internal).chunk_id
                live[chunk_id] = shard.ordinal(chunk_id)
        return live

    @property
    def next_ordinal(self) -> int:
        """The ordinal the next added chunk will receive."""
        return self._next_ordinal

    def restore_ordinals(self, ordinals: dict[str, int], next_ordinal: int) -> None:
        """Give every live chunk its ordinal in *ordinals* (the persistence
        load path); a chunk it does not name sorts last."""
        if ordinals and next_ordinal <= max(ordinals.values()):
            raise ValueError("next_ordinal must exceed every restored ordinal")
        self._next_ordinal = next_ordinal
        for shard in self._shards.values():
            for internal in shard.live_internals():
                chunk_id = shard.record(internal).chunk_id
                shard.set_ordinal(internal, ordinals.get(chunk_id, NO_ORDINAL))
