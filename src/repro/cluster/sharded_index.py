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
  insertion order of its internal ids.  A document never leaves the shard
  the planner put it on, so each shard's internal ids run in the order its
  chunks were written, and a leg cut on the shard's own internal id falls
  where the single index would put it.  Across shards the facade assigns
  every chunk a monotonically increasing *ordinal* at ``add_chunk`` time —
  a chunk that ``replace_document`` leaves alone keeps its ordinal as it
  keeps its internal id, a chunk it rewrites gets a fresh one.  Each
  shard's ordinals are an int64 array indexed by internal id
  (:attr:`ShardedSearchIndex.shard_ordinals`), so the router merges
  per-shard rankings with ``(-score, ordinal)`` by one gather per leg.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.cluster.planner import ShardPlanner
from repro.embeddings.model import EmbeddingModel
from repro.obs.trace import NULL_CONTEXT, RequestContext
from repro.search.index import VACUUM_TOMBSTONE_RATIO, SearchIndex
from repro.search.inverted import InvertedIndex
from repro.search.schema import ChunkRecord, IndexSchema, uniask_schema
from repro.text.analyzer import ItalianAnalyzer


class _GlobalStatsInverted:
    """One shard's postings scored against cluster-wide BM25 statistics.

    Postings arrays and query analysis are local to the shard;
    ``len()``, ``document_frequencies`` and ``average_length`` aggregate over
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

    def document_frequencies(self, terms: list[str]) -> list[int]:
        per_shard = [index.document_frequencies(terms) for index in self._field_indexes()]
        return [sum(dfs) for dfs in zip(*per_shard)]

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
        / ``document_frequencies`` / ``average_length`` from this wrapper,
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
        self.record = self._shard.record  # a shard leg's heads resolve on the shard
        self.live_mask = self._shard.live_mask
        self.matches_filters = self._shard.matches_filters

    def inverted_index(self, field_name: str) -> _GlobalStatsInverted:
        return _GlobalStatsInverted(
            self._cluster, field_name, self._shard.inverted_index(field_name)
        )


class ShardedSearchIndex:
    """N per-shard :class:`SearchIndex` instances behind one write surface.

    Args:
        embedder: embedding model shared by every shard.
        schema: field definitions; defaults to the UniAsk production schema.
        num_shards: shards to create (ignored when *shard_indexes* is given).
        shard_indexes: pre-built ``shard_id -> SearchIndex`` map keyed
            ``0..n-1`` (the load path).
        Remaining arguments mirror :class:`SearchIndex` and are applied to
        every shard this builds.
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
        shard_indexes: dict[int, SearchIndex] | None = None,
        registry=None,
    ) -> None:
        self.schema = schema or uniask_schema()
        self.embedder = embedder
        if shard_indexes is None:
            shard_indexes = {
                shard_id: SearchIndex(
                    embedder,
                    schema=self.schema,
                    ann_backend=ann_backend,
                    hnsw_m=hnsw_m,
                    hnsw_ef_construction=hnsw_ef_construction,
                    hnsw_ef_search=hnsw_ef_search,
                    seed=seed,
                    analyzer=analyzer,
                    registry=registry,
                )
                for shard_id in range(num_shards)
            }
        self._planner = ShardPlanner(len(shard_indexes))
        if set(shard_indexes) != set(self._planner.shard_ids):
            raise ValueError("shard_indexes must be keyed 0..n-1")
        self._shards = dict(shard_indexes)

        #: ``shard_id -> global insertion ordinals`` by the shard's internal
        #: id (an entry is meaningful while its chunk is live).
        self.shard_ordinals = {shard_id: np.zeros(0, dtype=np.int64) for shard_id in self._shards}
        self._next_ordinal = 0
        self._generation = 0

    # -- topology ----------------------------------------------------------

    @property
    def planner(self) -> ShardPlanner:
        """The document-placement ring."""
        return self._planner

    @property
    def generation(self) -> int:
        """Monotonic cluster-wide write counter (the answer-cache epoch).

        The facade's own counter rather than a sum of the per-shard
        generations, so :meth:`bump_generation` can flip it without
        touching a shard.
        """
        return self._generation

    @property
    def shard_ids(self) -> tuple[int, ...]:
        """All shard ids, ascending."""
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
        shard_id = self._planner.assign(record.doc_id)
        internal = self._shards[shard_id].add_chunk(record, vectors=vectors)
        self._stamp(shard_id, internal)
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
        shard_id = self._planner.assign(doc_id)
        shard = self._shards[shard_id]
        before = shard.generation
        written = shard.replace_document(doc_id, records)
        for internal in written:
            self._stamp(shard_id, internal)
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

    def _stamp(self, shard_id: int, internal: int) -> None:
        """Give *shard_id*'s chunk just written as *internal* the next ordinal."""
        ordinals = self.shard_ordinals[shard_id]
        if internal >= ordinals.size:
            grown = np.concatenate([ordinals, np.zeros(internal + 1, dtype=np.int64)])
            ordinals = self.shard_ordinals[shard_id] = grown
        ordinals[internal] = self._next_ordinal
        self._next_ordinal += 1

    def ordinal(self, chunk_id: str) -> int:
        """Global insertion ordinal of live chunk *chunk_id* (by a scan)."""
        return self.live_ordinals()[chunk_id]

    def live_ordinals(self) -> dict[str, int]:
        """``chunk_id -> ordinal`` for every live chunk, in ordinal order."""
        pairs = sorted(
            (int(self.shard_ordinals[shard_id][i]), shard.record(i).chunk_id)
            for shard_id, shard in self._shards.items() for i in shard.live_internals()
        )
        return {chunk_id: ordinal for ordinal, chunk_id in pairs}

    @property
    def next_ordinal(self) -> int:
        """The ordinal the next added chunk will receive."""
        return self._next_ordinal

    def restore_ordinals(self, ordinals: dict[str, int], next_ordinal: int) -> None:
        """Adopt *ordinals*, which name every live chunk, and *next_ordinal*
        (the persistence load path, which checks them first)."""
        for shard_id, shard in self._shards.items():
            internals = shard.live_internals()
            restored = self.shard_ordinals[shard_id] = np.zeros(len(shard.live_mask()), np.int64)
            restored[internals] = [ordinals[shard.record(i).chunk_id] for i in internals]
        self._next_ordinal = next_ordinal
