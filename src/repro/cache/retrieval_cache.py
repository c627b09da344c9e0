"""Per-shard retrieval-result cache with generation-based invalidation.

The cluster router fans every query out to all shards; in steady state the
same handful of questions keeps hitting the same shards, and each leg
re-runs BM25 plus per-field ANN from scratch.  :class:`ShardRetrievalCache`
memoizes the **leg results** (text ranking + per-field vector rankings) per
shard, keyed on the raw query and the leg-shaping retrieval parameters.

Invalidation is generational: every :class:`~repro.search.index.SearchIndex`
carries a monotonically increasing write ``generation`` (bumped by any
upsert, delete or vacuum — the path every write through
``pipeline.indexing`` takes), and a cached leg is stamped with the shard's
generation at compute time.  A lookup whose stamp no longer matches the
shard's current generation is dropped on the spot, so a document write
deterministically invalidates exactly the shards it touched while the
other shards keep serving from cache.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.search.results import RetrievedChunk

#: Maximum cached retrievals **per shard** (LRU beyond).
RETRIEVAL_CAPACITY = 2048


@dataclass(frozen=True)
class CachedLegs:
    """The memoized scatter-leg results of one query on one shard.

    ``generation`` is an opaque invalidation stamp compared with ``!=``: an
    index-wide write counter (text legs, which depend on global BM25
    statistics) or a per-segment epoch tuple from
    :meth:`~repro.search.index.SearchIndex.segment_stamp` (vector legs,
    which depend only on the shard's own segments).
    """

    text: tuple[RetrievedChunk, ...]
    vector: tuple[tuple[str, tuple[RetrievedChunk, ...]], ...]
    generation: int | tuple


@dataclass
class RetrievalCacheStats:
    """Lifetime counters of one :class:`ShardRetrievalCache`."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0


class ShardRetrievalCache:
    """One bounded LRU of :class:`CachedLegs` per shard.

    Each shard keeps at most ``RETRIEVAL_CAPACITY`` entries.

    Args:
        registry: metrics registry for the
            ``uniask_retrieval_cache_events_total`` counter.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._shards: dict[int, OrderedDict[tuple, CachedLegs]] = {}
        self.stats = RetrievalCacheStats()
        registry = registry or NULL_REGISTRY
        self._m_events = registry.counter(
            "uniask_retrieval_cache_events_total",
            "Per-shard retrieval-cache lifecycle events, by kind.",
            ("event",),
        )

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._shards.values())

    def get(self, shard_id: int, key: tuple, generation: int | tuple) -> CachedLegs | None:
        """The cached legs of *key* on *shard_id*, if still current.

        A stamp mismatch (the shard was written since) drops the entry and
        counts an invalidation; the caller recomputes and re-stores.
        """
        entries = self._shards.get(shard_id)
        if entries is None:
            self.stats.misses += 1
            self._m_events.labels("miss").inc()
            return None
        cached = entries.get(key)
        if cached is None:
            self.stats.misses += 1
            self._m_events.labels("miss").inc()
            return None
        if cached.generation != generation:
            del entries[key]
            self.stats.invalidations += 1
            self._m_events.labels("invalidate").inc()
            self.stats.misses += 1
            self._m_events.labels("miss").inc()
            return None
        entries.move_to_end(key)
        self.stats.hits += 1
        self._m_events.labels("hit").inc()
        return cached

    def put(
        self,
        shard_id: int,
        key: tuple,
        generation: int | tuple,
        text: list[RetrievedChunk],
        vector: dict[str, list[RetrievedChunk]],
    ) -> None:
        """Memoize one shard's leg results at the shard's *generation*."""
        entries = self._shards.setdefault(shard_id, OrderedDict())
        if key in entries:
            del entries[key]
        entries[key] = CachedLegs(
            text=tuple(text),
            vector=tuple((name, tuple(legs)) for name, legs in vector.items()),
            generation=generation,
        )
        while len(entries) > RETRIEVAL_CAPACITY:
            entries.popitem(last=False)
            self.stats.evictions += 1
            self._m_events.labels("evict").inc()
