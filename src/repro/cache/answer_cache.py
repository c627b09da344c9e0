"""The answer cache: exact tier plus semantic near-hit tier.

The exact tier maps an analyzer-normalized question (plus filters) to the
:class:`~repro.core.answer.AnswerContent` the pipeline produced for it —
that very object, never a copy: every hit hands it out by reference, and
each request wraps it in an envelope of its own.  Entries are stamped
with the **index epoch** at computation time and the **store time** on
the deployment's simulated clock; a lookup serves an entry only while the
epoch still matches (no corpus write since) and the TTL has not elapsed.
Capacity is bounded by LRU eviction.

The semantic tier rides on the same store: every entry optionally keeps
the unit-norm embedding of the question it answered, and a lookup that
misses the exact tier may reuse the entry whose embedding is most similar
to the incoming query — provided the cosine similarity meets
``SEMANTIC_THRESHOLD``.  Embeddings are unit vectors (see
:mod:`repro.embeddings.model`), so cosine similarity is a dot product.

Everything is deterministic: no wall clock, no RNG; ties in the semantic
scan break on insertion order.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.cache.key import CacheKey, answer_cache_key
from repro.core.answer import AnswerContent
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.work import (
    WORK_CACHE_EXACT_HITS,
    WORK_CACHE_EXACT_MISSES,
    WORK_CACHE_SEMANTIC_HITS,
    WORK_CACHE_SEMANTIC_MISSES,
)
from repro.pipeline.clock import SimulatedClock
from repro.text.analyzer import FULL_ANALYZER

#: Maximum entries (LRU beyond).
ANSWER_CAPACITY = 1024
#: Entry lifetime on the pipeline clock (None disables expiry).
ANSWER_TTL_SECONDS: float | None = 3600.0
#: Minimum cosine similarity for a semantic hit.
SEMANTIC_THRESHOLD = 0.97

#: ``cache_hit`` marker of an answer served from the exact tier.
HIT_EXACT = "exact"

#: ``cache_hit`` marker of an answer reused via embedding similarity.
HIT_SEMANTIC = "semantic"

#: ``cache_hit`` marker of an answer shared by a coalesced in-flight request.
HIT_COALESCED = "coalesced"


@dataclass(frozen=True)
class CacheHit:
    """One successful answer-cache lookup: the stored content itself."""

    content: AnswerContent
    kind: str  # HIT_EXACT or HIT_SEMANTIC
    similarity: float


@dataclass
class AnswerCacheStats:
    """Lifetime counters of one :class:`AnswerCache`."""

    hits_exact: int = 0
    hits_semantic: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0

    @property
    def hits(self) -> int:
        """Exact plus semantic hits."""
        return self.hits_exact + self.hits_semantic


@dataclass
class _Entry:
    """One cached answer's content with its validity stamps."""

    content: AnswerContent
    epoch: int
    stored_at: float
    embedding: np.ndarray | None = None
    filters: tuple = field(default_factory=tuple)


class AnswerCache:
    """LRU + TTL answer cache with an optional semantic near-hit tier.

    Bounded by ``ANSWER_CAPACITY`` entries and ``ANSWER_TTL_SECONDS``;
    a semantic hit needs ``SEMANTIC_THRESHOLD`` cosine similarity.

    Args:
        clock: the deployment's simulated clock; TTLs are evaluated
            against it, so expiry is deterministic and replayable.
        analyzer: normalization authority for the exact-tier key
            (defaults to the production Italian chain).
        registry: metrics registry for the
            ``uniask_answer_cache_events_total`` counter.
    """

    def __init__(
        self,
        clock: SimulatedClock | None = None,
        analyzer=None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._clock = clock if clock is not None else SimulatedClock()
        self._analyzer = analyzer if analyzer is not None else FULL_ANALYZER
        self._entries: OrderedDict[CacheKey, _Entry] = OrderedDict()
        self.stats = AnswerCacheStats()
        registry = registry or NULL_REGISTRY
        self._m_events = registry.counter(
            "uniask_answer_cache_events_total",
            "Answer-cache lifecycle events, by kind.",
            ("event",),
        )

    def __len__(self) -> int:
        return len(self._entries)

    def key(self, question: str, filters: Mapping[str, str] | None = None) -> CacheKey:
        """The exact-tier key of *question* under *filters*."""
        return answer_cache_key(question, filters, self._analyzer)

    # -- lookup --------------------------------------------------------------

    def lookup(
        self,
        key: CacheKey,
        epoch: int,
        embed_fn: Callable[[], np.ndarray] | None = None,
        work=None,
    ) -> CacheHit | None:
        """Serve *key* at *epoch*, trying exact first, then semantic.

        *embed_fn* lazily supplies the incoming question's unit-norm
        embedding; it is called at most once, and only when the store
        holds candidate entries (None skips the semantic tier).  Returns
        None on a miss (counted once, whichever tiers were tried).

        *work* optionally books one ``cache_exact_hits``/``…_misses``
        unit for the exact consult and one ``cache_semantic_hits``/
        ``…_misses`` unit when the semantic tier was actually tried.
        """
        now = self._clock.now()
        entry = self._entries.get(key)
        if entry is not None and not self._valid(key, entry, epoch, now):
            entry = None
        if entry is not None:
            if work is not None:
                work.add(WORK_CACHE_EXACT_HITS)
            self._entries.move_to_end(key)
            self.stats.hits_exact += 1
            self._m_events.labels("hit_exact").inc()
            return CacheHit(entry.content, HIT_EXACT, 1.0)
        if work is not None:
            work.add(WORK_CACHE_EXACT_MISSES)

        if embed_fn is not None:
            hit = self._semantic_lookup(key, epoch, now, embed_fn)
            if work is not None:
                work.add(
                    WORK_CACHE_SEMANTIC_HITS if hit is not None else WORK_CACHE_SEMANTIC_MISSES
                )
            if hit is not None:
                self.stats.hits_semantic += 1
                self._m_events.labels("hit_semantic").inc()
                return hit

        self.stats.misses += 1
        self._m_events.labels("miss").inc()
        return None

    def _semantic_lookup(
        self,
        key: CacheKey,
        epoch: int,
        now: float,
        embed_fn: Callable[[], np.ndarray],
    ) -> CacheHit | None:
        """Best cosine match among valid entries under the same filters."""
        _, filters = key
        candidates = [
            (entry_key, entry)
            for entry_key, entry in self._entries.items()
            if entry.filters == filters and entry.embedding is not None
        ]
        if not candidates:
            return None
        query_vector = embed_fn()
        best_key: CacheKey | None = None
        best: _Entry | None = None
        best_similarity = -1.0
        stale: list[CacheKey] = []
        for entry_key, entry in candidates:
            if not self._check(entry, epoch, now):
                stale.append(entry_key)
                continue
            similarity = float(np.dot(query_vector, entry.embedding))
            if similarity > best_similarity:
                best_key, best, best_similarity = entry_key, entry, similarity
        for entry_key in stale:
            self._drop_stale(entry_key, epoch, now)
        if best is None or best_similarity < SEMANTIC_THRESHOLD:
            return None
        self._entries.move_to_end(best_key)
        return CacheHit(best.content, HIT_SEMANTIC, best_similarity)

    # -- store ---------------------------------------------------------------

    def store(
        self,
        key: CacheKey,
        content: AnswerContent,
        epoch: int,
        embedding: np.ndarray | None = None,
    ) -> None:
        """Cache *content* under *key*, stamped with *epoch* and the clock.

        The object itself is kept and every later hit returns it: content
        carries nothing of the request that computed it (trace, response
        time and hit markers live on that request's envelope), so there is
        nothing to strip, and being frozen it is safe to share.
        """
        if key in self._entries:
            del self._entries[key]  # refresh re-inserts at the LRU tail
        self._entries[key] = _Entry(
            content=content,
            epoch=epoch,
            stored_at=self._clock.now(),
            embedding=embedding,
            filters=key[1],
        )
        self.stats.stores += 1
        self._m_events.labels("store").inc()
        while len(self._entries) > ANSWER_CAPACITY:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._m_events.labels("evict").inc()

    # -- validity ------------------------------------------------------------

    def _check(self, entry: _Entry, epoch: int, now: float) -> bool:
        """True while *entry* is servable at *epoch* / *now*."""
        if entry.epoch != epoch:
            return False
        ttl = ANSWER_TTL_SECONDS
        if ttl is not None and now - entry.stored_at >= ttl:
            return False
        return True

    def _valid(self, key: CacheKey, entry: _Entry, epoch: int, now: float) -> bool:
        """Like :meth:`_check`, dropping (and counting) a stale entry."""
        if self._check(entry, epoch, now):
            return True
        self._drop_stale(key, epoch, now)
        return False

    def _drop_stale(self, key: CacheKey, epoch: int, now: float) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        if entry.epoch != epoch:
            self.stats.invalidations += 1
            self._m_events.labels("invalidate").inc()
        else:
            self.stats.expirations += 1
            self._m_events.labels("expire").inc()
