"""Scatter-gather query router over a :class:`ShardedSearchIndex`.

:class:`ClusterSearcher` is the clustered counterpart of
:class:`~repro.search.hybrid.HybridSemanticSearch`: one call fans the
full-text and vector legs of a hybrid query out to every shard, merges the
per-shard rankings, fuses them with the same RRF, and applies the semantic
reranker **once** on the merged candidate set — so with exact ANN and a
cluster built by insertion, the final ranking is identical to what one
big index would return (see :mod:`repro.cluster.sharded_index` for why).

Each shard is served by a replica group with simulated, deterministic
latency.  The router enforces a per-shard deadline, skips dead and
marked-down replicas (fail-fast), sends a hedged retry to a sibling when
the primary is slow, and — when a whole shard still misses the deadline —
degrades to *partial results* instead of failing the query: the surviving
shards' candidates are fused and returned, and the outcome is surfaced on
the answer and in monitoring.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cache.key import retrieval_cache_key
from repro.cache.retrieval_cache import ShardRetrievalCache
from repro.cluster.config import ClusterConfig
from repro.cluster.replica import Replica, ReplicaGroup
from repro.cluster.sharded_index import ShardedSearchIndex
from repro.obs import spans
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import NULL_CONTEXT, RequestContext
from repro.obs.work import (
    WORK_RETRIEVAL_CACHE_HITS,
    WORK_RETRIEVAL_CACHE_MISSES,
    WORK_SCATTER_LEGS,
)
from repro.pipeline.clock import SimulatedClock
from repro.search.fulltext import FullTextSearch, ScoringProfile, TextPlan
from repro.search.hybrid import HybridSearchConfig, fuse_and_rerank
from repro.search.reranker import SemanticReranker
from repro.search.results import Heads, RetrievedChunk
from repro.search.schema import ChunkRecord
from repro.search.vector import VectorSearch

#: Simulated seconds a shard may take before the router gives up on it and
#: degrades to partial results.
SHARD_DEADLINE = 0.03
#: Simulated seconds after which a hedged retry goes to a sibling replica:
#: half the deadline, the classic tail-at-scale rule of thumb.
HEDGE_LATENCY = 0.5 * SHARD_DEADLINE


def _ranked(
    legs: list[tuple[int, Heads]], limit: int, router: ClusterSearcher, explain: bool
) -> Heads:
    """The top *limit* of the shard legs' heads — ``(shard position, heads)``
    in shard order — as cluster keys, by ``(-score, ordinal)``: only a tied
    score has its ordinal looked up, and full ties keep shard order.  With
    *explain*, a key's components are its leg's, tagged with its shard."""
    shard_ids = router.index.shard_ids
    if not legs:
        return Heads(np.zeros(0, dtype=np.int64), np.zeros(0), router, ())
    ids = np.concatenate([heads.ids * len(shard_ids) + position for position, heads in legs])
    scores = np.concatenate([heads.scores for _, heads in legs])
    order = np.argsort(-scores, kind="stable")
    equal = scores[order][1:] == scores[order][:-1]
    tied = np.append(equal, False) | np.insert(equal, 0, False)
    if tied.any():
        ordinals = np.zeros(len(ids), dtype=np.int64)
        for entry in order[tied].tolist():
            ordinals[entry] = router.index.ordinal(router.record(int(ids[entry])).chunk_id)
        order = np.lexsort((ordinals, -scores))
    order = order[:limit]
    by_position = dict(legs)

    def provenance(keys: list[int]) -> dict[int, dict[str, float]]:
        asked: dict[int, list[int]] = {}
        for key in keys:
            asked.setdefault(key % len(shard_ids), []).append(key)
        components: dict[int, dict[str, float]] = {}
        for position, group in asked.items():
            internals = [key // len(shard_ids) for key in group]
            inner = by_position[position].explain(internals)
            for key, internal in zip(group, internals):
                components[key] = {**inner[internal], "shard": float(shard_ids[position])}
        return components

    return Heads(ids[order], scores[order], router, explain=provenance if explain else None)


@dataclass(frozen=True)
class ShardProbe:
    """The outcome of querying one shard for one request.

    Attributes:
        shard_id: the shard probed.
        replica_id: the replica that served the request ("" on failure).
        latency: simulated seconds until the shard answered (the deadline
            when it did not).
        ok: True when the shard answered within its deadline.
        hedged: True when a hedged retry fired.
        attempts: replicas contacted (0 when none were available).
        timed_out: True when the deadline was missed.
    """

    shard_id: int
    replica_id: str
    latency: float
    ok: bool
    hedged: bool = False
    attempts: int = 1
    timed_out: bool = False

    @property
    def resource(self) -> str:
        """The capacity resource this probe loaded: its replica, else its shard."""
        return f"replica_{self.replica_id}" if self.replica_id else f"shard_{self.shard_id}"

    def audit_row(self) -> dict:
        """The probe as the audit log records it."""
        return {
            "shard": self.shard_id,
            "replica": self.replica_id,
            "latency": self.latency,
            "ok": self.ok,
            "hedged": self.hedged,
        }


@dataclass(frozen=True)
class ScatterReport:
    """Per-shard probe outcomes of one scatter-gather query."""

    probes: tuple[ShardProbe, ...]

    @property
    def partial(self) -> bool:
        """True when at least one shard missed its deadline."""
        return any(not probe.ok for probe in self.probes)

    @property
    def failed_shards(self) -> tuple[int, ...]:
        """Ids of the shards that contributed no results."""
        return tuple(probe.shard_id for probe in self.probes if not probe.ok)

    @property
    def hedged(self) -> bool:
        """True when any shard needed a hedged retry."""
        return any(probe.hedged for probe in self.probes)

    @property
    def max_latency(self) -> float:
        """The gather barrier: the slowest successful shard (0.0 if none)."""
        latencies = [probe.latency for probe in self.probes if probe.ok]
        return max(latencies) if latencies else 0.0


@dataclass(frozen=True)
class ReplicaStatus:
    """Point-in-time health of one replica."""

    replica_id: str
    alive: bool
    slow_factor: float
    marked_down: bool
    served: int
    timeouts: int
    hedges: int


@dataclass(frozen=True)
class ShardStatus:
    """Point-in-time view of one shard and its replica group."""

    shard_id: int
    documents: int
    chunks: int
    replicas: tuple[ReplicaStatus, ...]

    @property
    def available(self) -> bool:
        """True when at least one replica can serve."""
        return any(replica.alive and not replica.marked_down for replica in self.replicas)


@dataclass(frozen=True)
class ClusterStatus:
    """Point-in-time view of the whole serving cluster."""

    shards: tuple[ShardStatus, ...]

    @property
    def degraded(self) -> bool:
        """True when some shard has no serving replica."""
        return any(not shard.available for shard in self.shards)


def format_cluster_status(status: ClusterStatus) -> str:
    """Render a cluster status as the ``--cluster-status`` CLI table."""
    lines = [f"{'shard':<8} {'docs':>6} {'chunks':>7}  replicas"]
    lines.append("-" * len(lines[0]))
    for shard in status.shards:
        states = []
        for replica in shard.replicas:
            if not replica.alive:
                state = "dead"
            elif replica.marked_down:
                state = "down"
            elif replica.slow_factor > 1.0:
                state = f"slow(x{replica.slow_factor:g})"
            else:
                state = "up"
            states.append(
                f"{replica.replica_id}={state}"
                f" served={replica.served} timeouts={replica.timeouts} hedges={replica.hedges}"
            )
        lines.append(f"{shard.shard_id:<8} {shard.documents:>6} {shard.chunks:>7}  {'; '.join(states)}")
    health = "DEGRADED" if status.degraded else "healthy"
    lines.append(f"cluster: {len(status.shards)} shards, {health}")
    return "\n".join(lines)


class ClusterSearcher:
    """Hybrid search scattered over every shard of a cluster.

    Implements the searcher contract of :class:`HybridSemanticSearch` at
    the engine boundary — ``search`` / ``search_degraded`` with the same
    :class:`HybridSearchConfig` semantics, ``index``, ``config``,
    :meth:`take_scatter_report`, :meth:`status` — by composition.

    Args:
        index: the sharded corpus.
        reranker: applied once to the merged candidate set (required
            unless ``config.use_reranker`` is False).
        config: retrieval parameters (paper defaults).
        cluster_config: serving parameters (deadlines, replicas, hedging).
        clock: the deployment's simulated clock; replica health windows
            (mark-down cooldowns) are evaluated against it.
        profile: scoring profile forwarded to each shard's text leg.
        cache: enables the per-shard retrieval-result cache (off leaves
            the scatter path untouched).
        recorder: optional incident flight recorder; replica-liveness and
            cache-generation *changes* the router observes (kills, heals,
            epoch flips — including faults injected behind its back) land
            on it as control-plane events.
    """

    def __init__(
        self,
        index: ShardedSearchIndex,
        reranker: SemanticReranker | None = None,
        config: HybridSearchConfig | None = None,
        cluster_config: ClusterConfig | None = None,
        clock: SimulatedClock | None = None,
        profile: ScoringProfile | None = None,
        registry: MetricsRegistry | None = None,
        cache: bool = False,
        recorder=None,
    ) -> None:
        self.config = config or HybridSearchConfig()
        if self.config.use_reranker and reranker is None:
            raise ValueError("a reranker is required unless use_reranker=False")
        self.cluster_config = cluster_config or ClusterConfig()
        #: The underlying sharded index.
        self.index = index
        self._reranker = reranker
        self._clock = clock if clock is not None else SimulatedClock()
        registry = registry or NULL_REGISTRY
        self._m_probes = registry.counter(
            "uniask_shard_probes_total",
            "Shard probes of scatter-gather queries, by shard and outcome.",
            ("shard", "outcome"),
        )
        self._m_hedges = registry.counter(
            "uniask_hedged_probes_total", "Shard probes that fired a hedged retry."
        )
        self._m_partial = registry.counter(
            "uniask_partial_scatters_total",
            "Queries degraded to partial results (some shard missed its deadline).",
        )
        self._groups: dict[int, ReplicaGroup] = {}
        self._fulltext: dict[int, FullTextSearch] = {}
        self._vector: dict[int, VectorSearch] = {}
        for shard_id in index.shard_ids:
            self._groups[shard_id] = ReplicaGroup.build(shard_id, self.cluster_config)
            self._fulltext[shard_id] = FullTextSearch(index.search_view(shard_id), profile=profile)
            self._vector[shard_id] = VectorSearch(index.shard_index(shard_id))
        self._query_counter = 0
        self._last_report: ScatterReport | None = None
        self.retrieval_cache: ShardRetrievalCache | None = None
        if cache:
            self.retrieval_cache = ShardRetrievalCache(registry=registry)
        self.recorder = recorder
        # Liveness/generation baselines seed lazily at the first
        # observation, not here: initial ingestion (which legitimately
        # bumps the generation) runs after construction, and recording it
        # as an epoch flip would charge every deployment a phantom
        # control-plane event at startup.
        self._last_alive: dict[str, bool] = {}
        self._last_generation: int | None = None

    # -- control state -----------------------------------------------------

    def _observe_control_state(self) -> None:
        """Diff replica liveness and cache generation onto the recorder.

        The chaos tooling kills replicas and flips epochs *behind* the
        router (direct ``Replica.kill()`` / ``bump_generation()`` calls),
        so the only reliable observation point is a state diff at the
        router's own touch points.  First sight of a key seeds the
        baseline silently.  No-op without a recorder.
        """
        if self.recorder is None:
            return
        current: dict[str, bool] = {}
        for shard_id in self.index.shard_ids:
            for replica in self._groups[shard_id].replicas:
                key = f"s{shard_id}/{replica.replica_id}"
                current[key] = replica.alive
                previous = self._last_alive.get(key)
                if previous is not None and previous != replica.alive:
                    self.recorder.record(
                        "replica_kill" if previous else "replica_heal",
                        "router",
                        shard_id=shard_id,
                        replica_id=replica.replica_id,
                    )
        self._last_alive = current
        generation = self.index.generation
        if self._last_generation is not None and generation != self._last_generation:
            self.recorder.record("cache_epoch_flip", "router", generation=generation)
        self._last_generation = generation

    def record(self, key: int) -> ChunkRecord:
        """The record of a cluster key, ``internal × shards + shard position``."""
        internal, position = divmod(key, len(self.index.shard_ids))
        return self.index.shard_index(self.index.shard_ids[position]).record(internal)

    def replicas(self, shard_id: int) -> list[Replica]:
        """The replica group of *shard_id* (fault injection entry point)."""
        return list(self._groups[shard_id].replicas)

    # -- serving -----------------------------------------------------------

    def search(
        self,
        query: str,
        filters: dict[str, str] | None = None,
        ctx: RequestContext = NULL_CONTEXT,
    ) -> list[RetrievedChunk]:
        """Scatter *query* to every shard, gather, fuse and rerank.

        Shards that miss their deadline are dropped from the merge; call
        :meth:`take_scatter_report` afterwards to learn whether (and
        where) the result is partial.
        """
        rankings, report = self._scatter(query, filters, ctx)
        results = fuse_and_rerank(query, rankings, self.config, self._reranker, ctx).fetch()
        self._last_report = report
        return results

    def search_degraded(
        self,
        query: str,
        filters: dict[str, str] | None = None,
        ctx: RequestContext = NULL_CONTEXT,
    ) -> list[RetrievedChunk]:
        """BM25-only scatter: the router's text legs alone.

        The same scatter loop as :meth:`search` (replica health, hedging,
        partial degradation and work accounting all apply) gathering only
        the full-text legs — no query embedding, no vector legs, no
        reranker, no retrieval-cache consult.
        """
        rankings, report = self._scatter(query, filters, ctx, degraded=True)
        self._last_report = report
        return rankings["text"].head(self.config.final_n).fetch()

    def _scatter(
        self,
        query: str,
        filters: dict[str, str] | None,
        ctx: RequestContext,
        degraded: bool = False,
    ) -> tuple[dict[str, Heads], ScatterReport]:
        """The one scatter loop: probe → legs → span annotation → report →
        metrics → gather barrier → merge.

        *degraded* runs it as a text-only scatter whatever the configured
        mode, with the retrieval cache off.  The shard legs run under a
        traceless context: in a real deployment they execute remotely and
        in parallel, so their latency is the replica's simulated service
        time (charged at the gather barrier), not a serial sum of local
        stage costs.  The leg context still carries the request's explain
        flag (per-term BM25 breakdowns) and work counters (kernel-level
        counts attribute to the request).  Returns the merged rankings and
        the report, which the callers publish once their ranking is done.
        An unknown filter field raises before any replica is probed.
        """
        self.index.schema.check_filters(filters)
        self._observe_control_state()
        config = self.config
        mode = "text" if degraded else config.mode
        turn = self._query_counter
        self._query_counter += 1

        query_vector = None
        if mode in ("hybrid", "vector"):
            with ctx.trace.span(spans.STAGE_EMBED_QUERY, query_chars=len(query)):
                query_vector = self.index.embedder.embed(query)

        text_legs: list[tuple[int, Heads]] = []
        vector_legs: dict[str, list[tuple[int, Heads]]] = {
            name: [] for name in self.index.schema.vector_fields
        }
        cache_key = None
        if self.retrieval_cache is not None and not ctx.explain and not degraded:
            # Explain requests bypass the retrieval cache: cached legs carry
            # no provenance, and provenance must describe *this* scatter.
            cache_key = retrieval_cache_key(query, filters, mode, config.text_n, config.vector_k)
        work = ctx.work
        leg_ctx = NULL_CONTEXT
        if ctx.explain or work is not None:
            leg_ctx = RequestContext(explain=ctx.explain, work=work)
        # The text legs' analyzed terms and global statistics: taken at most
        # once per request, by the first leg that has to score.
        plan = functools.cache(lambda: self._fulltext[self.index.shard_ids[0]].plan(query))
        probes: list[ShardProbe] = []
        now = self._clock.now()
        scatter_attrs = {"degraded": True} if degraded else {}
        with ctx.trace.span(
            spans.STAGE_SCATTER, shards=self.index.num_shards, **scatter_attrs
        ) as scatter:
            for position, shard_id in enumerate(self.index.shard_ids):
                probe = self._probe_shard(shard_id, query, turn, now)
                probes.append(probe)
                with ctx.span(spans.shard_stage(shard_id)) as span:
                    gathered = 0
                    served_from_cache = False
                    if probe.ok:
                        if work is not None:
                            work.add(WORK_SCATTER_LEGS)
                        leg_text, leg_vector, served_from_cache = self._shard_legs(
                            shard_id, cache_key, query, query_vector, filters, leg_ctx, mode, plan
                        )
                        if leg_text is not None:
                            text_legs.append((position, leg_text))
                            gathered += len(leg_text)
                        for field_name, leg in leg_vector:
                            vector_legs[field_name].append((position, leg))
                            gathered += len(leg)
                    span.annotate(
                        replica=probe.replica_id,
                        ok=probe.ok,
                        hedged=probe.hedged,
                        attempts=probe.attempts,
                        latency_ms=round(probe.latency * 1000.0, 3),
                        results=gathered,
                    )
                    if served_from_cache:
                        span.set("cached", True)
            scatter.set("failed", sum(1 for probe in probes if not probe.ok))
        report = ScatterReport(probes=tuple(probes))
        for probe in probes:
            self._m_probes.labels(str(probe.shard_id), "ok" if probe.ok else "timeout").inc()
            if probe.hedged:
                self._m_hedges.inc()
        if report.partial:
            self._m_partial.inc()
        with ctx.trace.span(spans.STAGE_SCATTER_WAIT, wait=report.max_latency):
            pass
        rankings: dict[str, Heads] = {}
        if mode in ("hybrid", "text"):
            rankings["text"] = _ranked(text_legs, config.text_n, self, ctx.explain)
        if mode in ("hybrid", "vector"):
            for name, legs in vector_legs.items():
                rankings[f"vector_{name}"] = _ranked(legs, config.vector_k, self, ctx.explain)
        return rankings, report

    def _shard_legs(
        self,
        shard_id: int,
        cache_key: tuple | None,
        query: str,
        query_vector,
        filters: dict[str, str] | None,
        leg_ctx: RequestContext,
        mode: str,
        plan: Callable[[], TextPlan],
    ):
        """The text and vector leg heads of one shard, cached when possible.

        *plan* returns the request's :meth:`FullTextSearch.plan`; it is
        called only when a text leg is actually scored here.

        With ``leg_ctx.work`` the retrieval-cache consult books one
        ``retrieval_cache_hits``/``retrieval_cache_misses`` unit.

        Returns ``(text_leg or None, [(field, vector_leg), ...],
        served_from_cache)``.
        """
        config = self.config
        work = leg_ctx.work
        if cache_key is not None:
            generation = self._leg_generation(shard_id)
            cached = self.retrieval_cache.get(shard_id, cache_key, generation)
            if work is not None:
                work.add(WORK_RETRIEVAL_CACHE_HITS if cached else WORK_RETRIEVAL_CACHE_MISSES)
            if cached is not None:
                return cached.text, cached.vector, True

        leg_text: Heads | None = None
        leg_vector: dict[str, Heads] = {}
        if mode in ("hybrid", "text"):
            leg_text = self._fulltext[shard_id].search(
                query, n=config.text_n, filters=filters, ctx=leg_ctx, plan=plan()
            )
        if query_vector is not None:
            leg_vector = self._vector[shard_id].search_by_vector(
                query_vector, k=config.vector_k, filters=filters, ctx=leg_ctx
            )
        if cache_key is not None:
            self.retrieval_cache.put(shard_id, cache_key, generation, leg_text, leg_vector)
        return leg_text, list(leg_vector.items()), False

    def _leg_generation(self, shard_id: int) -> int | tuple:
        """The invalidation stamp a cached leg of *shard_id* is valid for.

        Vector legs depend only on the shard's own contents, so the shard's
        per-segment epoch stamp (:meth:`~repro.search.index.SearchIndex
        .segment_stamp`) gives exact per-shard — and within a shard,
        per-segment — invalidation: a write bumps only the epoch of the
        segment (or buffer) it touched.  BM25 text scores additionally
        depend on **global** collection statistics (document frequencies,
        average length aggregated across every shard), so any mode that
        runs a text leg must stamp with the cluster-wide generation: a
        write to shard A changes the text scores shard B would compute,
        even though B's own contents are untouched.
        """
        if self.config.mode in ("hybrid", "text"):
            return self.index.generation
        return self.index.shard_index(shard_id).segment_stamp()

    def take_scatter_report(self) -> ScatterReport | None:
        """The report of the most recent :meth:`search`; clears it."""
        report = self._last_report
        self._last_report = None
        return report

    # -- replica selection -------------------------------------------------

    def _probe_shard(self, shard_id: int, query: str, turn: int, now: float) -> ShardProbe:
        """Pick replicas for one shard and decide whether it makes deadline.

        The primary rotates round-robin per query.  Dead and marked-down
        replicas are skipped up front (fail-fast).  When the primary has
        not answered after ``HEDGE_LATENCY`` a hedged retry goes to the
        next candidate; the shard's latency is then the earlier of the two
        responses.  A shard that still exceeds ``SHARD_DEADLINE`` times
        out: the query degrades to partial results, and the slow replicas'
        health records take a consecutive-timeout hit (enough hits mark a
        replica down for ``DOWN_COOLDOWN`` simulated seconds).
        """
        group = self._groups[shard_id]
        candidates = [r for r in group.rotation(turn) if r.alive and not r.marked_down(now)]

        # A probe is hedged exactly when it made two attempts.
        def answered(replica: Replica, latency: float, attempts: int = 1) -> ShardProbe:
            replica.record_success()
            return ShardProbe(shard_id, replica.replica_id, latency, True, attempts > 1, attempts)

        def missed(attempts: int) -> ShardProbe:
            return ShardProbe(shard_id, "", SHARD_DEADLINE, False, attempts > 1, attempts, True)

        if not candidates:
            return missed(0)
        primary = candidates[0]
        primary_latency = primary.service_time(query)
        if primary_latency <= HEDGE_LATENCY:
            return answered(primary, primary_latency)
        if len(candidates) == 1:
            # Nobody to hedge to: the primary either makes the deadline
            # alone or the shard degrades.
            if primary_latency <= SHARD_DEADLINE:
                return answered(primary, primary_latency)
            primary.record_timeout(now)
            return missed(1)

        sibling = candidates[1]
        primary.record_hedge()
        sibling_latency = HEDGE_LATENCY + sibling.service_time(query)
        winner, winner_latency = (
            (primary, primary_latency)
            if primary_latency <= sibling_latency
            else (sibling, sibling_latency)
        )
        if winner_latency <= SHARD_DEADLINE:
            probe = answered(winner, winner_latency, attempts=2)
            if primary_latency > SHARD_DEADLINE:
                primary.record_timeout(now)
            return probe
        primary.record_timeout(now)
        if sibling_latency > SHARD_DEADLINE:
            sibling.record_timeout(now)
        return missed(2)

    # -- observability -----------------------------------------------------

    def status(self) -> ClusterStatus:
        """A point-in-time snapshot of shard sizes and replica health."""
        self._observe_control_state()
        now = self._clock.now()
        shards = []
        for shard_id in self.index.shard_ids:
            shard = self.index.shard_index(shard_id)
            replicas = tuple(
                ReplicaStatus(
                    r.replica_id, r.alive, r.slow_factor, r.marked_down(now),
                    r.health.served, r.health.timeouts, r.health.hedges,
                )
                for r in self._groups[shard_id].replicas
            )
            shards.append(ShardStatus(shard_id, shard.document_count, len(shard), replicas))
        return ClusterStatus(shards=tuple(shards))
