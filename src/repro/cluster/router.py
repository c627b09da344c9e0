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
from collections import Counter
from dataclasses import dataclass
from typing import Callable

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
from repro.search.results import RetrievedChunk
from repro.search.vector import VectorSearch

#: Simulated seconds a shard may take before the router gives up on it and
#: degrades to partial results.
SHARD_DEADLINE = 0.03
#: Simulated seconds after which a hedged retry goes to a sibling replica:
#: half the deadline, the classic tail-at-scale rule of thumb.
HEDGE_LATENCY = 0.5 * SHARD_DEADLINE


def _ranked(
    candidates: list[RetrievedChunk], limit: int, ordinal: Callable[[str], int]
) -> list[RetrievedChunk]:
    """The top *limit* of *candidates* by ``(-score, ordinal)``; only a
    chunk whose score is tied has its ordinal looked up."""
    scores = Counter(result.score for result in candidates)

    def key(result: RetrievedChunk) -> tuple[float, int]:
        tied = scores[result.score] > 1
        return -result.score, ordinal(result.record.chunk_id) if tied else 0

    candidates.sort(key=key)
    return candidates[:limit]


def _attribute_shard(results: list[RetrievedChunk], shard_id: int) -> list[RetrievedChunk]:
    """Tag each leg result with its shard of origin (explain provenance)."""
    tagged = []
    for result in results:
        components = dict(result.components)
        components["shard"] = float(shard_id)
        tagged.append(
            RetrievedChunk(record=result.record, score=result.score, components=components)
        )
    return tagged


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
        hedge_budget: optional
            :class:`~repro.autoscale.hedging.AdaptiveHedgeBudget`; when
            set, each hedge opportunity first asks the budget, and a
            denied probe behaves exactly as if no sibling were
            available.  The default None keeps the pre-autoscale hedge
            behaviour byte-identical.
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
        hedge_budget=None,
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
        self._profile = profile
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
        self.hedge_budget = hedge_budget
        self._groups: dict[int, ReplicaGroup] = {}
        self._fulltext: dict[int, FullTextSearch] = {}
        self._vector: dict[int, VectorSearch] = {}
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
        self._sync_topology()

    # -- topology ----------------------------------------------------------

    def _sync_topology(self) -> None:
        """Align replica groups and executors with the current shard set."""
        current = set(self.index.shard_ids)
        for shard_id in list(self._groups):
            if shard_id not in current:
                del self._groups[shard_id]
                self._fulltext.pop(shard_id, None)
                self._vector.pop(shard_id, None)
                if self.retrieval_cache is not None:
                    self.retrieval_cache.drop_shard(shard_id)
        for shard_id in self.index.shard_ids:
            if shard_id not in self._groups:
                self._groups[shard_id] = ReplicaGroup.build(shard_id, self.cluster_config)
                view = self.index.search_view(shard_id)
                self._fulltext[shard_id] = FullTextSearch(view, profile=self._profile)
                self._vector[shard_id] = VectorSearch(self.index.shard_index(shard_id))

    def _observe_control_state(self) -> None:
        """Diff replica liveness and cache generation onto the recorder.

        The chaos tooling kills replicas and flips epochs *behind* the
        router (direct ``Replica.kill()`` / ``bump_generation()`` calls),
        so the only reliable observation point is a state diff at the
        router's own touch points.  First sight of a key seeds the
        baseline silently; disappeared keys (topology shrink) are
        dropped.  No-op without a recorder.
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

    def replicas(self, shard_id: int) -> list[Replica]:
        """The replica group of *shard_id* (fault injection entry point)."""
        self._sync_topology()
        return list(self._groups[shard_id].replicas)

    def add_replica(self, shard_id: int) -> str:
        """Scale *shard_id* up by one healthy replica; returns its id."""
        self._sync_topology()
        replica_id = self._groups[shard_id].add_replica().replica_id
        if self.recorder is not None:
            self.recorder.record(
                "topology_change",
                "router",
                action="add_replica",
                shard_id=shard_id,
                replica_id=replica_id,
            )
            self._last_alive[f"s{shard_id}/{replica_id}"] = True
        return replica_id

    def remove_replica(self, shard_id: int) -> str:
        """Scale *shard_id* down by one replica; returns the removed id.

        Drains a dead replica when one exists, otherwise retires the
        newest alive one; the group always keeps at least one alive
        replica (the caller enforces any higher floor).
        """
        self._sync_topology()
        replica_id = self._groups[shard_id].remove_replica().replica_id
        if self.recorder is not None:
            self.recorder.record(
                "topology_change",
                "router",
                action="remove_replica",
                shard_id=shard_id,
                replica_id=replica_id,
            )
            self._last_alive.pop(f"s{shard_id}/{replica_id}", None)
        return replica_id

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
        results = fuse_and_rerank(query, rankings, self.config, self._reranker, ctx)
        self._last_report = report
        return results

    def search_degraded(
        self,
        query: str,
        filters: dict[str, str] | None = None,
        ctx: RequestContext = NULL_CONTEXT,
    ) -> list[RetrievedChunk]:
        """BM25-only scatter for admission-degraded requests (level 2).

        The same scatter loop as :meth:`search` (replica health, hedging,
        partial degradation and work accounting all apply) gathering only
        the full-text legs — no query embedding, no vector legs, no
        reranker, no retrieval-cache consult.
        """
        rankings, report = self._scatter(query, filters, ctx, degraded=True)
        self._last_report = report
        return rankings["text"][: self.config.final_n]

    def _scatter(
        self,
        query: str,
        filters: dict[str, str] | None,
        ctx: RequestContext,
        degraded: bool = False,
    ) -> tuple[dict[str, list[RetrievedChunk]], ScatterReport]:
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
        self._sync_topology()
        self._observe_control_state()
        config = self.config
        mode = "text" if degraded else config.mode
        turn = self._query_counter
        self._query_counter += 1

        query_vector = None
        if mode in ("hybrid", "vector"):
            with ctx.trace.span(spans.STAGE_EMBED_QUERY, query_chars=len(query)):
                query_vector = self.index.embedder.embed(query)

        text_candidates: list[RetrievedChunk] = []
        vector_candidates: dict[str, list[RetrievedChunk]] = {
            name: [] for name in self.index.schema.vector_fields
        }
        cache_key = None
        if self.retrieval_cache is not None and not ctx.explain and not degraded:
            # Explain requests bypass the retrieval cache: cached legs were
            # gathered without per-term/per-shard breakdowns, and provenance
            # must describe *this* scatter, not a stale one.
            cache_key = retrieval_cache_key(
                query, filters, mode, config.text_n, config.vector_k
            )
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
            for shard_id in self.index.shard_ids:
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
                        text_candidates.extend(leg_text)
                        gathered += len(leg_text)
                        for field_name, leg in leg_vector:
                            vector_candidates[field_name].extend(leg)
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
        return self._merge(text_candidates, vector_candidates, mode), report

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
        """The text and vector leg results of one shard, cached when possible.

        *plan* returns the request's :meth:`FullTextSearch.plan`; it is
        called only when a text leg is actually scored here.

        With ``leg_ctx.explain`` every gathered chunk is tagged with its
        shard of origin; with ``leg_ctx.work`` the retrieval-cache consult
        books one ``retrieval_cache_hits``/``retrieval_cache_misses`` unit.

        Returns ``(text_leg, [(field, vector_leg), ...], served_from_cache)``.
        """
        config = self.config
        work = leg_ctx.work
        if cache_key is not None:
            generation = self._leg_generation(shard_id)
            cached = self.retrieval_cache.get(shard_id, cache_key, generation)
            if work is not None:
                work.add(
                    WORK_RETRIEVAL_CACHE_HITS
                    if cached is not None
                    else WORK_RETRIEVAL_CACHE_MISSES
                )
            if cached is not None:
                return cached.text, cached.vector, True

        leg_text: list[RetrievedChunk] = []
        leg_vector: dict[str, list[RetrievedChunk]] = {}
        if mode in ("hybrid", "text"):
            leg_text = self._fulltext[shard_id].search(
                query, n=config.text_n, filters=filters, ctx=leg_ctx, plan=plan()
            )
        if query_vector is not None:
            leg_vector = self._vector[shard_id].search_by_vector(
                query_vector, k=config.vector_k, filters=filters, ctx=leg_ctx
            )
        if leg_ctx.explain:
            leg_text = _attribute_shard(leg_text, shard_id)
            leg_vector = {
                field_name: _attribute_shard(leg, shard_id)
                for field_name, leg in leg_vector.items()
            }
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

    def _merge(
        self,
        text_candidates: list[RetrievedChunk],
        vector_candidates: dict[str, list[RetrievedChunk]],
        mode: str,
    ) -> dict[str, list[RetrievedChunk]]:
        """Merge per-shard leg results into single-index-equivalent rankings.

        Scores are globally comparable (global BM25 statistics, one shared
        embedding space), so merging is a sort; ties break on the global
        insertion ordinal, reproducing the single index's internal-id tie
        order.
        """
        config = self.config
        ordinal = self.index.ordinal
        rankings: dict[str, list[RetrievedChunk]] = {}
        if mode in ("hybrid", "text"):
            rankings["text"] = _ranked(text_candidates, config.text_n, ordinal)
        if mode in ("hybrid", "vector"):
            for field_name, candidates in vector_candidates.items():
                rankings[f"vector_{field_name}"] = _ranked(candidates, config.vector_k, ordinal)
        return rankings

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
        candidates = [
            replica
            for replica in group.rotation(turn)
            if replica.alive and not replica.marked_down(now)
        ]
        if not candidates:
            return ShardProbe(
                shard_id=shard_id,
                replica_id="",
                latency=SHARD_DEADLINE,
                ok=False,
                attempts=0,
                timed_out=True,
            )

        primary = candidates[0]
        primary_latency = primary.service_time(query)
        if primary_latency <= HEDGE_LATENCY:
            primary.record_success()
            return ShardProbe(
                shard_id=shard_id,
                replica_id=primary.replica_id,
                latency=primary_latency,
                ok=True,
            )

        sibling = candidates[1] if len(candidates) > 1 else None
        if sibling is not None and self.hedge_budget is not None and not self.hedge_budget.allow():
            # Budget exhausted: at high utilization a hedged retry is pure
            # load amplification, so the probe proceeds unhedged.
            sibling = None
        if sibling is None:
            # Nobody to hedge to: the primary either makes the deadline
            # alone or the shard degrades.
            if primary_latency <= SHARD_DEADLINE:
                primary.record_success()
                return ShardProbe(
                    shard_id=shard_id,
                    replica_id=primary.replica_id,
                    latency=primary_latency,
                    ok=True,
                )
            primary.record_timeout(now)
            return ShardProbe(
                shard_id=shard_id,
                replica_id="",
                latency=SHARD_DEADLINE,
                ok=False,
                timed_out=True,
            )

        primary.record_hedge()
        sibling_latency = HEDGE_LATENCY + sibling.service_time(query)
        winner, winner_latency = (
            (primary, primary_latency)
            if primary_latency <= sibling_latency
            else (sibling, sibling_latency)
        )
        if winner_latency <= SHARD_DEADLINE:
            winner.record_success()
            if primary_latency > SHARD_DEADLINE:
                primary.record_timeout(now)
            return ShardProbe(
                shard_id=shard_id,
                replica_id=winner.replica_id,
                latency=winner_latency,
                ok=True,
                hedged=True,
                attempts=2,
            )
        primary.record_timeout(now)
        if sibling_latency > SHARD_DEADLINE:
            sibling.record_timeout(now)
        return ShardProbe(
            shard_id=shard_id,
            replica_id="",
            latency=SHARD_DEADLINE,
            ok=False,
            hedged=True,
            attempts=2,
            timed_out=True,
        )

    # -- observability -----------------------------------------------------

    def status(self) -> ClusterStatus:
        """A point-in-time snapshot of shard sizes and replica health."""
        self._sync_topology()
        self._observe_control_state()
        now = self._clock.now()
        shards = []
        for shard_id in self.index.shard_ids:
            shard = self.index.shard_index(shard_id)
            group = self._groups[shard_id]
            shards.append(
                ShardStatus(
                    shard_id=shard_id,
                    documents=shard.document_count,
                    chunks=len(shard),
                    replicas=tuple(
                        ReplicaStatus(
                            replica_id=replica.replica_id,
                            alive=replica.alive,
                            slow_factor=replica.slow_factor,
                            marked_down=replica.marked_down(now),
                            served=replica.health.served,
                            timeouts=replica.health.timeouts,
                            hedges=replica.health.hedges,
                        )
                        for replica in group.replicas
                    ),
                )
            )
        return ClusterStatus(shards=tuple(shards))
