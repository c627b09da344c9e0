"""Monitoring: metrics collection and the dashboard of Figure 3.

Section 9: "we have created a dashboard that directly queries the logs of
the various microservices […] reporting the number of users, the number of
feedbacks provided, the average response time, and the number of failed
requests and triggered guardrails."

:class:`MetricsCollector` is the log sink every service writes to;
:class:`DashboardSnapshot` is the aggregated page, including per-interval
time series for plotting and — when the backend serves traced requests —
per-stage latency percentiles keyed on the span taxonomy of
:mod:`repro.obs.spans`.

The collector is built on a typed
:class:`~repro.obs.metrics.MetricsRegistry`: the headline numbers (queries
by outcome, failures, feedbacks, distinct users, response-time totals,
partial results, hedged probes) live in registry instruments — the same
ones the ``/metrics`` exposition scrapes — and the snapshot reads them
back, so the dashboard page and the exposition can never disagree.  Raw
events are still retained for the per-bucket series and the exact
nearest-rank percentiles; their sorted order is cached per series and
reused across percentiles and snapshots instead of re-sorting on every
call (see :class:`_SampleSeries`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.answer import OUTCOME_ANSWERED
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def percentile_of_sorted(ordered: list[float], q: float) -> float:
    """The *q*-th percentile of an already **sorted** list (nearest rank).

    ``q`` is in [0, 100].  An empty list raises :class:`ValueError`: a
    percentile of nothing is undefined, and the old silent 0.0 made
    "no samples" indistinguishable from "all samples are instant" at call
    sites.  Callers that want a placeholder must make the empty case
    explicit themselves (``percentile(xs, q) if xs else 0.0``).
    """
    if not (0.0 <= q <= 100.0):
        raise ValueError("q must be between 0 and 100")
    if not ordered:
        raise ValueError("percentile of an empty series is undefined")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def percentile(values: list[float], q: float) -> float:
    """The *q*-th percentile of *values* by the nearest-rank method.

    Sorts a copy on every call — fine for one-off use; callers computing
    several percentiles over the same (growing) series should keep a
    :class:`_SampleSeries` and use :func:`percentile_of_sorted` instead.
    Like :func:`percentile_of_sorted`, raises on empty input.
    """
    return percentile_of_sorted(sorted(values), q)


class _SampleSeries:
    """An append-only sample list with a lazily cached sorted view.

    ``sorted_values`` sorts at most once per batch of appends: the cache is
    invalidated on append and every percentile of the same snapshot (and
    every later snapshot without new samples) reuses it.  At dashboard
    scale (tens of thousands of events, two percentiles per stage per
    snapshot) this is the difference between one sort and one sort per
    percentile call.
    """

    __slots__ = ("values", "_sorted")

    def __init__(self) -> None:
        self.values: list[float] = []
        self._sorted: list[float] | None = None

    def append(self, value: float) -> None:
        self.values.append(value)
        self._sorted = None

    @property
    def sorted_values(self) -> list[float]:
        if self._sorted is None:
            self._sorted = sorted(self.values)
        return self._sorted

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class QueryEvent:
    """One served query, as logged by the backend.

    ``stages`` carries the per-stage durations of a traced request as
    ``(stage_name, seconds)`` pairs (empty for untraced requests).
    ``partial`` marks a query served by a degraded cluster (some shard
    missed its deadline and was dropped from the merge).
    """

    timestamp: float
    user_id: str
    outcome: str
    response_time: float
    failed: bool = False
    stages: tuple[tuple[str, float], ...] = ()
    partial: bool = False
    cache_hit: str = ""


@dataclass(frozen=True)
class DashboardSnapshot:
    """The Figure 3 page: headline numbers plus per-bucket series."""

    users: int
    queries: int
    feedbacks: int
    average_response_time: float
    failed_requests: int
    guardrails_triggered: int
    outcome_breakdown: dict[str, int] = field(default_factory=dict)
    queries_per_bucket: list[int] = field(default_factory=list)
    failures_per_bucket: list[int] = field(default_factory=list)
    response_time_per_bucket: list[float] = field(default_factory=list)
    #: Per-stage latency series of traced requests: stage name → p50 / p95
    #: seconds (empty when no traced request was served).
    stage_p50: dict[str, float] = field(default_factory=dict)
    stage_p95: dict[str, float] = field(default_factory=dict)
    stage_counts: dict[str, int] = field(default_factory=dict)
    #: Cluster serving health (empty for single-index deployments):
    #: queries answered from a degraded cluster, hedged shard probes,
    #: per-shard latency percentiles keyed ``shard-<id>``, and success
    #: fractions per shard and per replica.
    partial_results: int = 0
    hedged_requests: int = 0
    #: Queries served without running the full pipeline, by reuse kind
    #: (``exact`` / ``semantic`` answer-cache hits, ``coalesced`` waits on
    #: an identical in-flight request).  Zero / empty while caching is off.
    cache_served: int = 0
    cache_breakdown: dict[str, int] = field(default_factory=dict)
    shard_p50: dict[str, float] = field(default_factory=dict)
    shard_p95: dict[str, float] = field(default_factory=dict)
    shard_counts: dict[str, int] = field(default_factory=dict)
    shard_health: dict[str, float] = field(default_factory=dict)
    replica_health: dict[str, float] = field(default_factory=dict)
    #: Saturation/USE samples (:class:`~repro.obs.capacity.SaturationSample`)
    #: of the deployment's capacity monitor; empty unless the backend was
    #: built with ``capacity=True``, so pre-capacity pages render unchanged.
    saturation: tuple = ()


#: Buckets of the backend response-time histogram (seconds): the traced
#: totals sit between ~0.5 s (apologies) and ~10 s (long generations).
RESPONSE_TIME_BUCKETS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

#: Buckets of the per-stage duration histograms (seconds): stages range
#: from sub-millisecond fusion to multi-second LLM calls.
STAGE_SECONDS_BUCKETS = (0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384)


class MetricsCollector:
    """Aggregates query events and feedback counts for the dashboard.

    Args:
        registry: the deployment's metrics registry; the collector's
            headline instruments (``uniask_queries_total`` & co.) are
            **owned** by this collector and attached there, so the
            ``/metrics`` exposition includes them while each collector
            starts from zero (a fresh service never inherits another's
            counts — the latest attached collector wins the exposition).
            Defaults to a private registry so standalone collectors keep
            working.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        registry = self.registry
        self._events: list[QueryEvent] = []
        # Newest timestamp logged, and the furthest any event was appended
        # behind it (0.0 while the log is in timestamp order).
        self._latest = float("-inf")
        self._max_step_back = 0.0
        self._user_ids: set[str] = set()
        self._stage_series: dict[str, _SampleSeries] = {}
        self._shard_series: dict[str, _SampleSeries] = {}
        # (ok, total) probe counts per shard / replica: health is their quotient.
        self._shard_ok: dict[str, tuple[int, int]] = {}
        self._replica_ok: dict[str, tuple[int, int]] = {}

        self._m_queries = registry.attach(
            Counter(
                "uniask_queries_total",
                "Queries served by the backend, by outcome.",
                ("outcome",),
            )
        )
        self._m_failed = registry.attach(
            Counter("uniask_failed_requests_total", "Requests that failed outright.")
        )
        self._m_feedback = registry.attach(
            Counter("uniask_feedback_total", "Feedback forms submitted.")
        )
        self._m_users = registry.attach(Gauge("uniask_users", "Distinct users seen so far."))
        self._m_partial = registry.attach(
            Counter("uniask_partial_results_total", "Queries served from a degraded cluster.")
        )
        self._m_hedged = registry.attach(
            Counter(
                "uniask_hedged_shard_probes_total",
                "Shard probes that needed a hedged retry.",
            )
        )
        self._m_response = registry.attach(
            Histogram(
                "uniask_response_seconds",
                "End-to-end response time of served (non-failed) queries.",
                buckets=RESPONSE_TIME_BUCKETS,
            )
        )
        self._m_stage = registry.attach(
            Histogram(
                "uniask_stage_seconds",
                "Leaf-stage durations of traced requests, by span name.",
                ("stage",),
                buckets=STAGE_SECONDS_BUCKETS,
            )
        )
        self._m_shard_latency = registry.attach(
            Histogram(
                "uniask_shard_probe_seconds",
                "Replica latency of shard probes, by shard.",
                ("shard",),
                buckets=STAGE_SECONDS_BUCKETS,
            )
        )
        # Attached lazily on the first cache-served query: an instrument in
        # the registry renders HELP/TYPE lines in the exposition even with
        # no samples, and a deployment with caching off must expose exactly
        # the pre-cache metrics page.
        self._m_cache_served: Counter | None = None

    def record_query(
        self,
        timestamp: float,
        user_id: str,
        outcome: str,
        response_time: float,
        failed: bool = False,
        stages: dict[str, float] | None = None,
        partial: bool = False,
        trace_id: str = "",
        cache_hit: str = "",
    ) -> None:
        """Log one served (or failed) query, with optional stage durations.

        ``trace_id`` links the observation to a retained trace: when set,
        the response-time and per-stage histograms record it as the bucket
        exemplar (only pass ids the trace sampler actually retained, so
        every exposed exemplar resolves).  ``cache_hit`` names the reuse
        kind when the query skipped the full pipeline ("" when it ran).
        """
        if timestamp >= self._latest:
            self._latest = timestamp
        elif self._latest - timestamp > self._max_step_back:
            self._max_step_back = self._latest - timestamp
        self._events.append(
            QueryEvent(
                timestamp=timestamp,
                user_id=user_id,
                outcome=outcome,
                response_time=response_time,
                failed=failed,
                stages=tuple(stages.items()) if stages else (),
                partial=partial,
                cache_hit=cache_hit,
            )
        )
        if cache_hit:
            if self._m_cache_served is None:
                self._m_cache_served = self.registry.attach(
                    Counter(
                        "uniask_cache_served_queries_total",
                        "Queries served without the full pipeline, by reuse kind.",
                        ("kind",),
                    )
                )
            self._m_cache_served.labels(cache_hit).inc()
        self._m_queries.labels(outcome).inc()
        self._user_ids.add(user_id)
        self._m_users.set(float(len(self._user_ids)))
        exemplar = trace_id or None
        if failed:
            self._m_failed.inc()
        else:
            self._m_response.observe(response_time, trace_id=exemplar)
        if partial:
            self._m_partial.inc()
        if stages:
            for stage, duration in stages.items():
                series = self._stage_series.get(stage)
                if series is None:
                    series = self._stage_series[stage] = _SampleSeries()
                series.append(duration)
                self._m_stage.labels(stage).observe(duration, trace_id=exemplar)

    def record_shard_probe(
        self, shard_id: int, replica_id: str, latency: float, ok: bool, hedged: bool = False
    ) -> None:
        """Count one shard probe of a scatter-gather query into the per-shard
        latency series and health quotients (the probe itself is the audit
        log's to keep, on the request line)."""
        key = f"shard-{shard_id}"
        series = self._shard_series.get(key)
        if series is None:
            series = self._shard_series[key] = _SampleSeries()
        series.append(latency)
        good, total = self._shard_ok.get(key, (0, 0))
        self._shard_ok[key] = (good + ok, total + 1)
        if replica_id:
            good, total = self._replica_ok.get(replica_id, (0, 0))
            self._replica_ok[replica_id] = (good + ok, total + 1)
        if hedged:
            self._m_hedged.inc()
        self._m_shard_latency.labels(key).observe(latency)

    def record_feedback(self) -> None:
        """Count one submitted feedback form."""
        self._m_feedback.inc()

    @property
    def events(self) -> list[QueryEvent]:
        """All logged query events."""
        return list(self._events)

    def events_since(self, horizon: float) -> list[QueryEvent]:
        """The events with ``timestamp >= horizon``, in log order, read from
        the tail: the cost is the window, not the whole log.

        Assumes no order: a coalescing backend stamps ``arrival +
        response_time`` and a direct caller may log anything, so the walk
        stops only at an event older than *horizon* by more than the
        furthest any event was ever appended behind the newest one —
        nothing before that event can be inside.
        """
        floor = horizon - self._max_step_back
        recent: list[QueryEvent] = []
        for event in reversed(self._events):
            if event.timestamp < floor:
                break
            if event.timestamp >= horizon:
                recent.append(event)
        recent.reverse()
        return recent

    def snapshot(self, bucket_seconds: float = 60.0) -> DashboardSnapshot:
        """Aggregate everything logged so far into one dashboard page."""
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        outcome_breakdown = {
            labels[0]: int(child.value)
            for labels, child in self._m_queries.children.items()
            if labels  # skip the parent's label-less self-cell
        }
        guardrails = sum(
            count for outcome, count in outcome_breakdown.items()
            if outcome.startswith("guardrail_")
        )
        failed = int(self._m_failed.value)
        served = self._m_response.count
        average_rt = self._m_response.sum / served if served else 0.0

        queries_per_bucket: list[int] = []
        failures_per_bucket: list[int] = []
        rt_per_bucket: list[float] = []
        if self._events:
            horizon = max(event.timestamp for event in self._events)
            buckets = int(horizon // bucket_seconds) + 1
            queries_per_bucket = [0] * buckets
            failures_per_bucket = [0] * buckets
            rt_sums = [0.0] * buckets
            rt_counts = [0] * buckets
            for event in self._events:
                bucket = int(event.timestamp // bucket_seconds)
                queries_per_bucket[bucket] += 1
                if event.failed:
                    failures_per_bucket[bucket] += 1
                else:
                    rt_sums[bucket] += event.response_time
                    rt_counts[bucket] += 1
            rt_per_bucket = [
                rt_sums[i] / rt_counts[i] if rt_counts[i] else 0.0 for i in range(buckets)
            ]

        # Series exist only once a sample was appended, so the percentile
        # calls below never see an empty list (which would now raise); the
        # dashboard formatter in turn only renders stages present here.
        stage_p50 = {}
        stage_p95 = {}
        stage_counts = {}
        for stage, series in self._stage_series.items():
            ordered = series.sorted_values  # one sort, reused by both percentiles
            stage_p50[stage] = percentile_of_sorted(ordered, 50.0)
            stage_p95[stage] = percentile_of_sorted(ordered, 95.0)
            stage_counts[stage] = len(series)

        cache_breakdown: dict[str, int] = {}
        if self._m_cache_served is not None:
            cache_breakdown = {
                labels[0]: int(child.value)
                for labels, child in self._m_cache_served.children.items()
                if labels
            }

        shard_p50 = {}
        shard_p95 = {}
        shard_counts = {}
        for key, series in self._shard_series.items():
            ordered = series.sorted_values
            shard_p50[key] = percentile_of_sorted(ordered, 50.0)
            shard_p95[key] = percentile_of_sorted(ordered, 95.0)
            shard_counts[key] = len(series)

        return DashboardSnapshot(
            users=int(self._m_users.value),
            queries=int(self._m_queries.total()),
            feedbacks=int(self._m_feedback.value),
            average_response_time=average_rt,
            failed_requests=failed,
            guardrails_triggered=guardrails,
            outcome_breakdown=outcome_breakdown,
            queries_per_bucket=queries_per_bucket,
            failures_per_bucket=failures_per_bucket,
            response_time_per_bucket=rt_per_bucket,
            stage_p50=stage_p50,
            stage_p95=stage_p95,
            stage_counts=stage_counts,
            partial_results=int(self._m_partial.value),
            hedged_requests=int(self._m_hedged.value),
            cache_served=sum(cache_breakdown.values()),
            cache_breakdown=cache_breakdown,
            shard_p50=shard_p50,
            shard_p95=shard_p95,
            shard_counts=shard_counts,
            shard_health={key: good / total for key, (good, total) in self._shard_ok.items()},
            replica_health={
                key: good / total for key, (good, total) in self._replica_ok.items()
            },
        )


def format_dashboard(snapshot: DashboardSnapshot) -> str:
    """Render the dashboard page as text (the Figure 3 equivalent)."""
    lines = [
        "UniAsk monitoring dashboard",
        "---------------------------",
        f"users:                {snapshot.users}",
        f"queries served:       {snapshot.queries}",
        f"feedbacks provided:   {snapshot.feedbacks}",
        f"avg response time:    {snapshot.average_response_time:.2f}s",
        f"failed requests:      {snapshot.failed_requests}",
        f"guardrails triggered: {snapshot.guardrails_triggered}",
    ]
    if snapshot.shard_counts:
        lines.append(f"partial results:      {snapshot.partial_results}")
        lines.append(f"hedged shard probes:  {snapshot.hedged_requests}")
    if snapshot.cache_served:
        breakdown = " ".join(
            f"{kind}={count}" for kind, count in sorted(snapshot.cache_breakdown.items())
        )
        lines.append(f"cache served:         {snapshot.cache_served} ({breakdown})")
    lines.append("outcomes:")
    for outcome, count in sorted(snapshot.outcome_breakdown.items(), key=lambda p: -p[1]):
        marker = "·" if outcome == OUTCOME_ANSWERED else "!"
        lines.append(f"  {marker} {outcome}: {count}")
    if snapshot.stage_p50:
        lines.append("per-stage latency (p50 / p95):")
        for stage in sorted(snapshot.stage_p50, key=lambda s: -snapshot.stage_p95[s]):
            lines.append(
                f"  {stage}: {snapshot.stage_p50[stage] * 1000.0:.1f}ms / "
                f"{snapshot.stage_p95[stage] * 1000.0:.1f}ms "
                f"(n={snapshot.stage_counts[stage]})"
            )
    if snapshot.shard_counts:
        lines.append("per-shard latency (p50 / p95) and health:")
        for shard in sorted(snapshot.shard_counts):
            lines.append(
                f"  {shard}: {snapshot.shard_p50[shard] * 1000.0:.1f}ms / "
                f"{snapshot.shard_p95[shard] * 1000.0:.1f}ms "
                f"ok={snapshot.shard_health[shard] * 100.0:.0f}% "
                f"(n={snapshot.shard_counts[shard]})"
            )
        if snapshot.replica_health:
            lines.append("replica health:")
            for replica in sorted(snapshot.replica_health):
                lines.append(f"  {replica}: ok={snapshot.replica_health[replica] * 100.0:.0f}%")
    if snapshot.saturation:
        from repro.obs.capacity import format_saturation

        lines.append(format_saturation(snapshot.saturation))
    return "\n".join(lines)
