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
back, so the dashboard page and the exposition can never disagree.

Beside them it keeps aggregates, not a log, each bounded by elapsed
simulated time or by a fixed sample count:

* the per-minute series (:data:`BUCKET_SECONDS`), accumulated online;
* the SLO tail: slim :class:`QueryEvent` entries in timestamp order, no
  older than the longest burn window (:data:`SLO_HORIZON_SECONDS`)
  behind the newest arrival, read by :meth:`MetricsCollector.events_since`;
* the newest :data:`PERCENTILE_WINDOW` samples of each stage and shard
  latency series, sorted at snapshot time for exact nearest-rank
  percentiles.

The per-request record is the audit log's to keep.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from operator import attrgetter

from repro.core.answer import OUTCOME_ANSWERED, OUTCOME_GENERATION_ERROR
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import DEFAULT_BURN_WINDOWS

#: Width of one dashboard interval: the per-minute charts of Figure 3.
BUCKET_SECONDS = 60.0
#: How far behind the newest arrival the SLO tail reaches: the longest
#: burn window, so every burn rate at or after that arrival is exact.
SLO_HORIZON_SECONDS = max(window.long_seconds for window in DEFAULT_BURN_WINDOWS)
#: Newest samples per stage / shard series the dashboard percentiles cover.
PERCENTILE_WINDOW = 1024

_TIMESTAMP = attrgetter("timestamp")


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

    Sorts a copy on every call; callers taking several percentiles of one
    series sort once and use :func:`percentile_of_sorted`.  Like
    :func:`percentile_of_sorted`, raises on empty input.
    """
    return percentile_of_sorted(sorted(values), q)


@dataclass(frozen=True, slots=True)
class QueryEvent:
    """One served query, as the SLO classifiers read it.

    ``failed`` marks a request that failed outright: the LLM was down and
    the engine answered with its apology (``generation_error``).
    ``partial`` marks a query served by a degraded cluster (some shard
    missed its deadline and was dropped from the merge).
    """

    timestamp: float
    outcome: str
    response_time: float
    failed: bool = False
    partial: bool = False


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


def _append_sample(windows: dict[str, deque[float]], key: str, value: float) -> None:
    window = windows.get(key)
    if window is None:
        window = windows[key] = deque(maxlen=PERCENTILE_WINDOW)
    window.append(value)


def _windowed_percentiles(
    windows: dict[str, deque[float]], histogram: Histogram
) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """p50 and p95 over each series' window, and its whole-history count
    (the histogram's, which observed every sample)."""
    p50: dict[str, float] = {}
    p95: dict[str, float] = {}
    counts: dict[str, int] = {}
    for key, window in windows.items():
        ordered = sorted(window)  # one sort, reused by both percentiles
        p50[key] = percentile_of_sorted(ordered, 50.0)
        p95[key] = percentile_of_sorted(ordered, 95.0)
        counts[key] = histogram.labels(key).count
    return p50, p95, counts


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
        # The per-minute series, one slot per BUCKET_SECONDS, each summed
        # in log order.
        self._queries_per_bucket: list[int] = []
        self._failures_per_bucket: list[int] = []
        self._rt_sums: list[float] = []
        self._rt_counts: list[int] = []
        # The SLO tail: per minute, that minute's events sorted by
        # timestamp (None before the first one).  Every minute before
        # _tail_start fell behind the horizon and was dropped.
        self._tail: list[list[QueryEvent] | None] = []
        self._tail_start = 0
        self._latest_arrival = float("-inf")
        self._user_ids: set[str] = set()
        self._stage_samples: dict[str, deque[float]] = {}
        self._shard_samples: dict[str, deque[float]] = {}
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
        stages: dict[str, float] | None = None,
        partial: bool = False,
        trace_id: str = "",
        cache_hit: str = "",
    ) -> None:
        """Log one served query, with optional stage durations.

        *timestamp* is the (non-negative) completion time and
        ``timestamp - response_time`` the arrival.  A ``generation_error``
        answer — the engine's apology when the LLM timed out or refused —
        is a failed request.  ``trace_id`` links the observation to a
        retained trace: when set, the response-time and per-stage
        histograms record it as the bucket exemplar (only pass ids the
        trace sampler actually retained, so every exposed exemplar
        resolves).  ``cache_hit`` names the reuse kind when the query
        skipped the full pipeline ("" when it ran).
        """
        if timestamp < 0:
            raise ValueError("timestamp must be non-negative")
        failed = outcome == OUTCOME_GENERATION_ERROR
        bucket = int(timestamp // BUCKET_SECONDS)
        grow = bucket + 1 - len(self._tail)
        if grow > 0:
            self._queries_per_bucket += [0] * grow
            self._failures_per_bucket += [0] * grow
            self._rt_sums += [0.0] * grow
            self._rt_counts += [0] * grow
            self._tail += [None] * grow
        self._queries_per_bucket[bucket] += 1
        if failed:
            self._failures_per_bucket[bucket] += 1
        else:
            self._rt_sums[bucket] += response_time
            self._rt_counts[bucket] += 1
        self._add_to_tail(bucket, QueryEvent(timestamp, outcome, response_time, failed, partial))
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
                _append_sample(self._stage_samples, stage, duration)
                self._m_stage.labels(stage).observe(duration, trace_id=exemplar)

    def _add_to_tail(self, bucket: int, event: QueryEvent) -> None:
        """Insert *event* into the SLO tail, then drop the minutes that fell
        behind the horizon.

        A coalescing backend stamps ``arrival + response_time``, so an event
        can land behind ones already logged: it is bisected in from the
        right, after equal timestamps, so ties keep log order.  A minute is
        dropped once it ends :data:`SLO_HORIZON_SECONDS` before the newest
        arrival — no window at or after that arrival reaches it — and each
        minute is dropped once, so pruning is amortised O(1) per event.
        """
        if bucket >= self._tail_start:
            slot = self._tail[bucket]
            if slot is None:
                self._tail[bucket] = [event]
            elif slot[-1].timestamp <= event.timestamp:  # in order: no search
                slot.append(event)
            else:
                slot.insert(bisect_right(slot, event.timestamp, key=_TIMESTAMP), event)
        arrival = event.timestamp - event.response_time
        if arrival > self._latest_arrival:
            self._latest_arrival = arrival
            end = int((arrival - SLO_HORIZON_SECONDS) // BUCKET_SECONDS)
            while self._tail_start < end:
                self._tail[self._tail_start] = None
                self._tail_start += 1

    def record_shard_probe(
        self, shard_id: int, replica_id: str, latency: float, ok: bool, hedged: bool = False
    ) -> None:
        """Count one shard probe of a scatter-gather query into the per-shard
        latency series and health quotients (the probe itself is the audit
        log's to keep, on the request line)."""
        key = f"shard-{shard_id}"
        _append_sample(self._shard_samples, key, latency)
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

    def events_since(self, horizon: float) -> list[QueryEvent]:
        """The events with ``timestamp >= horizon`` in timestamp order (ties
        in log order), bisected out of the SLO tail: the cost is the window.

        Exact for every *horizon* from the newest arrival minus
        :data:`SLO_HORIZON_SECONDS` on; older events are no longer held.
        """
        first = max(self._tail_start, int(horizon // BUCKET_SECONDS))
        recent = [event for slot in self._tail[first:] if slot for event in slot]
        return recent[bisect_left(recent, horizon, key=_TIMESTAMP):]

    def headline(self) -> DashboardSnapshot:
        """The headline counters the threshold rules read, series left empty."""
        outcome_breakdown = {
            labels[0]: int(child.value)
            for labels, child in self._m_queries.children.items()
            if labels  # skip the parent's label-less self-cell
        }
        guardrails = sum(
            count for outcome, count in outcome_breakdown.items()
            if outcome.startswith("guardrail_")
        )
        served = self._m_response.count
        return DashboardSnapshot(
            users=int(self._m_users.value),
            queries=int(self._m_queries.total()),
            feedbacks=int(self._m_feedback.value),
            average_response_time=self._m_response.sum / served if served else 0.0,
            failed_requests=int(self._m_failed.value),
            guardrails_triggered=guardrails,
            outcome_breakdown=outcome_breakdown,
        )

    def snapshot(self) -> DashboardSnapshot:
        """Aggregate everything logged so far into one dashboard page."""
        # Series exist only once a sample was appended, so the percentiles
        # never see an empty window (which would raise); the dashboard
        # formatter in turn only renders stages present here.
        stage_p50, stage_p95, stage_counts = _windowed_percentiles(
            self._stage_samples, self._m_stage
        )
        shard_p50, shard_p95, shard_counts = _windowed_percentiles(
            self._shard_samples, self._m_shard_latency
        )

        cache_breakdown: dict[str, int] = {}
        if self._m_cache_served is not None:
            cache_breakdown = {
                labels[0]: int(child.value)
                for labels, child in self._m_cache_served.children.items()
                if labels
            }

        return replace(
            self.headline(),
            queries_per_bucket=list(self._queries_per_bucket),
            failures_per_bucket=list(self._failures_per_bucket),
            response_time_per_bucket=[
                total / count if count else 0.0
                for total, count in zip(self._rt_sums, self._rt_counts)
            ],
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
