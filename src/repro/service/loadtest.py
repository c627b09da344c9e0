"""Open-system load test of the LLM service (Section 9, Figure 2).

The paper treats UniAsk as an **open system**: users keep arriving at a
configured rate regardless of how many are already in the system.  The
Figure 2 test continuously hits the LLM resource for 60 minutes, ramping
the arrival rate linearly from 1 to 3 users per second, each request
carrying 7 200 tokens; 267 of 7 200 requests failed, and the observed
failures were used to set the production token-rate limit.

The simulation integrates the exact arrival process in closed form — with
rate ``r(t) = r0 + (r1 - r0) · t/T`` the cumulative arrivals are
``N(t) = r0·t + (r1 - r0)·t²/(2T)``, so the n-th arrival time solves a
quadratic — and plays the requests through a
:class:`~repro.llm.rate_limiter.TokenBucketRateLimiter`.  A request that
does not fit the bucket fails immediately (HTTP 429), exactly like the
provisioned Azure deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.llm.rate_limiter import TokenBucketRateLimiter
from repro.obs.audit import AuditLogger, read_audit_log

#: Token-bucket capacity of the LLM quota under test, in seconds of quota.
BURST_SECONDS = 15.0


@dataclass(frozen=True)
class LoadTestConfig:
    """Figure 2 parameters (paper values as defaults)."""

    duration_seconds: float = 3600.0
    initial_rate: float = 1.0  # users per second at t=0
    target_rate: float = 3.0  # users per second at t=duration
    tokens_per_request: int = 7200
    tokens_per_minute: float = 1_045_000.0  # provisioned LLM quota under test

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.initial_rate < 0 or self.target_rate < 0:
            raise ValueError("rates must be non-negative")
        if self.tokens_per_request <= 0:
            raise ValueError("tokens_per_request must be positive")


@dataclass(frozen=True)
class LoadTestReport:
    """The Figure 2 report: totals plus per-minute series."""

    total_requests: int
    failed_requests: int
    requests_per_minute: list[int] = field(default_factory=list)
    failures_per_minute: list[int] = field(default_factory=list)

    @property
    def failure_rate(self) -> float:
        """Failed / total."""
        if self.total_requests == 0:
            return 0.0
        return self.failed_requests / self.total_requests

    @property
    def first_failure_minute(self) -> int | None:
        """Minute index of the first failure (None if none occurred)."""
        for minute, failures in enumerate(self.failures_per_minute):
            if failures:
                return minute
        return None


def arrival_times(config: LoadTestConfig) -> list[float]:
    """Exact arrival instants of the ramping open-system process."""
    r0 = config.initial_rate
    r1 = config.target_rate
    duration = config.duration_seconds
    slope = (r1 - r0) / duration

    total = r0 * duration + 0.5 * slope * duration * duration
    times: list[float] = []
    for n in range(1, int(total) + 1):
        if abs(slope) < 1e-12:
            t = n / r0 if r0 > 0 else duration
        else:
            # Solve 0.5*slope*t^2 + r0*t - n = 0 for the positive root.
            discriminant = r0 * r0 + 2.0 * slope * n
            t = (-r0 + math.sqrt(discriminant)) / slope
        if t > duration:
            break
        times.append(t)
    return times


def run_load_test(
    config: LoadTestConfig | None = None, capacity=None
) -> LoadTestReport:
    """Run the Figure 2 load test against a rate-limited LLM service.

    *capacity* is an optional
    :class:`~repro.obs.capacity.CapacityMonitor`: every arrival is
    observed under the ``llm`` resource, with the quota-sustainable
    service time (tokens per request over the provisioned token rate) as
    the deterministic response time, so the ramping arrival process
    drives the saturation gauges exactly as it drives the bucket.
    """
    config = config or LoadTestConfig()
    limiter = TokenBucketRateLimiter(
        tokens_per_minute=config.tokens_per_minute,
        burst_tokens=config.tokens_per_minute / 60.0 * BURST_SECONDS,
    )

    minutes = int(math.ceil(config.duration_seconds / 60.0))
    requests_per_minute = [0] * minutes
    failures_per_minute = [0] * minutes
    service_time = config.tokens_per_request / (config.tokens_per_minute / 60.0)

    total = 0
    failed = 0
    for t in arrival_times(config):
        minute = min(int(t // 60.0), minutes - 1)
        requests_per_minute[minute] += 1
        total += 1
        decision = limiter.try_acquire(config.tokens_per_request, now=t)
        if not decision.allowed:
            failures_per_minute[minute] += 1
            failed += 1
        if capacity is not None:
            capacity.observe("llm", t, service_time, failed=not decision.allowed)

    return LoadTestReport(
        total_requests=total,
        failed_requests=failed,
        requests_per_minute=requests_per_minute,
        failures_per_minute=failures_per_minute,
    )


@dataclass(frozen=True)
class ClusterLoadTestConfig:
    """A fault-injecting load scenario against a sharded retrieval cluster.

    Replays the same ramping open-system arrival process as the Figure 2
    LLM test, but against a :class:`~repro.cluster.router.ClusterSearcher`,
    optionally killing (and later reviving) the replicas of one shard
    mid-run to measure graceful degradation instead of throughput.
    """

    duration_seconds: float = 120.0
    initial_rate: float = 0.5  # queries per second at t=0
    target_rate: float = 2.0  # queries per second at t=duration
    kill_at: float | None = None  # simulated second to kill replicas (None: never)
    kill_shard: int = 0
    kill_all_replicas: bool = True  # False kills only the first replica
    revive_at: float | None = None  # simulated second to revive them (None: never)

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.initial_rate < 0 or self.target_rate < 0:
            raise ValueError("rates must be non-negative")
        if self.kill_at is not None and self.kill_at < 0:
            raise ValueError("kill_at must be non-negative")
        if (
            self.revive_at is not None
            and self.kill_at is not None
            and self.revive_at < self.kill_at
        ):
            raise ValueError("revive_at must not precede kill_at")


@dataclass(frozen=True)
class ClusterLoadTestReport:
    """Degradation report of one cluster load scenario."""

    total_queries: int
    partial_queries: int
    hedged_queries: int
    shard_latency_p95: float
    partial_per_minute: list[int] = field(default_factory=list)

    @property
    def partial_rate(self) -> float:
        """Partial / total."""
        if self.total_queries == 0:
            return 0.0
        return self.partial_queries / self.total_queries


def run_cluster_load_test(
    searcher,
    clock,
    queries: list[str],
    config: ClusterLoadTestConfig | None = None,
    audit: AuditLogger | None = None,
    capacity=None,
) -> ClusterLoadTestReport:
    """Drive *searcher* through an arrival process with fault injection.

    *queries* are cycled through the arrival instants; *clock* must be the
    same simulated clock the searcher reads (replica mark-down windows are
    evaluated against it).  Killed shards degrade queries to partial
    results — they never raise — and the report counts how many queries
    were affected while the shard was down.  The degradation counters are
    **asserted**, not just collected: a full-shard kill that serves
    queries while down yet records zero partial results raises
    ``RuntimeError``, because an all-green report from a scenario whose
    fault injection silently missed would prove nothing.

    When an enabled *audit* logger is supplied, the run writes one
    ``cluster_load_scenario`` header plus one ``cluster_query`` entry per
    arrival, then **replays its own log** through
    :func:`replay_cluster_report` and asserts the replayed report equals
    the live one — proving the JSONL log alone carries the full result
    (raises ``RuntimeError`` otherwise).

    When a :class:`~repro.obs.capacity.CapacityMonitor` is supplied as
    *capacity*, every arrival is observed under the ``cluster`` resource
    (response time = the gather barrier) and every shard probe under its
    replica, so the fault-injection scenario drives the per-replica
    saturation gauges: a killed shard shows up as error-rate on its
    replicas, not just as partial results.
    """
    from repro.service.monitoring import percentile

    config = config or ClusterLoadTestConfig()
    if not queries:
        raise ValueError("at least one query is required")
    audit = audit if audit is not None and audit.enabled else None

    arrivals = arrival_times(
        LoadTestConfig(
            duration_seconds=config.duration_seconds,
            initial_rate=config.initial_rate,
            target_rate=config.target_rate,
        )
    )
    minutes = int(math.ceil(config.duration_seconds / 60.0))
    partial_per_minute = [0] * minutes

    if audit is not None:
        audit.info(
            "cluster_load_scenario",
            duration_seconds=config.duration_seconds,
            initial_rate=config.initial_rate,
            target_rate=config.target_rate,
            kill_at=config.kill_at,
            kill_shard=config.kill_shard,
            kill_all_replicas=config.kill_all_replicas,
            revive_at=config.revive_at,
            arrivals=len(arrivals),
        )

    killed: list = []
    total = 0
    partial = 0
    hedged = 0
    queries_while_killed = 0
    shard_latencies: list[float] = []
    for i, t in enumerate(arrivals):
        clock.advance_to(t)
        if config.kill_at is not None and t >= config.kill_at and not killed:
            replicas = searcher.replicas(config.kill_shard)
            doomed = replicas if config.kill_all_replicas else replicas[:1]
            for replica in doomed:
                replica.kill()
            killed = doomed
        if config.revive_at is not None and killed and t >= config.revive_at:
            for replica in killed:
                replica.revive()
            killed = []

        if killed:
            queries_while_killed += 1
        searcher.search(queries[i % len(queries)])
        report = searcher.take_scatter_report()
        total += 1
        is_partial = False
        is_hedged = False
        probes: list[dict] = []
        if report is not None:
            shard_latencies.extend(probe.latency for probe in report.probes)
            is_hedged = report.hedged
            is_partial = report.partial
            if is_hedged:
                hedged += 1
            if is_partial:
                partial += 1
                partial_per_minute[min(int(t // 60.0), minutes - 1)] += 1
            if capacity is not None:
                capacity.observe("cluster", t, report.max_latency, failed=is_partial)
                for probe in report.probes:
                    capacity.observe(probe.resource, t, probe.latency, failed=not probe.ok)
            probes = [probe.audit_row() for probe in report.probes]
        if audit is not None:
            audit.info(
                "cluster_query",
                seq=i,
                arrival=t,
                partial=is_partial,
                hedged=is_hedged,
                probes=probes,
            )

    # A replica-churn scenario must *measure* degradation, not merely
    # survive it: if the whole shard was down while queries arrived and
    # not one came back partial, the fault injection silently missed (a
    # wrong shard id, a clock the searcher does not read) and an
    # all-green report would be a lie.
    if queries_while_killed > 0 and config.kill_all_replicas and partial == 0:
        raise RuntimeError(
            f"replica-churn scenario served {queries_while_killed} queries with "
            f"every replica of shard {config.kill_shard} down, yet recorded zero "
            "partial results — the fault injection did not degrade the cluster"
        )

    result = ClusterLoadTestReport(
        total_queries=total,
        partial_queries=partial,
        hedged_queries=hedged,
        shard_latency_p95=percentile(shard_latencies, 95.0) if shard_latencies else 0.0,
        partial_per_minute=partial_per_minute,
    )
    if audit is not None:
        # Round-trip through the canonical serialisation, not the in-memory
        # dicts: the guarantee is that the *file* reproduces the report.
        replayed = replay_cluster_report(read_audit_log(audit.lines()))
        if replayed != result:
            raise RuntimeError(
                "audit-log replay diverged from the live report: "
                f"{replayed} != {result}"
            )
    return result


def replay_cluster_report(entries: Iterable[dict]) -> ClusterLoadTestReport:
    """Rebuild a :class:`ClusterLoadTestReport` from audit-log entries alone.

    Expects one ``cluster_load_scenario`` header followed by the run's
    ``cluster_query`` entries (other events are ignored).  JSON round-trips
    floats exactly, so the replayed report — including the latency p95 —
    is equal, not merely close, to the live one.
    """
    scenario: dict | None = None
    total = 0
    partial = 0
    hedged = 0
    shard_latencies: list[float] = []
    partial_per_minute: list[int] = []
    from repro.service.monitoring import percentile

    for entry in entries:
        event = entry.get("event")
        if event == "cluster_load_scenario":
            scenario = entry
            minutes = int(math.ceil(float(entry["duration_seconds"]) / 60.0))
            partial_per_minute = [0] * minutes
        elif event == "cluster_query":
            if scenario is None:
                raise ValueError("cluster_query entry before the scenario header")
            total += 1
            shard_latencies.extend(probe["latency"] for probe in entry["probes"])
            if entry["hedged"]:
                hedged += 1
            if entry["partial"]:
                partial += 1
                minutes = len(partial_per_minute)
                partial_per_minute[min(int(entry["arrival"] // 60.0), minutes - 1)] += 1
    if scenario is None:
        raise ValueError("no cluster_load_scenario header in the audit log")
    return ClusterLoadTestReport(
        total_queries=total,
        partial_queries=partial,
        hedged_queries=hedged,
        shard_latency_p95=percentile(shard_latencies, 95.0) if shard_latencies else 0.0,
        partial_per_minute=partial_per_minute,
    )


def recommended_token_rate_limit(
    report: LoadTestReport, config: LoadTestConfig, target_failure_rate: float = 0.01
) -> float:
    """The paper's "simple calculation": size the quota from load-test results.

    Scales the tested quota by the demand it could not absorb, so the
    production limit keeps the expected failure rate under the target.
    """
    if report.total_requests == 0:
        return config.tokens_per_minute
    demand_tpm = report.total_requests * config.tokens_per_request / (
        config.duration_seconds / 60.0
    )
    peak_demand_tpm = config.target_rate * config.tokens_per_request * 60.0
    if report.failure_rate <= target_failure_rate:
        return config.tokens_per_minute
    # Provision for the peak arrival rate with the target slack.
    return peak_demand_tpm * (1.0 + target_failure_rate) if demand_tpm else peak_demand_tpm
