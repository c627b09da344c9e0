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

:func:`run_diurnal_load` is the repository's one fault-injection driver:
a **day of banking traffic** against the full backend — a sinusoidal
arrival rate (quiet night, busy mid-morning), Zipf-skewed question
popularity (a handful of questions dominate, so the answer cache
matters), and a chaos schedule that kills and revives replicas and flips
the answer-cache epoch mid-run (the thundering herd of a bulk corpus
refresh).  A flat open-system load test is a day with ``amplitude=0.0``,
"kill the whole shard" is one ``kill`` event per replica, and the
evidence of a run is the backend's own audit log — every ``request``
line carries ``partial`` and each shard probe's row.  Service capacity
is an M/G/k queue whose k is read live from the cluster: every alive
replica is one serving slot.  The generator drives the shared simulated
clock itself and therefore requires a backend built with request
coalescing active (the concurrent-server semantics of
``BackendService.serve``).  Arrivals come from inverting the integrated
rate function and sampling from a seeded ``random.Random`` stream, so a
day replays exactly.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.llm.rate_limiter import TokenBucketRateLimiter
from repro.service.monitoring import percentile

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


# -- the chaos day --------------------------------------------------------------

#: Chaos event kinds understood by :func:`run_diurnal_load`.
CHAOS_KILL = "kill"
CHAOS_REVIVE = "revive"
CHAOS_EPOCH_FLIP = "epoch_flip"
CHAOS_KINDS = (CHAOS_KILL, CHAOS_REVIVE, CHAOS_EPOCH_FLIP)

#: Question-popularity skew of the simulated day.
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: kill/revive a replica, or flip the cache epoch."""

    at: float
    kind: str
    shard_id: int = 0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("chaos events must be scheduled at t >= 0")
        if self.kind not in CHAOS_KINDS:
            raise ValueError(f"kind must be one of {CHAOS_KINDS}")
        if self.shard_id < 0:
            raise ValueError("shard_id must be non-negative")


@dataclass(frozen=True)
class DiurnalLoadConfig:
    """One simulated traffic day (compressed by default to 30 minutes)."""

    duration_seconds: float = 1800.0
    base_rate: float = 1.0  # mean arrivals per second over the day
    amplitude: float = 0.8  # peak swing as a fraction of base_rate
    period_seconds: float = 1800.0  # one full diurnal cycle
    seed: int = 17
    chaos: tuple[ChaosEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if self.period_seconds <= 0:
            raise ValueError("period_seconds must be positive")


@dataclass(frozen=True)
class DiurnalLoadReport:
    """What one diurnal run produced."""

    total_requests: int
    served: int
    partial: int  # answered from a degraded cluster (some shard dropped)
    latency_p50: float
    latency_p95: float
    latency_p99: float
    min_pool: int
    max_pool: int
    replica_kills: int
    epoch_flips: int
    unhandled_errors: tuple[str, ...] = ()


def diurnal_rate(config: DiurnalLoadConfig, t: float) -> float:
    """Instantaneous arrival rate at simulated second *t* (trough at t=0)."""
    phase = 2.0 * math.pi * t / config.period_seconds
    return config.base_rate * (1.0 - config.amplitude * math.cos(phase))


def _cumulative_arrivals(config: DiurnalLoadConfig, t: float) -> float:
    """Closed-form integral of :func:`diurnal_rate` from 0 to *t*."""
    omega = 2.0 * math.pi / config.period_seconds
    return config.base_rate * (t - config.amplitude * math.sin(omega * t) / omega)


def diurnal_arrivals(config: DiurnalLoadConfig) -> list[float]:
    """Deterministic arrival instants: the n-th arrival is Λ⁻¹(n).

    Λ is monotonic (amplitude < 1 keeps the rate positive), so each
    inverse is a simple bisection over [previous arrival, duration].
    """
    total = int(_cumulative_arrivals(config, config.duration_seconds))
    times: list[float] = []
    lo = 0.0
    for n in range(1, total + 1):
        hi = config.duration_seconds
        target = float(n)
        low = lo
        for _ in range(60):
            mid = 0.5 * (low + hi)
            if _cumulative_arrivals(config, mid) < target:
                low = mid
            else:
                hi = mid
        t = 0.5 * (low + hi)
        if t > config.duration_seconds:
            break
        times.append(t)
        lo = t
    return times


class ZipfSampler:
    """Seeded Zipf-skewed choice over a fixed item list (rank 1 hottest)."""

    def __init__(self, items: list[str], exponent: float, rng: random.Random) -> None:
        if not items:
            raise ValueError("at least one item is required")
        self._items = list(items)
        self._rng = rng
        cumulative: list[float] = []
        acc = 0.0
        for rank in range(1, len(items) + 1):
            acc += 1.0 / rank**exponent
            cumulative.append(acc)
        self._cumulative = cumulative
        self._total = acc

    def sample(self) -> str:
        draw = self._rng.random() * self._total
        return self._items[bisect_left(self._cumulative, draw)]


def _alive_by_shard(cluster) -> dict[int, int]:
    """Alive replicas per shard right now; their sum is the serving pool."""
    return {
        shard_id: sum(1 for replica in cluster.replicas(shard_id) if replica.alive)
        for shard_id in cluster.index.shard_ids
    }


def _apply_chaos(event: ChaosEvent, cluster) -> str:
    """Execute one chaos event; returns what actually happened."""
    if event.kind == CHAOS_EPOCH_FLIP:
        cluster.index.bump_generation()
        return CHAOS_EPOCH_FLIP
    replicas = cluster.replicas(event.shard_id)
    if event.kind == CHAOS_KILL:
        alive = [replica for replica in replicas if replica.alive]
        if not alive:
            return ""
        alive[-1].kill()
        return CHAOS_KILL
    dead = [replica for replica in replicas if not replica.alive]
    for replica in dead:
        replica.revive()
    return CHAOS_REVIVE if dead else ""


def run_diurnal_load(
    backend,
    cluster,
    clock,
    token: str,
    questions: list[str],
    config: DiurnalLoadConfig | None = None,
) -> DiurnalLoadReport:
    """Play one simulated traffic day through *backend* and report it.

    *cluster* is the :class:`~repro.cluster.router.ClusterSearcher` the
    backend's engine serves from (the replica pool and the chaos hooks);
    *clock* the shared simulated clock; *token* an employee session.
    Observed latency of each request is queue wait plus service time in
    an M/G/k queue whose k tracks the alive replica count — so replica
    churn moves the reported percentiles, not just the counters.

    **Any exception a request raises is a bug**: it is recorded in
    ``unhandled_errors`` (the run keeps going so one bad request doesn't
    hide the rest of the day) and callers should assert the tuple is
    empty.

    The schedule is checked before the first arrival: a ``kill`` or
    ``revive`` aimed at a shard the cluster does not have raises
    ``ValueError``.  Degradation is **asserted**, not just counted: when
    requests reached the router (not served from a cache, documents
    returned) while some shard had no alive replica and not one of them
    came back partial, the fault injection silently missed — *cluster* is
    not what the backend serves from — and the run raises
    ``RuntimeError`` instead of returning an all-green report.
    """
    config = config or DiurnalLoadConfig()
    if backend.single_flight is None:
        raise ValueError(
            "the diurnal load generator drives the clock itself; build the "
            "backend with coalescing active (concurrent-server semantics)"
        )
    if not questions:
        raise ValueError("at least one question is required")

    rng = random.Random(config.seed)
    sampler = ZipfSampler(questions, ZIPF_EXPONENT, rng)
    chaos = sorted(config.chaos, key=lambda event: event.at)
    chaos_cursor = 0
    shard_ids = cluster.index.shard_ids
    for event in chaos:
        if event.kind != CHAOS_EPOCH_FLIP and event.shard_id not in shard_ids:
            raise ValueError(
                f"chaos event {event.kind!r} at t={event.at:g} targets shard "
                f"{event.shard_id}; the cluster's shards are {list(shard_ids)}"
            )

    busy: list[float] = []  # completion times of occupied serving slots
    latencies: list[float] = []
    total = served = partial = 0
    replica_kills = epoch_flips = 0
    unhandled: list[str] = []
    pool = sum(_alive_by_shard(cluster).values())
    min_pool = max_pool = pool
    # Requests that reached the router while a shard was dark, and how
    # many of them came back partial (the silent-miss guard below).
    dark_shard = None
    reached_dark = partial_dark = 0

    for t in diurnal_arrivals(config):
        clock.advance_to(t)
        while chaos_cursor < len(chaos) and chaos[chaos_cursor].at <= t:
            applied = _apply_chaos(chaos[chaos_cursor], cluster)
            if applied == CHAOS_KILL:
                replica_kills += 1
            elif applied == CHAOS_EPOCH_FLIP:
                epoch_flips += 1
            chaos_cursor += 1

        alive = _alive_by_shard(cluster)
        pool = sum(alive.values())
        min_pool = min(min_pool, pool)
        max_pool = max(max_pool, pool)
        dark = [shard_id for shard_id, count in alive.items() if not count]

        question = sampler.sample()
        # The sampler shares this stream, which has always drawn once more
        # per arrival: the unused draw keeps the day's questions unchanged.
        rng.random()

        total += 1
        try:
            record = backend.serve(token, question)
        except Exception as error:  # noqa: BLE001 — the report *is* the assertion
            unhandled.append(f"{type(error).__name__}: {error}")
            continue

        served += 1
        answer = record.answer
        partial += answer.partial_results
        if dark and not answer.cache_hit and answer.documents:
            dark_shard = dark[0]
            reached_dark += 1
            partial_dark += answer.partial_results

        # M/G/k: wait for a slot when every alive replica is busy.
        while busy and busy[0] <= t:
            heapq.heappop(busy)
        service = answer.response_time
        if len(busy) < max(pool, 1):
            start = t
        else:
            start = max(t, heapq.heappop(busy))
        completion = start + service
        heapq.heappush(busy, completion)
        latencies.append(completion - t)

    if reached_dark and not partial_dark:
        raise RuntimeError(
            f"chaos day served {reached_dark} requests through the router with every "
            f"replica of shard {dark_shard} down, yet recorded zero partial results "
            "— the fault injection did not degrade the cluster the backend serves from"
        )
    return DiurnalLoadReport(
        total_requests=total,
        served=served,
        partial=partial,
        latency_p50=percentile(latencies, 50.0) if latencies else 0.0,
        latency_p95=percentile(latencies, 95.0) if latencies else 0.0,
        latency_p99=percentile(latencies, 99.0) if latencies else 0.0,
        min_pool=min_pool,
        max_pool=max_pool,
        replica_kills=replica_kills,
        epoch_flips=epoch_flips,
        unhandled_errors=tuple(unhandled),
    )
