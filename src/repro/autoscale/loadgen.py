"""Chaos-capable diurnal load generator for the autoscaling control loop.

Where the Figure 2 load test ramps linearly against a rate-limited LLM,
this generator models a **day of banking traffic** against the full
backend: a sinusoidal arrival rate (quiet night, busy mid-morning),
Zipf-skewed question popularity (a handful of questions dominate, so the
answer cache and the hot-shard logic both matter), priority-class mix,
and a chaos schedule that kills and revives replicas and flips the
answer-cache epoch mid-run (the thundering herd of a bulk corpus
refresh).  It is the repository's one fault-injection driver: a flat
open-system load test is a day with ``amplitude=0.0``, "kill the whole
shard" is one ``kill`` event per replica, and the evidence of a run is
the backend's own audit log — every ``request`` line carries
``partial``, ``degrade_level`` and each shard probe's row.

Service capacity is an **M/G/k queue whose k is read live from the
cluster**: every alive replica is one serving slot, so an autoscaler
adding replicas visibly drains the queue while a fixed deployment
saturates at the diurnal peak.  The generator drives the shared
simulated clock itself and therefore requires a backend built with
request coalescing active (the concurrent-server semantics of
``BackendService.serve``).

Everything is deterministic: arrivals come from inverting the integrated
rate function, sampling from seeded ``random.Random`` streams, and time
from the injected clock.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.api.types import (
    PRIORITIES,
    PRIORITY_BATCH,
    PRIORITY_CANARY,
    PRIORITY_INTERACTIVE,
    AskOptions,
    AskRequest,
)
from repro.core.errors import AdmissionError

#: Chaos event kinds understood by :func:`run_diurnal_load`.
CHAOS_KILL = "kill"
CHAOS_REVIVE = "revive"
CHAOS_EPOCH_FLIP = "epoch_flip"
CHAOS_KINDS = (CHAOS_KILL, CHAOS_REVIVE, CHAOS_EPOCH_FLIP)

#: Question-popularity skew of the simulated day.
ZIPF_EXPONENT = 1.1
#: Share of the day's requests sent at batch / canary priority (the rest
#: is interactive).
BATCH_FRACTION = 0.20
CANARY_FRACTION = 0.05


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
    """What one diurnal run produced, per priority class and overall."""

    total_requests: int
    served: int
    rejected: int
    degraded_cached: int  # ladder level 1
    degraded_bm25: int  # ladder level 2
    partial: int  # answered from a degraded cluster (some shard dropped)
    latency_p50: float
    latency_p95: float
    latency_p99: float
    min_pool: int
    max_pool: int
    replica_kills: int
    epoch_flips: int
    rejected_by_priority: dict[str, int] = field(default_factory=dict)
    unhandled_errors: tuple[str, ...] = ()

    @property
    def shed_rate(self) -> float:
        """Requests that got anything less than full service, over total."""
        if self.total_requests == 0:
            return 0.0
        shed = self.rejected + self.degraded_cached + self.degraded_bm25
        return shed / self.total_requests


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


def _sample_priority(rng: random.Random) -> str:
    draw = rng.random()
    if draw < CANARY_FRACTION:
        return PRIORITY_CANARY
    if draw < CANARY_FRACTION + BATCH_FRACTION:
        return PRIORITY_BATCH
    return PRIORITY_INTERACTIVE


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
    """Play one simulated traffic day through *backend* and report QoS.

    *cluster* is the :class:`~repro.cluster.router.ClusterSearcher` the
    backend's engine serves from (the replica pool and the chaos hooks);
    *clock* the shared simulated clock; *token* an employee session.
    Observed latency of each request is queue wait plus service time in
    an M/G/k queue whose k tracks the alive replica count — so replica
    churn and autoscaler decisions move the reported percentiles, not
    just the counters.

    Admission rejections (:class:`~repro.core.errors.AdmissionError`) are
    expected output, counted per priority.  **Any other exception is a
    bug**: it is recorded in ``unhandled_errors`` (the run keeps going so
    one bad request doesn't hide the rest of the day) and callers should
    assert the tuple is empty.

    The schedule is checked before the first arrival: a ``kill`` or
    ``revive`` aimed at a shard the cluster does not have raises
    ``ValueError``.  Degradation is **asserted**, not just counted: when
    requests reached the router (not served from a cache, documents
    returned) while some shard had no alive replica and not one of them
    came back partial, the fault injection silently missed — *cluster* is
    not what the backend serves from — and the run raises
    ``RuntimeError`` instead of returning an all-green report.
    """
    from repro.service.monitoring import percentile

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
    total = served = rejected = 0
    degraded_cached = degraded_bm25 = partial = 0
    replica_kills = epoch_flips = 0
    rejected_by_priority = {priority: 0 for priority in PRIORITIES}
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
        priority = _sample_priority(rng)
        request = AskRequest(question=question, options=AskOptions(priority=priority))

        total += 1
        try:
            record = backend.serve(token, request)
        except AdmissionError:
            rejected += 1
            rejected_by_priority[priority] += 1
            continue
        except Exception as error:  # noqa: BLE001 — the report *is* the assertion
            unhandled.append(f"{type(error).__name__}: {error}")
            continue

        served += 1
        answer = record.answer
        if answer.degrade_level == 1:
            degraded_cached += 1
        elif answer.degrade_level >= 2:
            degraded_bm25 += 1
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
        rejected=rejected,
        degraded_cached=degraded_cached,
        degraded_bm25=degraded_bm25,
        partial=partial,
        latency_p50=percentile(latencies, 50.0) if latencies else 0.0,
        latency_p95=percentile(latencies, 95.0) if latencies else 0.0,
        latency_p99=percentile(latencies, 99.0) if latencies else 0.0,
        min_pool=min_pool,
        max_pool=max_pool,
        replica_kills=replica_kills,
        epoch_flips=epoch_flips,
        rejected_by_priority=rejected_by_priority,
        unhandled_errors=tuple(unhandled),
    )
