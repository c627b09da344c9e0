"""Admission control: priority classes and the staged shedding ladder.

The controller turns the capacity telemetry of :mod:`repro.obs.capacity`
into a per-request *admission decision*: serve at full quality, serve
degraded (answer-cache-only, then BM25-only), or reject with a typed
retry-after.  Pressure is offered load (Little's L over the controller's
rolling window) normalized by the load the deployment absorbs at full
quality; priority classes shift the ladder so canary traffic sheds first
and interactive traffic last — the paper's deployment guarantee that a
banking operator's interactive question survives a batch re-index storm.

Deadlines compose with pressure: a request whose ``deadline_ms`` cannot
be met by the full pipeline is served degraded even when pressure is low,
and rejected when even a degraded answer would be late.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.types import (
    PRIORITIES,
    PRIORITY_BATCH,
    PRIORITY_CANARY,
    PRIORITY_INTERACTIVE,
)
from repro.core.errors import AdmissionError
from repro.obs.capacity import CapacityMonitor
from repro.obs.metrics import NULL_REGISTRY

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "DECISION_NAMES",
    "LEVEL_FULL",
    "LEVEL_CACHED_ONLY",
    "LEVEL_DEGRADED",
    "LEVEL_REJECT",
]

#: The shedding-ladder levels.
LEVEL_FULL = 0
LEVEL_CACHED_ONLY = 1
LEVEL_DEGRADED = 2
LEVEL_REJECT = 3

#: Human/metric-facing names of the ladder levels.
DECISION_NAMES = {
    LEVEL_FULL: "full",
    LEVEL_CACHED_ONLY: "cached_only",
    LEVEL_DEGRADED: "bm25_only",
    LEVEL_REJECT: "rejected",
}

#: Internal resource key of the controller's capacity tracking.
_RESOURCE = "admission"

#: Offered load (Little's L) the deployment absorbs at full quality;
#: pressure = L / TARGET_LOAD.
TARGET_LOAD = 6.0
#: Seed of the full-pipeline latency EWMA (simulated seconds) that deadline
#: feasibility reads; observed full responses refine it.
FULL_LATENCY_ESTIMATE = 4.0
#: Estimated latency of a BM25-only degraded answer.
DEGRADED_LATENCY_ESTIMATE = 0.5

# The shedding ladder: pressure (offered load over ``TARGET_LOAD``, 0 = idle,
# 1 = the deployment's full-quality capacity) at which interactive traffic
# enters each level.
#: Pressure at which traffic degrades to answer-cache-only serving (level 1).
CACHED_ONLY_AT = 0.70
#: Pressure at which it degrades to BM25-only answers (level 2).
BM25_ONLY_AT = 0.85
#: Pressure at which it is rejected outright (level 3).
REJECT_AT = 1.0
#: Subtracted from the thresholds for batch traffic, so it sheds earlier.
BATCH_HEADROOM = 0.15
#: Subtracted for canary traffic, which sheds first.
CANARY_HEADROOM = 0.30
#: Base retry-after of a rejection; scales linearly with the overload past
#: ``REJECT_AT``.
RETRY_AFTER_SECONDS = 15.0
#: EWMA weight of each new full-pipeline latency observation.
LATENCY_EWMA_ALPHA = 0.2
#: Rolling window (simulated seconds) of the controller's offered-load tracking.
ADMISSION_WINDOW_SECONDS = 60.0


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict on one request.

    Attributes:
        level: the granted ladder level (``LEVEL_FULL`` ..
            ``LEVEL_REJECT``).
        pressure: the normalized pressure at decision time.
        priority: the request's priority class.
        retry_after_seconds: back-off hint, non-zero only on rejection.
        reason: why the level was granted — ``"pressure"``,
            ``"deadline"``, or ``"admitted"`` for an unshed request.
    """

    level: int
    pressure: float
    priority: str
    retry_after_seconds: float = 0.0
    reason: str = "admitted"

    @property
    def rejected(self) -> bool:
        return self.level >= LEVEL_REJECT

    def raise_if_rejected(self) -> None:
        """Raise the typed :class:`AdmissionError` for a rejection."""
        if not self.rejected:
            return
        raise AdmissionError(
            f"request rejected at admission ({self.reason}): "
            f"priority={self.priority} pressure={self.pressure:.2f}; "
            f"retry after {self.retry_after_seconds:.1f}s",
            priority=self.priority,
            retry_after_seconds=self.retry_after_seconds,
            pressure=self.pressure,
            reason=self.reason,
        )


class AdmissionController:
    """Staged load shedding off rolling offered load.

    Feed every served request through :meth:`observe` (the backend does);
    :meth:`admit` maps the current pressure and the request's priority /
    deadline to an :class:`AdmissionDecision`.  Deterministic: pressure
    is a pure function of the observed flight windows, so identical
    workloads shed identically.

    *registry* is optional; when set, a per-priority decision counter is
    registered at construction — enabling admission opts the deployment
    into the new exposition.  *recorder* is the optional incident flight
    recorder; per-priority ladder-level *transitions* (not every
    decision) land on it as ``admission_transition`` events.
    """

    def __init__(self, registry=None, recorder=None) -> None:
        self._capacity = CapacityMonitor(window_seconds=ADMISSION_WINDOW_SECONDS)
        self._full_latency = FULL_LATENCY_ESTIMATE
        self._headroom = {
            PRIORITY_INTERACTIVE: 0.0,
            PRIORITY_BATCH: BATCH_HEADROOM,
            PRIORITY_CANARY: CANARY_HEADROOM,
        }
        self._decisions = {name: 0 for name in DECISION_NAMES.values()}
        self._shed_total = 0
        self._rejected_total = 0
        self.recorder = recorder
        self._last_levels: dict[str, int] = {name: LEVEL_FULL for name in PRIORITIES}
        self._m_decisions = (registry or NULL_REGISTRY).counter(
            "uniask_admission_decisions_total",
            "Admission decisions, by priority class and granted level.",
            ("priority", "decision"),
        )

    # -- telemetry feed ----------------------------------------------------

    def observe(self, arrival: float, response_time: float, level: int = LEVEL_FULL) -> None:
        """Record one served flight window (in arrival order).

        Full-pipeline responses also refine the latency estimate used for
        deadline feasibility.
        """
        self._capacity.observe(_RESOURCE, arrival, response_time)
        if level == LEVEL_FULL and response_time > 0.0:
            self._full_latency = (
                1.0 - LATENCY_EWMA_ALPHA
            ) * self._full_latency + LATENCY_EWMA_ALPHA * response_time

    def pressure(self) -> float:
        """Offered load over ``TARGET_LOAD`` (0 = idle, 1 = at capacity)."""
        for sample in self._capacity.snapshot():
            if sample.resource == _RESOURCE:
                return sample.littles_load / TARGET_LOAD
        return 0.0

    # -- decisions ---------------------------------------------------------

    def _pressure_level(self, pressure: float, priority: str) -> int:
        shifted = pressure + self._headroom.get(priority, 0.0)
        if shifted >= REJECT_AT:
            return LEVEL_REJECT
        if shifted >= BM25_ONLY_AT:
            return LEVEL_DEGRADED
        if shifted >= CACHED_ONLY_AT:
            return LEVEL_CACHED_ONLY
        return LEVEL_FULL

    def _deadline_level(self, deadline_ms: int | None) -> int:
        """The cheapest level whose estimated latency meets the deadline.

        A level-1 (cache-only) grant can miss and fall through to the
        BM25 path, so for feasibility the ladder only distinguishes the
        full estimate from the degraded one.
        """
        if deadline_ms is None:
            return LEVEL_FULL
        deadline_s = deadline_ms / 1000.0
        if deadline_s >= self._full_latency:
            return LEVEL_FULL
        if deadline_s >= DEGRADED_LATENCY_ESTIMATE:
            return LEVEL_DEGRADED
        return LEVEL_REJECT

    def admit(self, priority: str, deadline_ms: int | None = None) -> AdmissionDecision:
        """Decide the ladder level for one request."""
        if priority not in PRIORITIES:
            raise ValueError(f"priority must be one of {PRIORITIES}")
        pressure = self.pressure()
        from_pressure = self._pressure_level(pressure, priority)
        from_deadline = self._deadline_level(deadline_ms)
        level = max(from_pressure, from_deadline)
        if level == LEVEL_FULL:
            reason = "admitted"
        elif from_deadline > from_pressure:
            reason = "deadline"
        else:
            reason = "pressure"
        retry_after = 0.0
        if level >= LEVEL_REJECT:
            overload = max(0.0, pressure - REJECT_AT)
            retry_after = RETRY_AFTER_SECONDS * (1.0 + overload)
        decision = AdmissionDecision(
            level=level,
            pressure=pressure,
            priority=priority,
            retry_after_seconds=retry_after,
            reason=reason,
        )
        name = DECISION_NAMES[level]
        if self.recorder is not None and level != self._last_levels[priority]:
            self.recorder.record(
                "admission_transition",
                "admission",
                priority=priority,
                from_level=DECISION_NAMES[self._last_levels[priority]],
                to_level=name,
                pressure=round(pressure, 4),
                reason=reason,
            )
            self._last_levels[priority] = level
        self._decisions[name] += 1
        if level > LEVEL_FULL:
            self._shed_total += 1
        if level >= LEVEL_REJECT:
            self._rejected_total += 1
        self._m_decisions.labels(priority, name).inc()
        return decision

    # -- observability -----------------------------------------------------

    def status(self) -> dict:
        """The ``admission`` ops-route payload."""
        return {
            "enabled": True,
            "pressure": round(self.pressure(), 4),
            "target_load": TARGET_LOAD,
            "full_latency_estimate": round(self._full_latency, 4),
            "decisions": dict(self._decisions),
            "shed_total": self._shed_total,
            "rejected_total": self._rejected_total,
            "ladder": {
                "cached_only_at": CACHED_ONLY_AT,
                "bm25_only_at": BM25_ONLY_AT,
                "reject_at": REJECT_AT,
            },
            "headroom": dict(self._headroom),
        }
