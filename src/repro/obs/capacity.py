"""Saturation telemetry: the USE view (utilization, saturation, errors) of
every serving resource, plus rolling Little's-law load estimates.

The autoscaling/admission-control loop (ROADMAP item 2) needs to observe
*how close to the edge* the system is running, which none of the
per-request surfaces expose: queue depth, concurrency high-water marks,
utilization and offered load per backend and per replica.  This module
derives all of them from the one signal the simulation already produces —
the flight window ``[arrival, arrival + response_time)`` of every request,
fed in arrival order off the simulated clock by the backend's ``serve()``
and the load-test drivers.

For each resource key (``backend``, ``cluster``, ``shard0/r1``, ...):

* **concurrency** — flights whose windows overlap, tracked with a heap of
  end instants; the *high-water mark* is the peak observed concurrency and
  ``queue depth`` is ``concurrency - 1`` (one flight is in service, the
  rest wait);
* **utilization** — busy fraction of the rolling window: summed service
  time of window arrivals over the window span, capped at 1.0;
* **offered load / Little's L** — ``λ·W`` over the rolling window
  (arrival rate × mean response time), the average number of requests in
  the system by Little's law.  ``L`` crossing the replica count is the
  canonical "add capacity" signal.

Everything is deterministic and allocation-light; a deployment that never
constructs a :class:`CapacityMonitor` pays nothing.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from repro.obs.metrics import NULL_REGISTRY

__all__ = [
    "CapacityMonitor",
    "SaturationSample",
    "format_saturation",
]


@dataclass(frozen=True)
class SaturationSample:
    """One resource's saturation reading at snapshot time.

    Attributes:
        resource: the resource key (``backend``, ``shard0/r1``, ...).
        arrivals: total flights observed since construction.
        errors: flights flagged failed (the E of USE).
        in_flight: flights whose window was still open at the last arrival.
        concurrency_high_water: peak overlapping flights ever observed.
        queue_high_water: ``max(0, concurrency_high_water - 1)``.
        arrival_rate: λ over the rolling window (flights/second).
        mean_response_s: W over the rolling window (seconds).
        littles_load: L = λ·W — average requests in system (offered load).
        utilization: busy fraction of the rolling window, capped at 1.0.
        window_seconds: the rolling-window width used for λ/W/L.
    """

    resource: str
    arrivals: int
    errors: int
    in_flight: int
    concurrency_high_water: int
    queue_high_water: int
    arrival_rate: float
    mean_response_s: float
    littles_load: float
    utilization: float
    window_seconds: float

    def to_dict(self) -> dict:
        return {
            "resource": self.resource,
            "arrivals": self.arrivals,
            "errors": self.errors,
            "in_flight": self.in_flight,
            "concurrency_high_water": self.concurrency_high_water,
            "queue_high_water": self.queue_high_water,
            "arrival_rate": self.arrival_rate,
            "mean_response_s": self.mean_response_s,
            "littles_load": self.littles_load,
            "utilization": self.utilization,
            "window_seconds": self.window_seconds,
        }


class _ResourceState:
    """Mutable per-resource tracking (heap of active flight ends)."""

    __slots__ = (
        "active_ends",
        "arrivals",
        "errors",
        "high_water",
        "window",
        "last_arrival",
    )

    def __init__(self) -> None:
        self.active_ends: list[float] = []  # heap of flight end instants
        self.arrivals = 0
        self.errors = 0
        self.high_water = 0
        #: rolling (arrival, response_time) pairs, evicted by window width
        self.window: deque[tuple[float, float]] = deque()
        self.last_arrival = 0.0


class CapacityMonitor:
    """Derives USE/saturation telemetry from request flight windows.

    Feed :meth:`observe` in arrival order (the simulated clock guarantees
    this for every driver in the repo).  *registry* is optional; when set,
    per-resource gauges are registered **at construction** — a deployment
    that enables capacity telemetry has opted into the new exposition, and
    one that does not construct the monitor keeps its byte-identical
    /metrics output.
    """

    def __init__(self, window_seconds: float = 60.0, registry=None) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.window_seconds = float(window_seconds)
        self._resources: dict[str, _ResourceState] = {}
        registry = registry or NULL_REGISTRY
        self._g_inflight = registry.gauge(
            "uniask_saturation_in_flight",
            "Concurrent flights at the last arrival, by resource.",
            ("resource",),
        )
        self._g_high_water = registry.gauge(
            "uniask_saturation_concurrency_high_water",
            "Peak concurrent flights observed, by resource.",
            ("resource",),
        )
        self._g_queue_depth = registry.gauge(
            "uniask_saturation_queue_depth",
            "Waiting flights (concurrency - 1) at the last arrival.",
            ("resource",),
        )
        self._g_utilization = registry.gauge(
            "uniask_saturation_utilization",
            "Rolling-window busy fraction, by resource (0..1).",
            ("resource",),
        )
        self._g_load = registry.gauge(
            "uniask_saturation_littles_load",
            "Rolling-window Little's-law load estimate (L = lambda * W).",
            ("resource",),
        )

    def observe(
        self, resource: str, arrival: float, response_time: float, failed: bool = False
    ) -> None:
        """Record one flight ``[arrival, arrival + response_time)``."""
        state = self._resources.get(resource)
        if state is None:
            state = self._resources[resource] = _ResourceState()
        ends = state.active_ends
        while ends and ends[0] <= arrival:
            heapq.heappop(ends)
        heapq.heappush(ends, arrival + response_time)
        state.arrivals += 1
        if failed:
            state.errors += 1
        if len(ends) > state.high_water:
            state.high_water = len(ends)
        state.last_arrival = arrival
        window = state.window
        window.append((arrival, response_time))
        horizon = arrival - self.window_seconds
        while window and window[0][0] < horizon:
            window.popleft()
        self._g_inflight.labels(resource).set(float(len(ends)))
        self._g_high_water.labels(resource).set(float(state.high_water))
        self._g_queue_depth.labels(resource).set(float(max(0, len(ends) - 1)))

    def _sample(self, resource: str, state: _ResourceState) -> SaturationSample:
        window = state.window
        if window:
            span = max(state.last_arrival - window[0][0], 1e-9)
            # With one arrival in the window the span collapses; treat the
            # full window width as the denominator so a lone request never
            # reads as infinite load.
            if len(window) == 1:
                span = self.window_seconds
            rate = len(window) / span
            mean_response = sum(r for _, r in window) / len(window)
            busy = sum(r for _, r in window)
            utilization = min(1.0, busy / span)
        else:
            rate = 0.0
            mean_response = 0.0
            utilization = 0.0
        in_flight = sum(1 for end in state.active_ends if end > state.last_arrival)
        return SaturationSample(
            resource=resource,
            arrivals=state.arrivals,
            errors=state.errors,
            in_flight=in_flight,
            concurrency_high_water=state.high_water,
            queue_high_water=max(0, state.high_water - 1),
            arrival_rate=rate,
            mean_response_s=mean_response,
            littles_load=rate * mean_response,
            utilization=utilization,
            window_seconds=self.window_seconds,
        )

    def snapshot(self) -> tuple[SaturationSample, ...]:
        """Per-resource saturation readings, sorted by resource key.

        Also refreshes the utilization/load gauges when a registry was
        attached, so /metrics and the dashboard agree.
        """
        samples = []
        for resource in sorted(self._resources):
            sample = self._sample(resource, self._resources[resource])
            samples.append(sample)
            self._g_utilization.labels(resource).set(sample.utilization)
            self._g_load.labels(resource).set(sample.littles_load)
        return tuple(samples)


def format_saturation(samples: tuple[SaturationSample, ...]) -> str:
    """Render the dashboard "saturation" section (one line per resource)."""
    header = (
        f"{'resource':<18} {'util':>6} {'L':>7} {'lam/s':>7} {'W':>8} "
        f"{'hwm':>4} {'queue':>5} {'inflt':>5} {'err':>4}"
    )
    lines = [header, "-" * len(header)]
    for s in samples:
        lines.append(
            f"{s.resource:<18} {s.utilization:>5.0%} {s.littles_load:>7.2f} "
            f"{s.arrival_rate:>7.2f} {s.mean_response_s:>7.3f}s "
            f"{s.concurrency_high_water:>4} {s.queue_high_water:>5} "
            f"{s.in_flight:>5} {s.errors:>4}"
        )
    return "\n".join(lines)
