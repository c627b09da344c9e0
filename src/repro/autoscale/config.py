"""Configuration of the closed-loop autoscaling and admission layer.

Both knobs default to **off**: a deployment that never sets
``AutoscaleConfig.enabled`` or ``AdmissionConfig.enabled`` constructs no
autoscaler, no admission controller and no hedge budget, and every serve
surface stays byte-identical to the pre-autoscale code (the differential
suite asserts this).

The thresholds speak the language of the existing saturation telemetry
(:mod:`repro.obs.capacity`, :mod:`repro.obs.slo`): *pressure* is
offered load (Little's L) over the load the deployment absorbs at full
quality, *utilization* is L per serving replica, and scale-ups fire off
multi-window SLO burn rate the way the alerting rules do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError

__all__ = ["AdmissionConfig", "AutoscaleConfig"]


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission control / staged load shedding of one deployment.

    The shedding ladder maps *pressure* (offered load over
    ``target_load``, 0 = idle, 1 = the deployment's full-quality
    capacity) to a degrade level per priority class; its thresholds,
    per-priority headrooms and load-tracking window are constants of
    :mod:`repro.autoscale.admission` (``CACHED_ONLY_AT`` 0.70 → answer
    cache only, ``BM25_ONLY_AT`` 0.85 → BM25-only degraded answer,
    ``REJECT_AT`` 1.0 → typed rejection, ``ADMISSION_WINDOW_SECONDS``
    60).  Lower priorities see the thresholds shifted down by their
    headroom, so canary traffic sheds first and interactive last.

    Attributes:
        enabled: construct the controller at all.  Off by default.
        target_load: offered load (Little's L) the deployment absorbs at
            full quality; pressure = L / target_load.
        full_latency_estimate: initial estimate of a full-pipeline
            response (simulated seconds) for deadline feasibility;
            refined by an EWMA of observed full responses.
        degraded_latency_estimate: estimated latency of a BM25-only
            degraded answer.
    """

    enabled: bool = False
    target_load: float = 6.0
    full_latency_estimate: float = 4.0
    degraded_latency_estimate: float = 0.5

    def __post_init__(self) -> None:
        if self.target_load <= 0:
            raise ConfigurationError("target_load must be positive")
        if self.full_latency_estimate <= 0 or self.degraded_latency_estimate <= 0:
            raise ConfigurationError("latency estimates must be positive")


@dataclass(frozen=True)
class AutoscaleConfig:
    """The closed autoscaling loop of a clustered deployment.

    Attributes:
        enabled: construct the autoscaler at all.  Off by default.
        min_replicas: per-shard floor the scaler never goes below.
        max_replicas: per-shard ceiling it never exceeds.
        scale_up_cooldown: minimum gap between scale-up actions.
        scale_down_cooldown: minimum gap between scale-down actions
            (longer, so the scaler is eager up and lazy down).
        latency_slo_seconds: the latency SLO the loop defends — a
            response within this many simulated seconds counts as good.
        rebalance_skew: chunk-count skew (hottest shard over cluster
            mean) past which the scaler moves documents to the coldest
            shard with the ring planner's minimal-movement pins.
        admission: the admission-control sub-config (see
            :class:`AdmissionConfig`).

    The loop's fixed parameters — evaluation interval, utilization
    thresholds, the latency objective and its burn windows, targeted-
    scaling and rebalance fractions — are constants of
    :mod:`repro.autoscale.autoscaler`; an autoscale-enabled cluster also
    always runs the :class:`~repro.autoscale.hedging.AdaptiveHedgeBudget`
    at that module's fixed fractions.
    """

    enabled: bool = False
    min_replicas: int = 1
    max_replicas: int = 6
    scale_up_cooldown: float = 30.0
    scale_down_cooldown: float = 120.0
    latency_slo_seconds: float = 8.0
    rebalance_skew: float = 1.5
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ConfigurationError("min_replicas must be at least 1")
        if self.max_replicas < self.min_replicas:
            raise ConfigurationError("max_replicas must be >= min_replicas")
        if self.scale_up_cooldown < 0 or self.scale_down_cooldown < 0:
            raise ConfigurationError("cooldowns must be non-negative")
        if self.latency_slo_seconds <= 0:
            raise ConfigurationError("latency_slo_seconds must be positive")
        if self.rebalance_skew < 1.0:
            raise ConfigurationError("rebalance_skew must be >= 1.0")
