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
    capacity) to a degrade level per priority class:

    ======  =========================  ==============================
    level   served by                  entered when pressure reaches
    ======  =========================  ==============================
    0       full pipeline              (below ``cached_only_at``)
    1       answer cache only          ``cached_only_at``
    2       BM25-only degraded answer  ``bm25_only_at``
    3       typed rejection            ``reject_at``
    ======  =========================  ==============================

    Lower priorities see the thresholds shifted down by their headroom,
    so canary traffic sheds first and interactive last.

    Attributes:
        enabled: construct the controller at all.  Off by default.
        target_load: offered load (Little's L) the deployment absorbs at
            full quality; pressure = L / target_load.
        cached_only_at: pressure at which interactive traffic degrades
            to answer-cache-only serving (level 1).
        bm25_only_at: pressure at which it degrades to BM25-only
            answers (level 2).
        reject_at: pressure at which it is rejected outright (level 3).
        batch_headroom: subtracted from the thresholds for batch traffic.
        canary_headroom: subtracted for canary traffic.
        retry_after_seconds: base retry-after of a rejection; scales
            linearly with the overload past ``reject_at``.
        window_seconds: rolling window of the controller's internal
            load tracking.
        full_latency_estimate: initial estimate of a full-pipeline
            response (simulated seconds) for deadline feasibility;
            refined by an EWMA of observed full responses.
        degraded_latency_estimate: estimated latency of a BM25-only
            degraded answer.
        latency_ewma_alpha: EWMA weight of each new full-pipeline
            observation.
    """

    enabled: bool = False
    target_load: float = 6.0
    cached_only_at: float = 0.70
    bm25_only_at: float = 0.85
    reject_at: float = 1.0
    batch_headroom: float = 0.15
    canary_headroom: float = 0.30
    retry_after_seconds: float = 15.0
    window_seconds: float = 60.0
    full_latency_estimate: float = 4.0
    degraded_latency_estimate: float = 0.5
    latency_ewma_alpha: float = 0.2

    def __post_init__(self) -> None:
        if self.target_load <= 0:
            raise ConfigurationError("target_load must be positive")
        if not 0.0 < self.cached_only_at <= self.bm25_only_at <= self.reject_at:
            raise ConfigurationError(
                "shedding ladder must be ordered: 0 < cached_only_at <= "
                "bm25_only_at <= reject_at"
            )
        if self.batch_headroom < 0 or self.canary_headroom < self.batch_headroom:
            raise ConfigurationError(
                "headrooms must satisfy 0 <= batch_headroom <= canary_headroom"
            )
        if self.retry_after_seconds < 0:
            raise ConfigurationError("retry_after_seconds must be non-negative")
        if self.window_seconds <= 0:
            raise ConfigurationError("window_seconds must be positive")
        if self.full_latency_estimate <= 0 or self.degraded_latency_estimate <= 0:
            raise ConfigurationError("latency estimates must be positive")
        if not 0.0 < self.latency_ewma_alpha <= 1.0:
            raise ConfigurationError("latency_ewma_alpha must be in (0, 1]")


@dataclass(frozen=True)
class AutoscaleConfig:
    """The closed autoscaling loop of a clustered deployment.

    Attributes:
        enabled: construct the autoscaler at all.  Off by default.
        min_replicas: per-shard floor the scaler never goes below.
        max_replicas: per-shard ceiling it never exceeds.
        evaluate_interval: simulated seconds between control decisions.
        scale_up_cooldown: minimum gap between scale-up actions.
        scale_down_cooldown: minimum gap between scale-down actions
            (longer, so the scaler is eager up and lazy down).
        target_utilization: offered load per alive replica above which
            capacity is added.
        scale_down_below: load per replica below which capacity is
            removed.
        latency_slo_seconds: the latency SLO the loop defends — a
            response within this many simulated seconds counts as good.
        latency_objective: the SLO objective (fraction of good
            responses, e.g. 0.95).
        burn_short_seconds / burn_long_seconds: the multi-window pair a
            burn-rate scale-up requires (both windows must burn, the
            standard guard against reacting to a blip).
        burn_threshold: error-budget burn rate that forces a scale-up
            regardless of utilization.
        sample_horizon: how much SLO history the scaler retains.
        hot_shard_ratio: a shard whose load-per-replica exceeds the
            cluster mean by this factor gets the next replica (targeted
            scaling under skew).
        rebalance_skew: chunk-count skew (hottest shard over cluster
            mean) past which the scaler moves documents to the coldest
            shard with the ring planner's minimal-movement pins.
        rebalance_fraction: fraction of the hot shard's documents moved
            per rebalance action.
        hedge_base_fraction: fraction of probes allowed to hedge when
            the cluster is idle (an autoscale-enabled cluster always runs
            the :class:`AdaptiveHedgeBudget`, shrinking hedged retries as
            utilization rises).
        hedge_disable_above: utilization at which the hedge budget
            reaches zero.
        admission: the admission-control sub-config (see
            :class:`AdmissionConfig`).
    """

    enabled: bool = False
    min_replicas: int = 1
    max_replicas: int = 6
    evaluate_interval: float = 15.0
    scale_up_cooldown: float = 30.0
    scale_down_cooldown: float = 120.0
    target_utilization: float = 0.70
    scale_down_below: float = 0.30
    latency_slo_seconds: float = 8.0
    latency_objective: float = 0.95
    burn_short_seconds: float = 60.0
    burn_long_seconds: float = 300.0
    burn_threshold: float = 4.0
    sample_horizon: float = 900.0
    hot_shard_ratio: float = 1.5
    rebalance_skew: float = 1.5
    rebalance_fraction: float = 0.25
    hedge_base_fraction: float = 0.3
    hedge_disable_above: float = 0.85
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ConfigurationError("min_replicas must be at least 1")
        if self.max_replicas < self.min_replicas:
            raise ConfigurationError("max_replicas must be >= min_replicas")
        if self.evaluate_interval <= 0:
            raise ConfigurationError("evaluate_interval must be positive")
        if self.scale_up_cooldown < 0 or self.scale_down_cooldown < 0:
            raise ConfigurationError("cooldowns must be non-negative")
        if not 0.0 < self.scale_down_below < self.target_utilization:
            raise ConfigurationError(
                "must satisfy 0 < scale_down_below < target_utilization"
            )
        if self.latency_slo_seconds <= 0:
            raise ConfigurationError("latency_slo_seconds must be positive")
        if not 0.0 < self.latency_objective < 1.0:
            raise ConfigurationError("latency_objective must be in (0, 1)")
        if not 0.0 < self.burn_short_seconds < self.burn_long_seconds:
            raise ConfigurationError(
                "burn windows must satisfy 0 < short < long"
            )
        if self.burn_threshold <= 0:
            raise ConfigurationError("burn_threshold must be positive")
        if self.sample_horizon < self.burn_long_seconds:
            raise ConfigurationError("sample_horizon must cover the long burn window")
        if self.hot_shard_ratio < 1.0:
            raise ConfigurationError("hot_shard_ratio must be >= 1.0")
        if self.rebalance_skew < 1.0:
            raise ConfigurationError("rebalance_skew must be >= 1.0")
        if not 0.0 < self.rebalance_fraction <= 0.5:
            raise ConfigurationError("rebalance_fraction must be in (0, 0.5]")
        if not 0.0 <= self.hedge_base_fraction <= 1.0:
            raise ConfigurationError("hedge_base_fraction must be in [0, 1]")
        if not 0.0 < self.hedge_disable_above <= 1.0:
            raise ConfigurationError("hedge_disable_above must be in (0, 1]")
