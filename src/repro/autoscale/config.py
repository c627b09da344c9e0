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

__all__ = ["AdmissionConfig", "AutoscaleConfig"]


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission control / staged load shedding of one deployment.

    The shedding ladder maps *pressure* (offered load over
    ``TARGET_LOAD``, 0 = idle, 1 = the deployment's full-quality
    capacity) to a degrade level per priority class.  Its parameters are
    constants of :mod:`repro.autoscale.admission`: ``TARGET_LOAD`` 6.0,
    the deadline-feasibility estimates ``FULL_LATENCY_ESTIMATE`` 4.0 s (the
    seed of an EWMA over observed full responses) and
    ``DEGRADED_LATENCY_ESTIMATE`` 0.5 s, the thresholds ``CACHED_ONLY_AT``
    0.70 → answer cache only, ``BM25_ONLY_AT`` 0.85 → BM25-only degraded
    answer, ``REJECT_AT`` 1.0 → typed rejection, per-priority headrooms and
    ``ADMISSION_WINDOW_SECONDS`` 60.  Lower priorities see the thresholds
    shifted down by their headroom, so canary traffic sheds first and
    interactive last.

    Attributes:
        enabled: construct the controller at all.  Off by default.
    """

    enabled: bool = False


@dataclass(frozen=True)
class AutoscaleConfig:
    """The closed autoscaling loop of a clustered deployment.

    Attributes:
        enabled: construct the autoscaler at all.  Off by default.
        admission: the admission-control sub-config (see
            :class:`AdmissionConfig`).

    The loop's parameters are constants of :mod:`repro.autoscale.autoscaler`:
    the per-shard replica bounds ``MIN_REPLICAS`` 1 and ``MAX_REPLICAS`` 6,
    ``SCALE_UP_COOLDOWN`` 30 s and ``SCALE_DOWN_COOLDOWN`` 120 s (eager up,
    lazy down), the defended ``LATENCY_SLO_SECONDS`` 8.0, the
    ``REBALANCE_SKEW`` 1.5 past which documents move to the coldest shard,
    and the evaluation interval, utilization thresholds, burn windows and
    targeted-scaling and rebalance fractions.  An autoscale-enabled cluster
    also always runs the :class:`~repro.autoscale.hedging.AdaptiveHedgeBudget`
    at that module's fixed fractions.
    """

    enabled: bool = False
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
