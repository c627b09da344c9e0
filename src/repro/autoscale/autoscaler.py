"""The closed autoscaling loop: saturation telemetry in, topology out.

The observation side already exists — flight-window capacity tracking
(:mod:`repro.obs.capacity`) and multi-window SLO burn rates
(:mod:`repro.obs.slo`).  The :class:`Autoscaler` closes the loop: every
``EVALUATE_INTERVAL`` simulated seconds it reads offered load per alive
replica and the latency-SLO burn, then

* **heals** any shard whose every replica is dead before anything else
  (a dark shard serves nothing and the heat proxy cannot see it), with
  no cooldown — only the evaluation interval rate-limits repairs;
* **scales up** the hottest shard (replica added) when utilization
  crosses the target or both burn windows trip — eager, short cooldown;
* **scales down** the coldest shard when load per replica stays under
  the floor — lazy, long cooldown, never below ``MIN_REPLICAS``;
* **rebalances** document placement with the consistent-hash planner's
  minimal-movement pins when chunk skew makes one shard structurally
  hot (Zipfian corpora do this), moving a bounded fraction of the hot
  shard's documents to the coldest shard;
* feeds the current utilization to the router's
  :class:`~repro.autoscale.hedging.AdaptiveHedgeBudget`, so hedged
  retries dry up as the pool saturates.

Everything runs on the deployment's :class:`SimulatedClock` and is
deterministic: the same workload produces the same decision log.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.autoscale.hedging import AdaptiveHedgeBudget
from repro.obs.capacity import CapacityMonitor
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.slo import SLO, BurnWindow, SloSample, evaluate_burn_rates

__all__ = ["Autoscaler", "ScaleDecision"]

#: Internal resource key of the scaler's capacity tracking.
_RESOURCE = "cluster"

#: Simulated seconds between control decisions.
EVALUATE_INTERVAL = 15.0
#: Offered load per alive replica above which capacity is added.
TARGET_UTILIZATION = 0.70
#: Load per replica below which capacity is removed.
SCALE_DOWN_BELOW = 0.30
#: Per-shard replica floor the scaler never goes below.
MIN_REPLICAS = 1
#: Per-shard replica ceiling it never exceeds.
MAX_REPLICAS = 6
#: Minimum gap between scale-up (and rebalance) actions.
SCALE_UP_COOLDOWN = 30.0
#: Minimum gap between scale-down actions (longer: eager up, lazy down).
SCALE_DOWN_COOLDOWN = 120.0
#: The latency SLO the loop defends: a response within this many simulated
#: seconds counts as good.
LATENCY_SLO_SECONDS = 8.0
#: Chunk-count skew (hottest shard over cluster mean) past which the scaler
#: moves documents to the coldest shard.
REBALANCE_SKEW = 1.5
#: The latency SLO objective (fraction of responses within
#: ``LATENCY_SLO_SECONDS``).
LATENCY_OBJECTIVE = 0.95
#: The multi-window pair a burn-rate scale-up requires (both windows must
#: burn, the standard guard against reacting to a blip).
BURN_SHORT_SECONDS = 60.0
BURN_LONG_SECONDS = 300.0
#: Error-budget burn rate that forces a scale-up regardless of utilization.
BURN_THRESHOLD = 4.0
_BURN_WINDOWS = (
    BurnWindow(
        short_seconds=BURN_SHORT_SECONDS,
        long_seconds=BURN_LONG_SECONDS,
        max_burn_rate=BURN_THRESHOLD,
        severity="scale-up",
    ),
)
#: How much SLO history the scaler retains (covers the long burn window).
SAMPLE_HORIZON = 900.0
#: A shard whose load-per-replica exceeds the cluster mean by this factor
#: gets the next replica (targeted scaling under skew).
HOT_SHARD_RATIO = 1.5
#: Fraction of the hot shard's documents moved per rebalance action.
REBALANCE_FRACTION = 0.25


@dataclass(frozen=True)
class ScaleDecision:
    """One control action taken by the autoscaler.

    Attributes:
        at: simulated timestamp of the action.
        action: ``"add_replica"``, ``"remove_replica"`` or
            ``"rebalance"``.
        shard_id: the shard acted on.
        detail: replica id added/removed, or ``"moved=N->shard"`` for a
            rebalance.
        reason: the signal that triggered the action.
        total_replicas: alive replicas across the cluster afterwards.
    """

    at: float
    action: str
    shard_id: int
    detail: str
    reason: str
    total_replicas: int

    def to_dict(self) -> dict:
        return {
            "at": self.at,
            "action": self.action,
            "shard_id": self.shard_id,
            "detail": self.detail,
            "reason": self.reason,
            "total_replicas": self.total_replicas,
        }


class Autoscaler:
    """Drives replica counts and shard placement off saturation telemetry.

    Args:
        cluster: the :class:`~repro.cluster.router.ClusterSearcher` to
            act on (must expose ``add_replica`` / ``remove_replica`` /
            ``status`` and the sharded index).
        clock: the deployment's simulated clock.
        config: loop parameters; see :class:`AutoscaleConfig`.
        registry: optional metrics registry — instruments are registered
            at construction, so only autoscaling deployments gain the
            new exposition.
        hedge_budget: the router's adaptive hedge budget, when installed.
        recorder: optional incident flight recorder; every
            :class:`ScaleDecision` and every hedge-budget on/off
            transition lands on it as a control-plane event.
    """

    def __init__(
        self,
        cluster,
        clock,
        registry=None,
        hedge_budget: AdaptiveHedgeBudget | None = None,
        recorder=None,
    ) -> None:
        self._cluster = cluster
        self._clock = clock
        self._capacity = CapacityMonitor(window_seconds=BURN_SHORT_SECONDS)
        self._slo = SLO(
            name="latency",
            objective=LATENCY_OBJECTIVE,
            description=(
                f"responses within {LATENCY_SLO_SECONDS:g}s simulated"
            ),
        )
        self._samples: deque[SloSample] = deque()
        self._decisions: list[ScaleDecision] = []
        self._last_evaluate = float("-inf")
        self._last_scale_up = float("-inf")
        self._last_scale_down = float("-inf")
        self._last_rebalance = float("-inf")
        self._utilization = 0.0
        self.hedge_budget = hedge_budget
        self.recorder = recorder
        self._hedges_disabled = False
        registry = registry or NULL_REGISTRY
        self._g_replicas = registry.gauge(
            "uniask_autoscale_replicas",
            "Alive replicas per shard, as managed by the autoscaler.",
            ("shard",),
        )
        self._m_actions = registry.counter(
            "uniask_autoscale_actions_total",
            "Autoscaler control actions, by kind.",
            ("action",),
        )

    # -- telemetry feed ----------------------------------------------------

    def note_request(self, arrival: float, response_time: float, failed: bool = False) -> None:
        """Record one served request (in arrival order)."""
        self._capacity.observe(_RESOURCE, arrival, response_time, failed=failed)
        good = not failed and response_time <= LATENCY_SLO_SECONDS
        self._samples.append(SloSample(timestamp=arrival, good=good))
        horizon = arrival - SAMPLE_HORIZON
        while self._samples and self._samples[0].timestamp < horizon:
            self._samples.popleft()

    # -- the control loop --------------------------------------------------

    def maybe_evaluate(self, now: float | None = None) -> list[ScaleDecision]:
        """Run :meth:`evaluate` if an interval has elapsed; else no-op."""
        at = self._clock.now() if now is None else now
        if at - self._last_evaluate < EVALUATE_INTERVAL:
            return []
        return self.evaluate(at)

    def evaluate(self, now: float | None = None) -> list[ScaleDecision]:
        """One control decision: read the signals, maybe act."""
        at = self._clock.now() if now is None else now
        self._last_evaluate = at

        load = 0.0
        for sample in self._capacity.snapshot():
            if sample.resource == _RESOURCE:
                load = sample.littles_load
        status = self._cluster.status()
        shard_alive = {
            shard.shard_id: sum(1 for r in shard.replicas if r.alive)
            for shard in status.shards
        }
        shard_chunks = {shard.shard_id: shard.chunks for shard in status.shards}
        total_alive = max(1, sum(shard_alive.values()))
        self._utilization = load / total_alive
        if self.hedge_budget is not None:
            self.hedge_budget.update_utilization(self._utilization)
            if self.recorder is not None:
                disabled = self._utilization >= self.hedge_budget.disable_above
                if disabled != self._hedges_disabled:
                    self.recorder.record(
                        "hedges_disabled" if disabled else "hedges_restored",
                        "autoscaler",
                        utilization=round(self._utilization, 4),
                    )
                    self._hedges_disabled = disabled
        for shard_id, alive in shard_alive.items():
            self._g_replicas.labels(str(shard_id)).set(float(alive))

        burning = bool(
            evaluate_burn_rates(self._slo, list(self._samples), at, _BURN_WINDOWS)
        )
        taken: list[ScaleDecision] = []

        # Per-shard heat: chunks per alive replica, the structural load
        # proxy (scatter-gather sends every query to every shard, so a
        # shard is hot when it holds more documents per server).
        heat = {
            shard_id: shard_chunks[shard_id] / max(1, shard_alive[shard_id])
            for shard_id in shard_alive
        }
        mean_heat = sum(heat.values()) / max(1, len(heat))

        # Self-healing comes first and bypasses the scale-up cooldown: a
        # shard with zero alive replicas serves nothing at all, and the
        # heat proxy below cannot see it (no denominator), so without
        # this path a killed shard would stay dark until an operator
        # noticed.  EVALUATE_INTERVAL still rate-limits the repair.
        for shard_id in sorted(
            (sid for sid, alive in shard_alive.items() if alive == 0),
            key=lambda sid: (-shard_chunks[sid], sid),
        ):
            replica_id = self._cluster.add_replica(shard_id)
            shard_alive[shard_id] = 1
            taken.append(
                self._record(
                    at, "add_replica", shard_id, replica_id, "dead_shard",
                    sum(shard_alive.values()),
                )
            )
        if taken:
            return taken

        want_up = burning or self._utilization > TARGET_UTILIZATION
        hot_shards = [
            shard_id
            for shard_id, value in heat.items()
            if mean_heat > 0.0
            and value > HOT_SHARD_RATIO * mean_heat
            and shard_alive[shard_id] < MAX_REPLICAS
        ]
        if (want_up or hot_shards) and at - self._last_scale_up >= SCALE_UP_COOLDOWN:
            candidates = hot_shards or [
                shard_id
                for shard_id in shard_alive
                if shard_alive[shard_id] < MAX_REPLICAS
            ]
            if candidates:
                target = max(candidates, key=lambda sid: (heat[sid], -sid))
                replica_id = self._cluster.add_replica(target)
                self._last_scale_up = at
                reason = (
                    "burn_rate"
                    if burning
                    else ("hot_shard" if not want_up else "utilization")
                )
                taken.append(
                    self._record(
                        at, "add_replica", target, replica_id, reason,
                        sum(shard_alive.values()) + 1,
                    )
                )
        elif (
            not want_up
            and self._utilization < SCALE_DOWN_BELOW
            and at - self._last_scale_down >= SCALE_DOWN_COOLDOWN
        ):
            candidates = [
                shard_id
                for shard_id in shard_alive
                if shard_alive[shard_id] > MIN_REPLICAS
            ]
            if candidates:
                target = min(candidates, key=lambda sid: (heat[sid], sid))
                replica_id = self._cluster.remove_replica(target)
                self._last_scale_down = at
                taken.append(
                    self._record(
                        at, "remove_replica", target, replica_id, "idle",
                        sum(shard_alive.values()) - 1,
                    )
                )

        # Structural skew: move documents off the hottest shard with the
        # ring planner's minimal-movement pins (only the pinned documents
        # migrate; everything else stays put).
        if len(shard_chunks) > 1:
            mean_chunks = sum(shard_chunks.values()) / len(shard_chunks)
            hottest = max(shard_chunks, key=lambda sid: (shard_chunks[sid], -sid))
            coldest = min(shard_chunks, key=lambda sid: (shard_chunks[sid], sid))
            if (
                mean_chunks > 0.0
                and hottest != coldest
                and shard_chunks[hottest] > REBALANCE_SKEW * mean_chunks
                and at - self._last_rebalance >= SCALE_UP_COOLDOWN
            ):
                moved = self._cluster.index.rebalance_shard(
                    hottest, coldest, fraction=REBALANCE_FRACTION
                )
                if moved:
                    self._last_rebalance = at
                    taken.append(
                        self._record(
                            at, "rebalance", hottest,
                            f"moved={moved}->s{coldest}", "doc_skew",
                            sum(shard_alive.values()),
                        )
                    )
        return taken

    def _record(
        self, at: float, action: str, shard_id: int, detail: str, reason: str, total: int
    ) -> ScaleDecision:
        decision = ScaleDecision(
            at=at,
            action=action,
            shard_id=shard_id,
            detail=detail,
            reason=reason,
            total_replicas=total,
        )
        self._decisions.append(decision)
        self._m_actions.labels(action).inc()
        if self.recorder is not None:
            self.recorder.record(
                "scale_decision",
                "autoscaler",
                action=action,
                shard_id=shard_id,
                detail=detail,
                reason=reason,
                total_replicas=total,
            )
        return decision

    # -- observability -----------------------------------------------------

    @property
    def decisions(self) -> tuple[ScaleDecision, ...]:
        """Every control action taken so far, in order."""
        return tuple(self._decisions)

    @property
    def utilization(self) -> float:
        """Offered load per alive replica at the last evaluation."""
        return self._utilization

    def status(self) -> dict:
        """The ``autoscale`` ops-route payload."""
        cluster_status = self._cluster.status()
        replicas = {
            str(shard.shard_id): sum(1 for r in shard.replicas if r.alive)
            for shard in cluster_status.shards
        }
        payload = {
            "enabled": True,
            "utilization": round(self._utilization, 4),
            "target_utilization": TARGET_UTILIZATION,
            "replicas": replicas,
            "total_replicas": sum(replicas.values()),
            "decisions": [d.to_dict() for d in self._decisions[-20:]],
            "decision_count": len(self._decisions),
        }
        if self.hedge_budget is not None:
            payload["hedging"] = self.hedge_budget.status()
        return payload
