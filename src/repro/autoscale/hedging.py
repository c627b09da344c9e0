"""Adaptive hedging budgets for the cluster router.

Hedged retries are a latency tool that turns into a load amplifier
exactly when the cluster can least afford it: at high utilization every
hedge is one more probe on an already-saturated replica pool.  The
budget caps the fraction of probes allowed to hedge and shrinks that cap
linearly with utilization, reaching zero at ``disable_above`` —
the "hedging budgets" of the tail-at-scale playbook, driven here by the
autoscaler's utilization estimate.

Deterministic: the decision depends only on the configured fractions and
the exact sequence of probe opportunities, so cluster scenarios replay
bit-for-bit.
"""

from __future__ import annotations

__all__ = ["AdaptiveHedgeBudget"]

#: Fraction of probes allowed to hedge when the cluster is idle.
BASE_FRACTION = 0.3
#: Utilization at which the hedge budget reaches zero.
DISABLE_ABOVE = 0.85


class AdaptiveHedgeBudget:
    """Caps the hedged fraction of shard probes as utilization rises."""

    def __init__(
        self,
        base_fraction: float = BASE_FRACTION,
        disable_above: float = DISABLE_ABOVE,
    ) -> None:
        if not 0.0 <= base_fraction <= 1.0:
            raise ValueError("base_fraction must be in [0, 1]")
        if not 0.0 < disable_above <= 1.0:
            raise ValueError("disable_above must be in (0, 1]")
        self.base_fraction = base_fraction
        self.disable_above = disable_above
        self._utilization = 0.0
        self._opportunities = 0
        self._granted = 0
        self._denied = 0

    # -- control feed ------------------------------------------------------

    def update_utilization(self, utilization: float) -> None:
        """Feed the current cluster utilization (the autoscaler does)."""
        self._utilization = max(0.0, utilization)

    def allowed_fraction(self) -> float:
        """The hedged fraction currently permitted (0..base_fraction)."""
        remaining = 1.0 - min(1.0, self._utilization / self.disable_above)
        return self.base_fraction * remaining

    # -- router hook -------------------------------------------------------

    def allow(self) -> bool:
        """Decide one hedge opportunity; records the grant either way.

        Grants while the running hedged fraction stays under the current
        cap — a deterministic token bucket over probe opportunities.
        """
        self._opportunities += 1
        cap = self.allowed_fraction()
        if cap <= 0.0:
            self._denied += 1
            return False
        if self._granted + 1 <= cap * self._opportunities:
            self._granted += 1
            return True
        self._denied += 1
        return False

    # -- observability -----------------------------------------------------

    def status(self) -> dict:
        return {
            "utilization": round(self._utilization, 4),
            "allowed_fraction": round(self.allowed_fraction(), 4),
            "base_fraction": self.base_fraction,
            "disable_above": self.disable_above,
            "opportunities": self._opportunities,
            "granted": self._granted,
            "denied": self._denied,
        }
