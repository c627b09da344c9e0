"""Replica groups: per-shard serving capacity with simulated health.

Storage and serving are separated the way the managed deployment separates
them: the chunk data of a shard lives once (in the shard's
:class:`~repro.search.index.SearchIndex`), while each :class:`Replica`
models one *server* of that shard — its simulated service latency, its
liveness, and its health history.  Replicas therefore add availability
semantics (timeouts, fail-fast on marked-down servers, hedged retries)
without duplicating index memory.

All latency is deterministic: a replica's service time is its base latency
times a per-``(replica, query)`` hash-noise factor, read against the
deployment's :class:`~repro.pipeline.clock.SimulatedClock`, so cluster
scenarios (kill / degrade / recover) replay bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.cluster.config import ClusterConfig

#: Simulated seconds a healthy replica takes to serve one shard-level search.
REPLICA_BASE_LATENCY = 0.008
#: Relative deterministic per-(replica, query) latency spread in
#: ``[0, jitter]``.
REPLICA_LATENCY_JITTER = 0.25
#: Consecutive timeouts before a replica is marked down.
DOWN_AFTER = 3
#: Simulated seconds a marked-down replica is skipped (fail-fast) before it
#: is probed again.
DOWN_COOLDOWN = 30.0


def _unit_noise(replica_id: str, query: str) -> float:
    """Deterministic pseudo-noise in [0, 1) keyed on the (replica, query) pair."""
    digest = hashlib.blake2b(
        f"{replica_id}\x00{query}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass
class ReplicaHealth:
    """Mutable health record of one replica."""

    served: int = 0
    timeouts: int = 0
    consecutive_timeouts: int = 0
    hedges: int = 0
    marked_down_until: float = 0.0


class Replica:
    """One serving replica of a shard.

    Fault injection for tests and load scenarios: :meth:`kill` makes the
    replica refuse connections (fail-fast), :meth:`degrade` multiplies its
    service time (slow replica → hedges / timeouts), :meth:`revive`
    restores a healthy server.
    """

    def __init__(self, replica_id: str) -> None:
        self.replica_id = replica_id
        self.alive = True
        self.slow_factor = 1.0
        self.health = ReplicaHealth()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"Replica({self.replica_id!r}, {state}, x{self.slow_factor:g})"

    # -- simulated serving -------------------------------------------------

    def service_time(self, query: str) -> float:
        """Deterministic simulated seconds to serve *query* on this replica."""
        noise = 1.0 + REPLICA_LATENCY_JITTER * _unit_noise(self.replica_id, query)
        return REPLICA_BASE_LATENCY * self.slow_factor * noise

    def marked_down(self, now: float) -> bool:
        """True while the health tracker is failing this replica fast."""
        return now < self.health.marked_down_until

    # -- health bookkeeping ------------------------------------------------

    def record_success(self) -> None:
        """One served request; resets the consecutive-timeout streak."""
        self.health.served += 1
        self.health.consecutive_timeouts = 0

    def record_timeout(self, now: float) -> None:
        """One deadline miss; marks the replica down after ``DOWN_AFTER``."""
        self.health.timeouts += 1
        self.health.consecutive_timeouts += 1
        if self.health.consecutive_timeouts >= DOWN_AFTER:
            self.health.marked_down_until = now + DOWN_COOLDOWN

    def record_hedge(self) -> None:
        """A hedged retry fired because this replica was slow."""
        self.health.hedges += 1

    # -- fault injection ---------------------------------------------------

    def kill(self) -> None:
        """Take the replica down hard (connection refused)."""
        self.alive = False

    def degrade(self, slow_factor: float) -> None:
        """Multiply the replica's service time by *slow_factor*."""
        if slow_factor <= 0:
            raise ValueError("slow_factor must be positive")
        self.slow_factor = slow_factor

    def revive(self) -> None:
        """Bring the replica back healthy (clears markdown and slowness)."""
        self.alive = True
        self.slow_factor = 1.0
        self.health.consecutive_timeouts = 0
        self.health.marked_down_until = 0.0


@dataclass
class ReplicaGroup:
    """The replicas serving one shard."""

    shard_id: int
    replicas: list[Replica] = field(default_factory=list)

    @classmethod
    def build(cls, shard_id: int, config: ClusterConfig) -> "ReplicaGroup":
        """A fresh group of ``config.replicas`` healthy replicas."""
        return cls(
            shard_id=shard_id,
            replicas=[Replica(f"s{shard_id}/r{i}") for i in range(config.replicas)],
        )

    def rotation(self, turn: int) -> list[Replica]:
        """The replicas starting from the round-robin primary of *turn*."""
        if not self.replicas:
            return []
        start = turn % len(self.replicas)
        return self.replicas[start:] + self.replicas[:start]
