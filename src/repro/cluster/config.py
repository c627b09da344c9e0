"""Configuration of the sharded, replicated query-serving cluster."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClusterConfig:
    """Everything tunable about the serving cluster.

    ``shards=1`` (the default) means "no cluster": the factory wires the
    single-index path unchanged, which reproduces the paper's one managed
    search index exactly.  With ``shards > 1`` the corpus is partitioned by
    consistent hashing of the document id and every query is scattered to
    all shards.

    Attributes:
        shards: number of index shards (1 disables the cluster layer).
        replicas: replicas per shard (serving capacity / availability).
        vnodes: virtual nodes per shard on the consistent-hash ring; more
            vnodes → smoother balance, slightly larger ring.
        down_after: consecutive timeouts before a replica is marked down.
        down_cooldown: simulated seconds a marked-down replica is skipped
            (fail-fast) before it is probed again.

    The shard deadline and hedge point are constants of
    :mod:`repro.cluster.router`, the simulated replica latency of
    :mod:`repro.cluster.replica`.
    """

    shards: int = 1
    replicas: int = 2
    vnodes: int = 64
    down_after: int = 3
    down_cooldown: float = 30.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if self.down_after < 1:
            raise ValueError("down_after must be >= 1")
        if self.down_cooldown < 0:
            raise ValueError("down_cooldown must be non-negative")
