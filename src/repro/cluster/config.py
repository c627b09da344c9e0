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

    Everything else is a constant beside the code that reads it: the ring's
    ``VNODES`` (64) in :mod:`repro.cluster.planner`; the health tracker's
    ``DOWN_AFTER`` (3 consecutive timeouts) and ``DOWN_COOLDOWN`` (30
    simulated seconds) and the simulated replica latency in
    :mod:`repro.cluster.replica`; the shard deadline and hedge point in
    :mod:`repro.cluster.router`.
    """

    shards: int = 1
    replicas: int = 2

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
