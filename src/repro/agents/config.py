"""Configuration of the multi-agent orchestration subsystem."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AgentsConfig:
    """Everything tunable about the agent layer of one deployment.

    The subsystem is **off by default**: a deployment built without
    touching this config behaves byte-identically to one predating the
    agent layer on every serve surface — answers, traces, metrics, explain
    reports and audit log (verified differentially by the agents test
    suite, the same contract the cache subsystem established).

    Attributes:
        enabled: master switch for the whole subsystem.  When False no
            orchestrator is constructed, no route metrics are registered
            and every request takes the plain lookup pipeline.
        session_capacity: maximum concurrently remembered sessions (LRU
            beyond).
        session_ttl_seconds: session-memory lifetime on the deployment's
            simulated clock (None disables expiry).
    """

    enabled: bool = False
    session_capacity: int = 1024
    session_ttl_seconds: float | None = 1800.0

    def __post_init__(self) -> None:
        if self.session_capacity <= 0:
            raise ValueError("session_capacity must be positive")
        if self.session_ttl_seconds is not None and self.session_ttl_seconds <= 0:
            raise ValueError("session_ttl_seconds must be positive (or None)")
