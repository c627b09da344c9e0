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

    The session memory's bounds are constants of
    :mod:`repro.agents.orchestrator`: ``SESSION_CAPACITY`` (1024 sessions,
    LRU beyond) and ``SESSION_TTL_SECONDS`` (1800 simulated seconds).
    """

    enabled: bool = False
