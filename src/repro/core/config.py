"""Top-level configuration of a UniAsk deployment."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.config import AgentsConfig
from repro.autoscale.config import AutoscaleConfig
from repro.cache.config import CacheConfig
from repro.cluster.config import ClusterConfig
from repro.guardrails.rouge import DEFAULT_ROUGE_THRESHOLD
from repro.obs.incident import IncidentConfig
from repro.obs.telemetry import TelemetryConfig
from repro.search.hybrid import HybridSearchConfig


@dataclass(frozen=True)
class GenerationConfig:
    """Generation-module parameters (Section 5)."""

    context_size: int = 4  # m: chunks passed to the LLM
    temperature: float = 0.2
    max_tokens: int = 512

    def __post_init__(self) -> None:
        if self.context_size <= 0:
            raise ValueError("context_size must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")


@dataclass(frozen=True)
class UniAskConfig:
    """Everything tunable about one deployment, paper defaults throughout."""

    retrieval: HybridSearchConfig = field(default_factory=HybridSearchConfig)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    agents: AgentsConfig = field(default_factory=AgentsConfig)
    autoscale: AutoscaleConfig = field(default_factory=AutoscaleConfig)
    incident: IncidentConfig = field(default_factory=IncidentConfig)
    rouge_threshold: float = DEFAULT_ROUGE_THRESHOLD
