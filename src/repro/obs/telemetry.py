"""The per-deployment telemetry bundle: registry + sampler + audit log.

One :class:`Telemetry` object travels with a deployment (built by the
system factory, shared by the engine and the backend): it owns the
:class:`~repro.obs.metrics.MetricsRegistry` every component registers its
instruments on, the :class:`~repro.obs.sampling.TraceSampler` deciding
which request traces to retain, and the
:class:`~repro.obs.audit.AuditLogger` every structured event lands in.

The sampler's eviction hook is wired to the registry, so a histogram
exemplar never outlives the trace it points at.

Telemetry is configured by :class:`TelemetryConfig` and **output-neutral
by construction**: no instrument reads a clock or a shared RNG (the
sampler has a private stream), so enabling it — the default — leaves every
engine and backend output byte-identical to a deployment built with
``TelemetryConfig(enabled=False)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.audit import NULL_AUDIT, AuditLogger
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.sampling import TraceSampler

__all__ = ["NULL_TELEMETRY", "Telemetry", "TelemetryConfig"]

#: Traces slower than this many simulated seconds are always retained
#: (tail sampling).
TAIL_LATENCY_SECONDS = 4.0
#: Retention capacity of the trace sampler.
RETAINED_TRACES = 256


@dataclass(frozen=True)
class TelemetryConfig:
    """Everything tunable about the telemetry layer.

    Attributes:
        enabled: master switch; False makes every instrument a shared
            no-op (the benchmark baseline).
        trace_sample_rate: head-sampling probability for request traces.
        sampler_seed: seed of the sampler's private RNG stream.
        audit_path: when set, the audit log is mirrored to this JSONL file.
        audit_retention: in-memory audit ring size; the on-disk JSONL sink
            stays complete regardless.  None keeps everything in memory
            (unbounded — only sensible for short-lived test deployments).
    """

    enabled: bool = True
    trace_sample_rate: float = 0.1
    sampler_seed: int = 1729
    audit_path: str | None = None
    audit_retention: int | None = 10_000

    def __post_init__(self) -> None:
        if not (0.0 <= self.trace_sample_rate <= 1.0):
            raise ValueError("trace_sample_rate must be in [0, 1]")
        if self.audit_retention is not None and self.audit_retention < 1:
            raise ValueError("audit_retention must be positive when set")


class Telemetry:
    """Registry, trace sampler and audit log of one deployment."""

    def __init__(self, config: TelemetryConfig | None = None, clock=None) -> None:
        self.config = config or TelemetryConfig()
        if self.config.enabled:
            self.registry: MetricsRegistry = MetricsRegistry()
            self.sampler = TraceSampler(
                rate=self.config.trace_sample_rate,
                tail_latency=TAIL_LATENCY_SECONDS,
                seed=self.config.sampler_seed,
                capacity=RETAINED_TRACES,
                on_evict=self.registry.drop_exemplars,
            )
            self.audit: AuditLogger = AuditLogger(
                clock=clock,
                path=self.config.audit_path,
                retention=self.config.audit_retention,
            )
        else:
            self.registry = NULL_REGISTRY
            self.sampler = TraceSampler(rate=0.0, seed=self.config.sampler_seed)
            self.audit = NULL_AUDIT

    @property
    def enabled(self) -> bool:
        """True when instruments actually record."""
        return self.registry.enabled

    def render_metrics(self) -> str:
        """The Prometheus text exposition of the registry."""
        return self.registry.render()


class _NullTelemetry(Telemetry):
    """Shared disabled bundle — the default of directly built components."""

    def __init__(self) -> None:
        super().__init__(TelemetryConfig(enabled=False))


#: Shared disabled telemetry (no allocation on the hot path).
NULL_TELEMETRY = _NullTelemetry()
