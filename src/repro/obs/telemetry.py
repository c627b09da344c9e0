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

What no deployment sets is a module constant, read when the bundle is
built: ``TRACE_SAMPLE_RATE`` (0.1 head-sampling probability),
``SAMPLER_SEED`` (1729, the sampler's private stream), ``AUDIT_RETENTION``
(10 000 in-memory audit events; the JSONL sink stays complete),
``TAIL_LATENCY_SECONDS`` and ``RETAINED_TRACES``.
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
#: Head-sampling probability for request traces.
TRACE_SAMPLE_RATE = 0.1
#: Seed of the sampler's private RNG stream.
SAMPLER_SEED = 1729
#: In-memory audit ring size; the on-disk JSONL sink stays complete.
#: None keeps everything in memory.
AUDIT_RETENTION: int | None = 10_000


@dataclass(frozen=True)
class TelemetryConfig:
    """Everything tunable about the telemetry layer.

    Attributes:
        enabled: master switch; False makes every instrument a shared
            no-op (the benchmark baseline).
        audit_path: when set, the audit log is mirrored to this JSONL file.
    """

    enabled: bool = True
    audit_path: str | None = None


class Telemetry:
    """Registry, trace sampler and audit log of one deployment."""

    def __init__(self, config: TelemetryConfig | None = None, clock=None) -> None:
        self.config = config or TelemetryConfig()
        if self.config.enabled:
            self.registry: MetricsRegistry = MetricsRegistry()
            self.sampler = TraceSampler(
                rate=TRACE_SAMPLE_RATE,
                tail_latency=TAIL_LATENCY_SECONDS,
                seed=SAMPLER_SEED,
                capacity=RETAINED_TRACES,
                on_evict=self.registry.drop_exemplars,
            )
            self.audit: AuditLogger = AuditLogger(
                clock=clock,
                path=self.config.audit_path,
                retention=AUDIT_RETENTION,
            )
        else:
            self.registry = NULL_REGISTRY
            self.sampler = TraceSampler(rate=0.0, seed=SAMPLER_SEED)
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
