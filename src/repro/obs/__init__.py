"""Observability: tracing, metrics, SLOs, sampling and the audit log.

The staged request pipeline (engine → retrieval → LLM → guardrails →
backend) threads a :class:`~repro.obs.trace.RequestContext` through every
stage; each stage records a named :class:`~repro.obs.trace.Span` with its
duration, input/output sizes and outcome.  On top of tracing sits the
production telemetry substrate:

* :mod:`repro.obs.metrics` — typed instruments (Counter / Gauge /
  Histogram with exemplars) on a :class:`~repro.obs.metrics.MetricsRegistry`,
  rendered in the Prometheus text format;
* :mod:`repro.obs.slo` — SLO objects with multi-window burn-rate alerting;
* :mod:`repro.obs.sampling` — probabilistic + tail-latency trace sampling;
* :mod:`repro.obs.audit` — the deterministic JSONL structured audit log;
* :mod:`repro.obs.telemetry` — the per-deployment bundle of all of the
  above.

Everything is zero-cost by default: the shared null context, null registry
and null audit logger record nothing, and enabled telemetry never reads a
clock or a shared RNG, so outputs stay byte-identical either way.
"""

from repro.obs.audit import NULL_AUDIT, AuditLogger, read_audit_log
from repro.obs.incident import BlackBoxRecorder, Incident, IncidentConfig, IncidentManager
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    render_prometheus,
)
from repro.obs.sampling import TraceSampler
from repro.obs.slo import SLO, Alert, BurnWindow, burn_rate, evaluate_burn_rates
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, TelemetryConfig
from repro.obs.trace import (
    NULL_CONTEXT,
    NullTrace,
    RequestContext,
    Span,
    Trace,
    WallClock,
    null_context,
)

__all__ = [
    "NULL_AUDIT",
    "NULL_CONTEXT",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "Alert",
    "AuditLogger",
    "BlackBoxRecorder",
    "BurnWindow",
    "Counter",
    "Gauge",
    "Histogram",
    "Incident",
    "IncidentConfig",
    "IncidentManager",
    "MetricsRegistry",
    "NullTrace",
    "RequestContext",
    "SLO",
    "Span",
    "Telemetry",
    "TelemetryConfig",
    "Trace",
    "TraceSampler",
    "WallClock",
    "burn_rate",
    "evaluate_burn_rates",
    "exponential_buckets",
    "null_context",
    "read_audit_log",
    "render_prometheus",
]
