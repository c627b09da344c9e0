"""Request-scoped tracing for the staged ask/search pipeline.

Every stage of a request — content filter, full-text search, vector search
per field, RRF fusion, semantic rerank, prompt build, LLM completion, each
guardrail — runs inside a named :class:`Span` recorded on a :class:`Trace`.
A span carries wall-clock start/end instants read from an injected clock
(:class:`WallClock` for real deployments, the repository-wide
:class:`~repro.pipeline.clock.SimulatedClock` in simulations, so load
tests stay deterministic), plus free-form attributes for input/output
sizes and outcomes.

Tracing is **zero-cost by default**: components take a
:class:`RequestContext` defaulting to the shared :data:`NULL_CONTEXT`,
whose :class:`NullTrace` allocates no spans and whose ``span()`` returns a
singleton no-op context manager.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "NULL_CONTEXT",
    "NullTrace",
    "RequestContext",
    "Span",
    "Trace",
    "WallClock",
    "null_context",
]

#: Span statuses.
STATUS_OK = "ok"
STATUS_ERROR = "error"


class WallClock:
    """Monotonic wall clock with the same ``now()`` surface as SimulatedClock."""

    @staticmethod
    def now() -> float:
        """Seconds from an arbitrary monotonic origin."""
        return time.perf_counter()


@dataclass
class Span:
    """One named stage of a traced request.

    Attributes:
        name: stage name from :mod:`repro.obs.spans`.
        start: clock reading when the stage began.
        end: clock reading when the stage finished (None while open).
        depth: nesting depth (0 for top-level spans).
        parent_name: name of the enclosing span (None at depth 0).
        attributes: input/output sizes and outcome, set by the stage.
        child_count: number of directly nested spans.
        status: ``"ok"``, or ``"error"`` when the stage raised.
    """

    name: str
    start: float
    end: float | None = None
    depth: int = 0
    parent_name: str | None = None
    attributes: dict[str, object] = field(default_factory=dict)
    child_count: int = 0
    status: str = STATUS_OK

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while the span is open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def is_leaf(self) -> bool:
        """True when no span was opened inside this one."""
        return self.child_count == 0

    def set(self, key: str, value: object) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def annotate(self, **attributes: object) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attributes)


class _SpanScope:
    """Context manager opening *span* on *trace* (re-entrant per span).

    Opened through :meth:`RequestContext.span` with work accounting on, it
    carries the counters and their reading at open: a clean exit books what
    accrued in between as ``work_<kind>`` attributes.
    """

    __slots__ = ("_trace", "_span", "_work", "_mark")

    def __init__(self, trace: "Trace", span: Span) -> None:
        self._trace = trace
        self._span = span
        self._work = None
        self._mark = None

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.status = STATUS_ERROR
            self._span.attributes["error_type"] = exc_type.__name__
        elif self._work is not None:
            for kind, units in self._work.delta(self._mark).items():
                self._span.attributes[f"work_{kind}"] = units
        self._trace._close(self._span)
        return False


class Trace:
    """An ordered, nested record of the spans of one request.

    Args:
        clock: anything with a ``now() -> float`` method; defaults to
            :class:`WallClock`.  Pass a
            :class:`~repro.pipeline.clock.SimulatedClock` for deterministic
            simulated timings.
        cost: optional stage-cost hook ``cost(span) -> seconds``; when set
            and the clock supports ``advance()``, the returned duration is
            added to the clock as the span closes.  This is how simulated
            deployments attribute deterministic latency to each stage.
    """

    enabled = True

    def __init__(
        self,
        clock=None,
        cost: Callable[[Span], float] | None = None,
    ) -> None:
        self._clock = clock if clock is not None else WallClock()
        self._cost = cost
        self._spans: list[Span] = []
        self._stack: list[Span] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attributes: object) -> _SpanScope:
        """Open a named span; use as ``with trace.span("llm") as span:``."""
        parent = self._stack[-1] if self._stack else None
        record = Span(
            name=name,
            start=self._clock.now(),
            depth=len(self._stack),
            parent_name=parent.name if parent is not None else None,
            attributes=dict(attributes),
        )
        if parent is not None:
            parent.child_count += 1
        self._spans.append(record)
        self._stack.append(record)
        return _SpanScope(self, record)

    def _close(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        if self._cost is not None:
            extra = self._cost(span)
            advance = getattr(self._clock, "advance", None)
            if extra > 0 and advance is not None:
                advance(extra)
        span.end = self._clock.now()

    # -- reading -----------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """All spans in opening order."""
        return list(self._spans)

    def span_names(self) -> list[str]:
        """Names of all spans in opening order."""
        return [span.name for span in self._spans]

    def find(self, name: str) -> Span | None:
        """The first span named *name* (None when absent)."""
        for span in self._spans:
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list[Span]:
        """Every span named *name*, in opening order."""
        return [span for span in self._spans if span.name == name]

    def leaf_spans(self) -> Iterator[Span]:
        """Spans with no nested children — the actual work stages."""
        return (span for span in self._spans if span.is_leaf)

    def stage_durations(self) -> dict[str, float]:
        """Completed leaf-stage durations keyed by span name (duplicates
        summed).

        Spans still open — a request that raised mid-stage — are excluded
        rather than silently counted as 0.0s; check
        :attr:`open_span_count` to tell a truncated trace from a short one.
        """
        durations: dict[str, float] = {}
        for span in self.leaf_spans():
            if span.end is None:
                continue
            durations[span.name] = durations.get(span.name, 0.0) + span.duration
        return durations

    @property
    def open_span_count(self) -> int:
        """Spans opened but never closed (non-zero only for truncated
        traces, e.g. a request that raised mid-stage)."""
        return sum(1 for span in self._spans if span.end is None)

    @property
    def total_duration(self) -> float:
        """Summed duration of the completed top-level spans."""
        return sum(
            span.duration
            for span in self._spans
            if span.depth == 0 and span.end is not None
        )

    def format_table(self) -> str:
        """Render the per-stage timing table (the ``--trace`` CLI output)."""
        lines = [f"{'stage':<34} {'duration':>12}  details"]
        lines.append("-" * len(lines[0]))
        for span in self._spans:
            label = "  " * span.depth + span.name
            details = " ".join(f"{k}={v}" for k, v in span.attributes.items())
            if span.status != STATUS_OK:
                details = f"status={span.status} {details}".rstrip()
            lines.append(f"{label:<34} {span.duration * 1000.0:>10.3f}ms  {details}".rstrip())
        lines.append("-" * len(lines[1]))
        lines.append(f"{'total':<34} {self.total_duration * 1000.0:>10.3f}ms")
        return "\n".join(lines)


class _NullSpan:
    """Shared no-op span: context manager, ``set`` and ``annotate`` sinks."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: object) -> None:
        pass

    def annotate(self, **attributes: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTrace(Trace):
    """A disabled trace: records nothing, allocates (almost) nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=WallClock())

    def span(self, name: str, **attributes: object) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN


class RequestContext:
    """Per-request carrier threaded through every pipeline stage.

    Attributes:
        trace: the (possibly null) trace recording stage spans.
        request_id: opaque correlation id set by the caller.
        explain: True when the request asked for score provenance — the
            retrieval stages then attach their fine-grained breakdowns
            (per-term BM25, shard attribution) to each result's
            ``components`` so :mod:`repro.obs.explain` can assemble the
            per-chunk report.  Off by default: the explain=False path runs
            exactly the pre-explain code.
        work: the request's :class:`~repro.obs.work.WorkCounters`, or None
            (the default) when work accounting is off — every instrumented
            site guards with ``if work is not None`` so the disabled path
            is byte-identical to the pre-accounting pipeline.
        scatter: the request's cluster scatter report — every probe of its
            search — or None.  Written
            only by the engine, on the context it builds per request (never
            the shared :data:`NULL_CONTEXT`).
    """

    __slots__ = ("trace", "request_id", "explain", "work", "scatter")

    def __init__(
        self,
        trace: Trace | None = None,
        request_id: str = "",
        explain: bool = False,
        work=None,
    ) -> None:
        self.trace = trace if trace is not None else NULL_TRACE
        self.request_id = request_id
        self.explain = explain
        self.work = work
        self.scatter = None

    @property
    def tracing(self) -> bool:
        """True when spans are being recorded."""
        return self.trace.enabled

    def span(self, name: str, **attributes: object):
        """Open a trace span that also books the work done inside it.

        With work accounting on, the counters' delta between open and a
        clean close lands on the span as ``work_<kind>`` attributes, after
        what the stage set itself.  With tracing off this is the shared
        null span: there is nothing to book onto.
        """
        scope = self.trace.span(name, **attributes)
        if self.work is not None and scope is not _NULL_SPAN:
            scope._work = self.work
            scope._mark = self.work.snapshot()
        return scope

    @classmethod
    def traced(
        cls, clock=None, cost=None, request_id: str = "", explain: bool = False, work=None
    ) -> "RequestContext":
        """A context with tracing enabled on a fresh :class:`Trace`."""
        return cls(
            trace=Trace(clock=clock, cost=cost),
            request_id=request_id,
            explain=explain,
            work=work,
        )


#: Shared disabled trace / context — the zero-cost default of every stage.
NULL_TRACE = NullTrace()
NULL_CONTEXT = RequestContext(trace=NULL_TRACE)


def null_context() -> RequestContext:
    """The shared disabled context (no allocation)."""
    return NULL_CONTEXT
