"""Typed request/response dataclasses of the stable public API.

These are the *only* types a caller needs to drive UniAsk: build an
:class:`AskRequest` (question + :class:`AskOptions`), hand it to
``engine.answer()`` or ``backend.serve()``, and read the
:class:`AskResponse`.  New options (tracing, cache policy, request ids,
whatever comes next) land here instead of growing positional parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.routes import ALL_ROUTES
from repro.core.answer import Citation, UniAskAnswer
from repro.obs.trace import Trace

#: Cache policies of one request.
CACHE_DEFAULT = "default"  # serve from cache when possible, store on miss
CACHE_BYPASS = "bypass"  # ignore the cache entirely (no read, no store)
CACHE_REFRESH = "refresh"  # recompute and overwrite the cached entry

CACHE_POLICIES = (CACHE_DEFAULT, CACHE_BYPASS, CACHE_REFRESH)

#: Priority classes of one request, ordered from most to least protected.
#: Under load the admission controller sheds canary traffic first, then
#: batch, and keeps interactive requests at full quality the longest.
PRIORITY_INTERACTIVE = "interactive"
PRIORITY_BATCH = "batch"
PRIORITY_CANARY = "canary"

PRIORITIES = (PRIORITY_INTERACTIVE, PRIORITY_BATCH, PRIORITY_CANARY)


@dataclass(frozen=True)
class AskOptions:
    """Per-request knobs of one question.

    Attributes:
        filters: exact-match metadata filters applied during retrieval
            (``{"domain": "carte"}``), or None for the whole corpus.
        trace: request a per-stage trace; the finished trace rides back on
            ``response.trace``.  Ignored when the caller supplies its own
            :class:`~repro.obs.trace.RequestContext` (the backend does).
        cache: one of :data:`CACHE_DEFAULT`, :data:`CACHE_BYPASS`,
            :data:`CACHE_REFRESH`.  Irrelevant (and harmless) when the
            deployment's cache is disabled.
        request_id: caller-chosen id stamped on traces and audit entries.
        explain: request full score provenance; the finished
            :class:`~repro.obs.explain.ExplainReport` rides back on
            ``response.explain``.  Explain requests bypass the answer and
            retrieval caches (provenance must describe *this* execution)
            and record per-term/per-shard breakdowns; with the default
            False the pipeline runs exactly the pre-explain code.
        route: explicit agent-route override (a ``ROUTE_*`` constant of
            :mod:`repro.agents.routes`); "" lets the Orchestrator's intent
            classifier decide.  Inert in agents-off deployments.
        session_id: conversation identifier for follow-up resolution; the
            backend injects its session token here, so anaphoric turns
            resolve against the right conversation.  "" disables session
            memory for the request.
        priority: one of :data:`PRIORITIES`.  Under overload the admission
            controller degrades and sheds lower priorities first; with the
            default (interactive) and admission disabled the field is
            inert.
        deadline_ms: client deadline in milliseconds, or None for no
            deadline.  When admission control is enabled the backend
            serves the request at the cheapest degrade level that can
            meet the deadline, and rejects it (typed
            :class:`~repro.core.errors.AdmissionError`) when even a fully
            degraded answer cannot.
        profile: request deterministic work accounting (and, implicitly,
            a per-stage trace — profiling piggybacks on spans).  The
            accrued counts ride back on ``response.work`` as a
            ``{kind: units}`` dict (see :mod:`repro.obs.work`); with the
            default False no counter is allocated and the pipeline runs
            exactly the pre-profiling code.
    """

    filters: dict[str, str] | None = None
    trace: bool = False
    cache: str = CACHE_DEFAULT
    request_id: str = ""
    explain: bool = False
    route: str = ""
    session_id: str = ""
    profile: bool = False
    priority: str = PRIORITY_INTERACTIVE
    deadline_ms: int | None = None

    def __post_init__(self) -> None:
        if self.cache not in CACHE_POLICIES:
            raise ValueError(f"cache policy must be one of {CACHE_POLICIES}")
        if self.route and self.route not in ALL_ROUTES:
            raise ValueError(f"route must be one of {ALL_ROUTES} (or empty)")
        if self.priority not in PRIORITIES:
            raise ValueError(f"priority must be one of {PRIORITIES}")
        if self.deadline_ms is not None:
            if isinstance(self.deadline_ms, bool) or not isinstance(self.deadline_ms, int):
                raise ValueError("deadline_ms must be a positive integer or None")
            if self.deadline_ms <= 0:
                raise ValueError("deadline_ms must be a positive integer or None")


@dataclass(frozen=True)
class AskRequest:
    """One question plus its per-request options."""

    question: str
    options: AskOptions = field(default_factory=AskOptions)

    @classmethod
    def of(cls, question: str, **option_kwargs) -> "AskRequest":
        """Shorthand: ``AskRequest.of("...", filters=..., trace=True)``."""
        return cls(question=question, options=AskOptions(**option_kwargs))


@dataclass(frozen=True)
class AskResponse:
    """Everything the engine returns for one :class:`AskRequest`.

    Wraps the full :class:`~repro.core.answer.UniAskAnswer` and exposes
    the fields callers reach for most as flat properties.  ``scatter`` is
    the request's merged :class:`~repro.cluster.router.ScatterReport` (every
    shard probe of every search it ran); None on a single index or when
    nothing was retrieved.
    """

    answer: UniAskAnswer
    request: AskRequest
    scatter: object | None = None

    @property
    def text(self) -> str:
        """The user-facing answer text."""
        return self.answer.answer_text

    @property
    def outcome(self) -> str:
        """The pipeline outcome (``answered``, ``guardrail_*``, ...)."""
        return self.answer.outcome

    @property
    def answered(self) -> bool:
        """True when a generated answer was accepted and shown."""
        return self.answer.answered

    @property
    def citations(self) -> tuple[Citation, ...]:
        """Resolved citations of the accepted answer."""
        return self.answer.citations

    @property
    def documents(self):
        """The retrieved chunk ranking."""
        return self.answer.documents

    @property
    def cache_hit(self) -> str:
        """``"exact"`` / ``"semantic"`` / ``"coalesced"``, or "" on a miss."""
        return self.answer.cache_hit

    @property
    def partial_results(self) -> bool:
        """True when a degraded cluster served only some shards."""
        return self.answer.partial_results

    @property
    def trace(self) -> Trace | None:
        """The per-stage trace, when one was requested."""
        return self.answer.trace

    @property
    def explain(self):
        """The :class:`~repro.obs.explain.ExplainReport`, when requested."""
        return self.answer.explain_report

    @property
    def route(self) -> str:
        """The agent route that served the question ("" when agents are off)."""
        return self.answer.route

    @property
    def work(self) -> dict[str, int] | None:
        """Deterministic work counts (``{kind: units}``), when profiling."""
        return self.answer.work

    @property
    def degrade_level(self) -> int:
        """The shedding-ladder level that served the request.

        0 = full pipeline, 1 = answer-cache only, 2 = BM25-only degraded
        answer.  Level-3 requests never produce a response — they raise
        :class:`~repro.core.errors.AdmissionError` instead.
        """
        return self.answer.degrade_level

    @property
    def shed(self) -> bool:
        """True when admission control served less than the full pipeline."""
        return self.answer.degrade_level > 0
