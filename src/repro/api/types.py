"""Typed request/response dataclasses of the stable public API.

These are the *only* types a caller needs to drive UniAsk: build an
:class:`AskRequest` (question + :class:`AskOptions`), hand it to
``engine.answer()`` or ``backend.serve()``, and read the
:class:`AskResponse`.  New options (tracing, cache policy, request ids,
whatever comes next) land here instead of growing positional parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.answer import UniAskAnswer, read_through

#: Cache policies of one request.
CACHE_DEFAULT = "default"  # serve from cache when possible, store on miss
CACHE_BYPASS = "bypass"  # ignore the cache entirely (no read, no store)
CACHE_REFRESH = "refresh"  # recompute and overwrite the cached entry

CACHE_POLICIES = (CACHE_DEFAULT, CACHE_BYPASS, CACHE_REFRESH)


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
    profile: bool = False

    def __post_init__(self) -> None:
        if self.cache not in CACHE_POLICIES:
            raise ValueError(f"cache policy must be one of {CACHE_POLICIES}")


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

    Wraps the request's one :class:`~repro.core.answer.UniAskAnswer`
    envelope and exposes the fields callers reach for most as flat
    read-only properties.  ``scatter`` is the request's
    :class:`~repro.cluster.router.ScatterReport` (every shard probe of its
    search); None on a single index or when nothing was retrieved.
    """

    answer: UniAskAnswer
    request: AskRequest
    scatter: object | None = None

    text = read_through("answer.answer_text", "The user-facing answer text.")
    outcome = read_through("answer.outcome", "The pipeline outcome (``answered``, …).")
    answered = read_through("answer.answered", "True when a generated answer was shown.")
    citations = read_through("answer.citations", "Resolved citations of the accepted answer.")
    documents = read_through("answer.documents", "The retrieved chunk ranking.")
    cache_hit = read_through(
        "answer.cache_hit", '``"exact"`` / ``"semantic"`` / ``"coalesced"``, or "".'
    )
    partial_results = read_through(
        "answer.partial_results", "True when a degraded cluster served only some shards."
    )
    trace = read_through("answer.trace", "The per-stage trace, when one was requested.")
    explain = read_through("answer.explain_report", "The ExplainReport, when requested.")
    work = read_through("answer.work", "Deterministic work counts, when profiling.")
