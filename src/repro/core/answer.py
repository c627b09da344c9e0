"""Answer datatypes returned by the UniAsk engine.

An answer is two objects.  :class:`AnswerContent` is what the pipeline
computed, built once and never copied: the answer cache stores that very
object and every hit refers to it.  :class:`UniAskAnswer` is the envelope
one request gets around it, built once and set in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from repro.guardrails.pipeline import GuardrailReport
from repro.obs.explain import ExplainReport
from repro.obs.trace import Trace
from repro.search.results import RetrievedChunk

#: Final outcome of one query, as tracked by monitoring and Table 5.
OUTCOME_ANSWERED = "answered"
OUTCOME_GUARDRAIL_CITATION = "guardrail_citation"
OUTCOME_GUARDRAIL_ROUGE = "guardrail_rouge"
OUTCOME_GUARDRAIL_CLARIFICATION = "guardrail_clarification"
OUTCOME_CONTENT_FILTER = "content_filter"
OUTCOME_NO_RESULTS = "no_results"
OUTCOME_GENERATION_ERROR = "generation_error"
OUTCOME_DEGRADED = "degraded"

ALL_OUTCOMES = (
    OUTCOME_ANSWERED,
    OUTCOME_GUARDRAIL_CITATION,
    OUTCOME_GUARDRAIL_ROUGE,
    OUTCOME_GUARDRAIL_CLARIFICATION,
    OUTCOME_CONTENT_FILTER,
    OUTCOME_NO_RESULTS,
    OUTCOME_GENERATION_ERROR,
    OUTCOME_DEGRADED,
)


@dataclass(frozen=True)
class Citation:
    """One resolved citation of the generated answer."""

    key: str
    chunk_id: str
    doc_id: str
    title: str


@dataclass(frozen=True, slots=True)
class AnswerContent:
    """What the pipeline computed for one question — nothing of who asked.

    Even when the answer is invalidated by a guardrail, ``documents`` still
    carries the full retrieved list — the paper's frontend always shows it,
    because a fired guardrail is a generation failure, not a retrieval one.

    Attributes:
        answer_text: the text shown to the user (generated answer, apology,
            or clarification invitation).
        raw_answer: the unfiltered LLM output (empty when generation was
            skipped).
        outcome: one of the ``OUTCOME_*`` constants.
        citations: resolved citations of the accepted answer.
        documents: the retrieved chunk ranking (up to ``final_n``).
        context: the top *m* chunks that were fed to the LLM.
        guardrail_report: the full guardrail trace (None when generation
            was skipped).
        generation_kind: the typed classification of the LLM reply that
            produced ``raw_answer`` (a ``RESPONSE_KIND_*`` constant of
            :mod:`repro.llm.base`), or "" when generation was skipped.
    """

    answer_text: str
    raw_answer: str
    outcome: str
    citations: tuple[Citation, ...] = ()
    documents: tuple[RetrievedChunk, ...] = ()
    context: tuple[RetrievedChunk, ...] = ()
    guardrail_report: GuardrailReport | None = None
    generation_kind: str = ""


def read_through(path: str, doc: str = "") -> property:
    """A read-only property returning the dotted attribute *path*."""
    return property(attrgetter(path), doc=doc or f"``{path}``.")


@dataclass(slots=True)
class UniAskAnswer:
    """Everything UniAsk returns for one question: one envelope per request.

    The engine builds it around the request's :class:`AnswerContent` (on a
    cache hit, the cache's own object) and sets its fields in place; the
    backend sets ``response_time``.  The content's fields read through as
    properties (``answer.outcome``, ``answer.documents``, …).

    Attributes:
        content: what the pipeline computed; shared, never mutated.
        question: the requester's own words (on a cache hit too).
        route: the agent route that served the question (one of the
            ``ROUTE_*`` constants of :mod:`repro.agents.routes`), or ""
            in agents-off deployments.
        cache_hit: "" when the pipeline ran for this request; ``"exact"``
            or ``"semantic"`` when the content came from the answer cache,
            ``"coalesced"`` when it was shared by an in-flight identical
            request (see :mod:`repro.cache`).
        cache_similarity: cosine similarity of the reused entry for
            semantic hits (1.0 for exact hits, 0.0 otherwise).
        degrade_level: the admission shedding-ladder level that served the
            request — 0 full pipeline, 1 answer-cache only, 2 BM25-only
            degraded answer (outcome :data:`OUTCOME_DEGRADED` unless the
            content filter fired first).
        partial_results: True when the query was served by a degraded
            cluster — at least one shard missed its deadline, so
            ``documents`` covers only the shards that answered.
        trace: the per-stage request trace (None unless the caller asked
            for tracing via a :class:`~repro.obs.trace.RequestContext`).
        work: deterministic work counts (``{kind: units}``, sorted keys;
            see :mod:`repro.obs.work`) accrued serving this request, or
            None unless the request asked for profiling.
        explain_report: full score provenance of the retrieval (None unless
            the request asked for ``explain``; see :mod:`repro.obs.explain`).
        response_time: simulated seconds spent serving the query.
    """

    content: AnswerContent
    question: str
    route: str = ""
    cache_hit: str = ""
    cache_similarity: float = 0.0
    degrade_level: int = 0
    partial_results: bool = False
    trace: Trace | None = None
    work: dict[str, int] | None = None
    explain_report: ExplainReport | None = None
    response_time: float = 0.0

    answer_text = read_through("content.answer_text")
    raw_answer = read_through("content.raw_answer")
    outcome = read_through("content.outcome")
    citations = read_through("content.citations")
    documents = read_through("content.documents")
    context = read_through("content.context")
    guardrail_report = read_through("content.guardrail_report")
    generation_kind = read_through("content.generation_kind")

    @property
    def answered(self) -> bool:
        """True when a generated answer was accepted and shown."""
        return self.content.outcome == OUTCOME_ANSWERED

    @property
    def guardrail_fired(self) -> bool:
        """True when an answer was generated but invalidated."""
        return self.content.outcome in (
            OUTCOME_GUARDRAIL_CITATION,
            OUTCOME_GUARDRAIL_ROUGE,
            OUTCOME_GUARDRAIL_CLARIFICATION,
        )
