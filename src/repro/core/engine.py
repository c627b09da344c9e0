"""The UniAsk engine: the user-query flow of Figure 1.

One :meth:`UniAskEngine.answer` call performs the complete journey of a
user question through the deployed system:

1. the **content filter** screens the question (harmful or off-purpose
   input is blocked before any retrieval);
2. the **retrieval module** (HSS) fetches the ranked chunk list;
3. the top *m* = 4 chunks become the JSON context of the **generation
   prompt**, and the LLM produces a cited Italian answer;
4. the **guardrail pipeline** validates the answer (citation → ROUGE-L →
   clarification); an invalidated answer is replaced by the apology /
   reformulation message while the document list stays visible.

Deployments built with a :class:`~repro.cache.AnswerCache` short-circuit
the whole pipeline on a cache hit (exact or semantic), subject to the
per-request cache policy carried by :class:`~repro.api.types.AskOptions`.

Each step is an explicit stage method taking the request's one
:class:`~repro.obs.trace.RequestContext` (built in ``answer``); with tracing
enabled every stage records a named span (see :mod:`repro.obs.spans`) and
the finished :class:`~repro.obs.trace.Trace` rides back on the answer.
"""

from __future__ import annotations

from repro.api.types import (
    CACHE_BYPASS,
    CACHE_REFRESH,
    AskOptions,
    AskRequest,
    AskResponse,
)
from repro.cache.answer_cache import AnswerCache, CacheHit
from repro.core.answer import (
    OUTCOME_ANSWERED,
    OUTCOME_CONTENT_FILTER,
    OUTCOME_GENERATION_ERROR,
    OUTCOME_GUARDRAIL_CITATION,
    OUTCOME_GUARDRAIL_CLARIFICATION,
    OUTCOME_GUARDRAIL_ROUGE,
    OUTCOME_NO_RESULTS,
    AnswerContent,
    Citation,
    UniAskAnswer,
)
from repro.core.config import UniAskConfig
from repro.guardrails.citation import extract_citations
from repro.guardrails.pipeline import APOLOGY_TEXT, GuardrailPipeline, GuardrailReport
from repro.llm.base import ChatCompletionClient, ChatResponse, traced_complete
from repro.llm.content_filter import ContentFilter
from repro.llm.prompts import build_answer_prompt, context_from_results
from repro.obs import spans
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.trace import NULL_CONTEXT, RequestContext, Trace
from repro.obs.work import WorkCounters
from repro.search.hybrid import HybridSemanticSearch
from repro.search.results import RetrievedChunk

#: Message shown when the content filter blocks the question outright.
CONTENT_BLOCKED_TEXT = (
    "La domanda non può essere elaborata perché contiene contenuti non "
    "conformi all'uso previsto del servizio."
)

#: Message shown when retrieval finds nothing at all.
NO_RESULTS_TEXT = (
    "Nessun documento pertinente è stato trovato nella base di conoscenza "
    "per questa domanda."
)

#: Outcomes the answer cache may store.  Content-filter blocks and
#: generation errors are excluded: the former is cheaper to recompute than
#: to cache, the latter is transient (a retried question should get a
#: fresh chance at the LLM, not a cached apology).
CACHEABLE_OUTCOMES = frozenset(
    {
        OUTCOME_ANSWERED,
        OUTCOME_NO_RESULTS,
        OUTCOME_GUARDRAIL_CITATION,
        OUTCOME_GUARDRAIL_ROUGE,
        OUTCOME_GUARDRAIL_CLARIFICATION,
    }
)


class UniAskEngine:
    """End-to-end question answering over the indexed knowledge base."""

    def __init__(
        self,
        searcher: HybridSemanticSearch,
        llm: ChatCompletionClient,
        guardrails: GuardrailPipeline | None = None,
        content_filter: ContentFilter | None = None,
        config: UniAskConfig | None = None,
        telemetry: Telemetry | None = None,
        answer_cache: AnswerCache | None = None,
    ) -> None:
        self.config = config or UniAskConfig()
        #: The retrieval module (a ClusterSearcher in sharded deployments).
        self.searcher = searcher
        self._llm = llm
        self._guardrails = guardrails or GuardrailPipeline()
        self._content_filter = content_filter or ContentFilter()
        self.answer_cache = answer_cache
        self.telemetry = telemetry or NULL_TELEMETRY
        registry = self.telemetry.registry
        self._m_requests = registry.counter(
            "uniask_requests_total", "Engine requests, by pipeline outcome.", ("outcome",)
        )
        self._m_retrieved = registry.histogram(
            "uniask_retrieval_chunks",
            "Chunks returned by the retrieval module per request.",
            buckets=(1.0, 5.0, 10.0, 25.0, 50.0, 100.0),
        )

    def answer(
        self,
        request: AskRequest | str,
        ctx: RequestContext | None = None,
    ) -> AskResponse:
        """Answer *request*; never raises on ordinary pipeline outcomes.

        The one entry point of the engine: a bare string is promoted to an
        :class:`~repro.api.types.AskRequest` with default options.  This is
        also the only place a caller may omit *ctx*: every stage below runs
        on the one :class:`RequestContext` built here from the caller's (the
        backend passes its latency-model trace) and ``options.trace`` /
        ``profile`` / ``explain``.  Per-request results — trace, work counts,
        the merged cluster scatter report — ride on it and come back on the
        response; nothing is kept on the engine.  ``options.cache`` selects
        the cache policy; it is inert without an answer cache.
        """
        if isinstance(request, str):
            request = AskRequest(question=request)
        question = request.question
        options = request.options
        # One context per request and never the caller's own object (it may
        # be the shared null singleton): its trace and counters, raised by
        # what the options ask for.  Profiling books onto spans, so it
        # implies a trace.
        base = ctx or NULL_CONTEXT
        keep_trace = base.trace.enabled or not (options.trace or options.profile)
        keep_work = base.work is not None or not options.profile
        ctx = RequestContext(
            trace=base.trace if keep_trace else Trace(),
            request_id=base.request_id or options.request_id,
            explain=base.explain or options.explain,
            work=base.work if keep_work else WorkCounters(),
        )
        trace, work = ctx.trace, ctx.work
        with trace.span(spans.STAGE_ASK, question_chars=len(question)) as root:
            content, hit = self._answer_cached(question, options, ctx)
            # The request's one envelope, set in place from here on.
            answer = UniAskAnswer(content, question)
            if hit is not None:
                answer.cache_hit, answer.cache_similarity = hit.kind, hit.similarity
            if options.explain:
                answer.explain_report = self._explain(answer, ctx)
            root.set("outcome", content.outcome)
        self._m_requests.labels(content.outcome).inc()
        scatter = ctx.scatter
        if scatter is not None and scatter.partial:
            answer.partial_results = True
        if trace.enabled:
            answer.trace = trace
        if work is not None:
            answer.work = work.snapshot()
        return AskResponse(answer=answer, request=request, scatter=scatter)

    # -- stages --------------------------------------------------------------

    def _answer_cached(
        self, question: str, options: AskOptions, ctx: RequestContext
    ) -> tuple[AnswerContent, CacheHit | None]:
        """Run the staged pipeline behind the answer cache, when one is wired.

        Policy ``bypass`` skips the cache entirely; ``refresh`` skips the
        lookup but overwrites the entry with the fresh answer.  Lookups and
        stores are stamped with the searcher's current index generation, so
        any corpus write since computation invalidates the entry lazily.

        Returns the content and the cache hit it came from (None when the
        pipeline ran).
        """
        cache = self.answer_cache
        # Explain requests run cacheless both ways: a cached answer has no
        # fresh provenance to report, and an explain answer (per-term
        # components, attached report) must not be what later plain
        # requests are served from.
        cached = cache is not None and options.cache != CACHE_BYPASS and not options.explain
        if cached:
            key = cache.key(question, options.filters)
            epoch = self.searcher.index.generation
            if options.cache != CACHE_REFRESH:
                hit = self._cache_lookup(key, epoch, question, ctx)
                if hit is not None:
                    return hit.content, hit

        content = self._ask_staged(question, options.filters, ctx)
        # Partial-results answers are never cached: a degraded cluster's
        # answer reflects whichever shards happened to respond, not the corpus.
        partial = ctx.scatter is not None and ctx.scatter.partial
        if cached and content.outcome in CACHEABLE_OUTCOMES and not partial:
            embedding = self.searcher.index.embedder.embed(question)
            with ctx.trace.span(spans.STAGE_CACHE_STORE):
                cache.store(key, content, epoch, embedding=embedding)
        return content, None

    def _cache_lookup(
        self, key, epoch: int, question: str, ctx: RequestContext
    ) -> CacheHit | None:
        """Probe the answer cache inside its span."""
        cache = self.answer_cache
        embedder = self.searcher.index.embedder
        with ctx.span(spans.STAGE_CACHE_LOOKUP, entries=len(cache)) as span:
            hit = cache.lookup(
                key, epoch, embed_fn=lambda: embedder.embed(question), work=ctx.work
            )
            span.set("hit", hit.kind if hit is not None else "")
        return hit

    def _explain(self, answer: UniAskAnswer, ctx: RequestContext):
        """Fold the answer's retrieval components into an ExplainReport."""
        from repro.obs.explain import build_explain_report

        config = self.searcher.config
        return build_explain_report(
            answer.question,
            list(answer.documents),
            rrf_c=config.rrf_c,
            mode=config.mode,
            work=ctx.work.snapshot() if ctx.work is not None else None,
        )

    def _ask_staged(
        self, question: str, filters: dict[str, str] | None, ctx: RequestContext
    ) -> AnswerContent:
        """The staged pipeline: screen → retrieve → generate → validate."""
        blocked = self._screen(question, ctx)
        if blocked is not None:
            return blocked
        documents = self._retrieve(question, filters, ctx)
        if not documents:
            return AnswerContent(
                answer_text=NO_RESULTS_TEXT,
                raw_answer="",
                outcome=OUTCOME_NO_RESULTS,
            )

        context = documents[: self.config.generation.context_size]
        response = self._generate(question, context, ctx)
        if response is None:
            # The LLM service is the least reliable dependency (rate limits,
            # timeouts).  Degrade to search-only: apology plus the retrieved
            # list, never a user-facing exception.
            return AnswerContent(
                answer_text=APOLOGY_TEXT,
                raw_answer="",
                outcome=OUTCOME_GENERATION_ERROR,
                documents=tuple(documents),
                context=tuple(context),
            )
        raw_answer = response.content

        report = self._validate(question, raw_answer, context, ctx)
        if not report.passed:
            return AnswerContent(
                answer_text=report.user_message or APOLOGY_TEXT,
                raw_answer=raw_answer,
                outcome=f"guardrail_{report.fired}",
                documents=tuple(documents),
                context=tuple(context),
                guardrail_report=report,
            )

        citations = self._resolve_citations(raw_answer, context, ctx)
        return AnswerContent(
            answer_text=raw_answer,
            raw_answer=raw_answer,
            outcome=OUTCOME_ANSWERED,
            citations=citations,
            documents=tuple(documents),
            context=tuple(context),
            guardrail_report=report,
        )

    def _screen(self, question: str, ctx: RequestContext) -> AnswerContent | None:
        """Stage 1: screen the incoming question.

        Returns the content-blocked content, or None when it may proceed.
        """
        with ctx.trace.span(spans.STAGE_CONTENT_FILTER) as span:
            screening = self._content_filter.check(question)
            span.set("blocked", screening.blocked)
            if screening.blocked:
                span.set("category", screening.category)
        if not screening.blocked:
            return None
        return AnswerContent(
            answer_text=CONTENT_BLOCKED_TEXT,
            raw_answer="",
            outcome=OUTCOME_CONTENT_FILTER,
        )

    def _retrieve(
        self,
        question: str,
        filters: dict[str, str] | None,
        ctx: RequestContext,
    ) -> list[RetrievedChunk]:
        """Stage 2: hybrid retrieval with semantic reranking.

        A clustered searcher's scatter report is taken right after the
        search and kept on ``ctx.scatter``: a shard that missed its
        deadline marks the answer partial, never fails it.
        """
        with ctx.trace.span(spans.STAGE_RETRIEVAL) as span:
            documents = self.searcher.search(question, filters=filters, ctx=ctx)
            span.set("results", len(documents))
            report = self.searcher.take_scatter_report()
            if report is not None:
                span.set("partial", report.partial)
                span.set("shards", len(report.probes))
                ctx.scatter = report
            self._m_retrieved.observe(float(len(documents)))
        return documents

    def _generate(
        self, question: str, context: list[RetrievedChunk], ctx: RequestContext
    ) -> ChatResponse | None:
        """Stage 3: build the prompt and call the LLM (None on failure)."""
        with ctx.trace.span(spans.STAGE_PROMPT_BUILD, context_chunks=len(context)) as span:
            prompt = build_answer_prompt(question, context_from_results(context))
            span.set("messages", len(prompt))
        try:
            return traced_complete(
                self._llm,
                prompt,
                ctx,
                temperature=self.config.generation.temperature,
                max_tokens=self.config.generation.max_tokens,
            )
        except Exception:
            return None

    def _validate(
        self,
        question: str,
        raw_answer: str,
        context: list[RetrievedChunk],
        ctx: RequestContext,
    ) -> GuardrailReport:
        """Stage 4: run the guardrail pipeline on the generated answer."""
        with ctx.trace.span(spans.STAGE_GUARDRAILS) as span:
            report = self._guardrails.run(question, raw_answer, context, ctx=ctx)
            span.set("passed", report.passed)
            if report.fired:
                span.set("fired", report.fired)
        return report

    def _resolve_citations(
        self,
        answer: str,
        context: list[RetrievedChunk],
        ctx: RequestContext = NULL_CONTEXT,
    ) -> tuple[Citation, ...]:
        """Stage 5: map ``[docK]`` markers of the accepted answer to chunks.

        Malformed keys (``doc``, ``docX``, out-of-range indices) are skipped
        rather than failing the whole answer: a bad marker is a generation
        blemish, not a reason to drop an already validated answer.
        """
        citations: list[Citation] = []
        seen: set[str] = set()
        with ctx.trace.span(spans.STAGE_CITATIONS) as span:
            for key in extract_citations(answer):
                if key in seen:
                    continue
                seen.add(key)
                suffix = key.removeprefix("doc")
                if not suffix.isdigit():
                    continue
                position = int(suffix) - 1
                if 0 <= position < len(context):
                    record = context[position].record
                    citations.append(
                        Citation(
                            key=key,
                            chunk_id=record.chunk_id,
                            doc_id=record.doc_id,
                            title=record.title,
                        )
                    )
            span.set("resolved", len(citations))
        return tuple(citations)
