"""The Orchestrator: route classification and per-route execution.

The Orchestrator fronts the :class:`~repro.core.engine.UniAskEngine` the
way ReportGenAI's Orchestrator fronts its SQL stack: it decides *how* a
question should be answered (see :mod:`repro.agents.routes`) and runs the
chosen specialist, reusing the engine's existing stage methods so every
route inherits the content filter, guardrails and citation machinery
unchanged:

* **conversational** — canned reply, no retrieval, no LLM;
* **lookup** — exactly today's staged pipeline (the safe default);
* **multi_hop** — decompose, retrieve each hop, fuse the per-hop rankings
  through :func:`~repro.search.fusion.reciprocal_rank_fusion` (bit-exact
  RRF sums preserved in explain reports), then generate over the fusion;
* **structured** — compile the question into a :class:`~repro.agents.structured.TablePlan`
  over the extracted KB tables, with the Validator repair loop; rendered
  rows carry ordinary ``[docK]`` citations resolved against the retrieval
  context;
* **follow_up** — resolve anaphora against the bounded per-session memory
  and run the rewrite through the lookup pipeline.

The Orchestrator is only *constructed* when agents are enabled, so its
route counter never appears in the metrics exposition of an agents-off
deployment — part of the byte-identity contract of
:class:`~repro.agents.config.AgentsConfig`.
"""

from __future__ import annotations

from repro.agents.conversational import ConversationalAgent
from repro.agents.followup import FollowUpAgent
from repro.agents.intent import IntentClassifier, RoutePrediction
from repro.agents.memory import SessionMemory, SessionTurn
from repro.agents.multihop import MultiHopAgent
from repro.agents.routes import (
    ALL_ROUTES,
    ROUTE_CONVERSATIONAL,
    ROUTE_FOLLOW_UP,
    ROUTE_MULTI_HOP,
    ROUTE_STRUCTURED,
)
from repro.agents.structured import (
    StructuredAgent,
    StructuredCatalog,
    render_structured_answer,
)
from repro.core.answer import OUTCOME_ANSWERED, AnswerContent, UniAskAnswer
from repro.llm.base import RESPONSE_KIND_CLARIFICATION
from repro.obs import spans
from repro.obs.metrics import NULL_REGISTRY
from repro.search.fusion import reciprocal_rank_fusion

#: Concurrently remembered sessions (LRU beyond).
SESSION_CAPACITY = 1024
#: Session-memory lifetime on the deployment's simulated clock.
SESSION_TTL_SECONDS = 1800.0


class Orchestrator:
    """Routes questions to specialist agents in front of the engine.

    Args:
        catalog: the structured table catalog (None disables the
            structured mini engine; structured questions then fall back
            to the generative pipeline).
        clock: the deployment's simulated clock, driving session TTLs.
        registry: the telemetry metric registry; the route counter is
            registered here iff an Orchestrator exists, keeping the
            agents-off ``/metrics`` exposition byte-identical.
    """

    def __init__(
        self,
        *,
        catalog: StructuredCatalog | None = None,
        clock=None,
        registry=None,
    ) -> None:
        self.classifier = IntentClassifier()
        self.memory = SessionMemory(
            capacity=SESSION_CAPACITY, ttl_seconds=SESSION_TTL_SECONDS, clock=clock
        )
        self.conversational = ConversationalAgent()
        self.followup = FollowUpAgent()
        self.multihop = MultiHopAgent()
        self.catalog = catalog
        self.structured: StructuredAgent | None = (
            StructuredAgent(catalog) if catalog is not None else None
        )
        self._m_routes = (registry or NULL_REGISTRY).counter(
            "uniask_agent_route_total",
            "Agent-routed requests, by route and pipeline outcome.",
            ("route", "outcome"),
        )

    def refresh_catalog(self, store) -> None:
        """Re-extract the structured tables after a corpus write."""
        self.catalog = StructuredCatalog.from_store(store)
        self.structured = StructuredAgent(self.catalog)

    # -- routing --------------------------------------------------------------

    def resolve_route(self, question: str, options, ctx) -> RoutePrediction:
        """Decide the route for *question* (explicit override wins)."""
        with ctx.trace.span(spans.STAGE_AGENT_ROUTE) as span:
            if options.route:
                if options.route not in ALL_ROUTES:
                    raise ValueError(f"unknown route override {options.route!r}")
                prediction = RoutePrediction(route=options.route, reason="override")
            else:
                prediction = self.classifier.classify(
                    question, history=self.memory.turns(options.session_id)
                )
            span.set("route", prediction.route)
            span.set("reason", prediction.reason)
        return prediction

    # -- execution ------------------------------------------------------------

    def execute(
        self, engine, question: str, options, ctx, route: str
    ) -> tuple[AnswerContent, str]:
        """Run *question* down *route* using the engine's stage methods.

        Returns the content and the question actually answered (the
        follow-up rewrite, else *question*); the engine hands it back to
        :meth:`finish` — nothing about a request is kept here in between.
        """
        if route == ROUTE_FOLLOW_UP:
            return self._run_follow_up(engine, question, options, ctx)
        if route == ROUTE_CONVERSATIONAL:
            answer = self._run_conversational(question)
        elif route == ROUTE_MULTI_HOP:
            answer = self._run_multi_hop(engine, question, options.filters, ctx)
        elif route == ROUTE_STRUCTURED:
            answer = self._run_structured(engine, question, options.filters, ctx)
        else:
            answer = engine._ask_staged(question, options.filters, ctx)
        return answer, question

    def finish(
        self, question: str, answer: UniAskAnswer, options, route: str, resolved: str
    ) -> None:
        """Record the served turn: route metrics plus session memory.

        *resolved* is what :meth:`execute` answered (*question* itself
        when the request never reached it, e.g. a cache hit).
        """
        clarification = (
            answer.generation_kind == RESPONSE_KIND_CLARIFICATION
            or answer.outcome == "guardrail_clarification"
        )
        outcome = "clarification" if clarification else answer.outcome
        self._m_routes.labels(route, outcome).inc()
        if options.session_id:
            self.memory.observe(
                options.session_id,
                SessionTurn(
                    question=question,
                    resolved_question=resolved,
                    route=route,
                    outcome=answer.outcome,
                    clarification_pending=clarification,
                ),
            )

    # -- per-route runners ----------------------------------------------------

    def _run_conversational(self, question: str) -> AnswerContent:
        reply = self.conversational.respond(question)
        return AnswerContent(
            answer_text=reply.text,
            raw_answer=reply.text,
            outcome=OUTCOME_ANSWERED,
        )

    def _run_multi_hop(self, engine, question: str, filters, ctx) -> AnswerContent:
        blocked = engine._screen(question, ctx)
        if blocked is not None:
            return blocked
        decomposition = self.multihop.decompose(question)
        if len(decomposition.hops) < 2:
            # A misfired connective must never make the answer worse than
            # the single-path pipeline: degrade to a plain lookup (the
            # screen already ran, but re-screening is idempotent).
            return engine._ask_staged(question, filters, ctx)

        rankings: dict[str, list] = {}
        with ctx.trace.span(
            spans.STAGE_RETRIEVAL, hops=len(decomposition.hops)
        ) as span:
            span.set("rule", decomposition.rule)
            for index, hop in enumerate(decomposition.hops):
                with ctx.trace.span(
                    spans.STAGE_SUBQUERY, index=index, question_chars=len(hop)
                ) as hop_span:
                    # The engine's retrieval stage, once per hop: every
                    # hop's scatter report lands on the request context.
                    rankings[f"hop_{index + 1}"] = engine._search(hop, filters, ctx, hop_span)
            span.set("results", sum(len(r) for r in rankings.values()))

        config = engine.searcher.config
        with ctx.trace.span(
            spans.STAGE_FUSION, sources=len(rankings), multi_hop=True
        ) as span:
            fused = reciprocal_rank_fusion(
                rankings, c=config.rrf_c, top_n=config.final_n
            )
            span.set("candidates", len(fused))
        return engine._complete_from_documents(question, fused, ctx, fused=True)

    def _run_structured(self, engine, question: str, filters, ctx) -> AnswerContent:
        blocked = engine._screen(question, ctx)
        if blocked is not None:
            return blocked
        # Retrieval still runs: its top chunks are the citation context for
        # rendered rows, and the generative fallback when no plan succeeds.
        documents = engine._retrieve(question, filters, ctx)
        context = documents[: engine.config.generation.context_size]

        result = None
        if self.structured is not None:
            with ctx.trace.span(spans.STAGE_STRUCTURED_PLAN) as span:
                result = self.structured.run(question)
                if result.plan is not None:
                    span.set("table", result.plan.table)
                    span.set("predicates", len(result.plan.predicates))
                span.set("attempts", len(result.attempts))
                span.set("repaired", result.repaired)
                if result.error:
                    span.set("error", result.error)
        if result is not None and result.ok:
            with ctx.trace.span(spans.STAGE_STRUCTURED_EXEC) as span:
                rendered = render_structured_answer(question, result, context)
                span.set("rows", len(result.rows))
                if result.count is not None:
                    span.set("count", result.count)
            citations = engine._resolve_citations(rendered, context, ctx)
            return AnswerContent(
                answer_text=rendered,
                raw_answer=rendered,
                outcome=OUTCOME_ANSWERED,
                citations=citations,
                documents=tuple(documents),
                context=tuple(context),
            )
        # No executable plan even after repair: degrade to the generative
        # pipeline over the already retrieved documents.
        return engine._complete_from_documents(question, documents, ctx)

    def _run_follow_up(
        self, engine, question: str, options, ctx
    ) -> tuple[AnswerContent, str]:
        with ctx.trace.span(spans.STAGE_AGENT_REWRITE) as span:
            resolved = self.followup.resolve(
                question, self.memory.last_turn(options.session_id)
            )
            span.set("rewritten", resolved.question != question)
            span.set("merged_clarification", resolved.merged_clarification)
        # The envelope carries the user's words; the rewrite is only answered.
        return engine._ask_staged(resolved.question, options.filters, ctx), resolved.question
