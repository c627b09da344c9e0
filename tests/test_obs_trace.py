"""Tests for the observability layer: traces, spans, staged pipeline wiring.

Covers the span taxonomy of a traced ``ask()`` call, zero-cost disabled
tracing, per-stage duration accounting, the multi-query ranking cache, the
dashboard's per-stage percentile aggregation, and the citation-key
regression fix.
"""

from __future__ import annotations

import time

import pytest

from repro.core.answer import OUTCOME_ANSWERED, OUTCOME_CONTENT_FILTER
from repro.obs import spans
from repro.obs.trace import (
    NULL_CONTEXT,
    NullTrace,
    RequestContext,
    Trace,
    null_context,
)
from repro.pipeline.clock import SimulatedClock
from repro.search.hybrid import HybridSemanticSearch
from repro.search.reranker import SemanticReranker
from repro.service.backend import BackendService
from repro.service.monitoring import (
    MetricsCollector,
    format_dashboard,
    percentile,
)


class TestTrace:
    def test_spans_nest_correctly(self):
        trace = Trace(clock=SimulatedClock())
        with trace.span("outer"):
            with trace.span("inner_a"):
                with trace.span("leaf"):
                    pass
            with trace.span("inner_b"):
                pass
        names = trace.span_names()
        assert names == ["outer", "inner_a", "leaf", "inner_b"]
        outer, inner_a, leaf, inner_b = trace.spans
        assert (outer.depth, outer.parent_name) == (0, None)
        assert (inner_a.depth, inner_a.parent_name) == (1, "outer")
        assert (leaf.depth, leaf.parent_name) == (2, "inner_a")
        assert (inner_b.depth, inner_b.parent_name) == (1, "outer")
        assert outer.child_count == 2
        assert not outer.is_leaf
        assert leaf.is_leaf and inner_b.is_leaf

    def test_durations_measured_on_simulated_clock(self):
        clock = SimulatedClock()
        trace = Trace(clock=clock)
        with trace.span("parent"):
            with trace.span("child_a"):
                clock.advance(1.0)
            clock.advance(0.25)
            with trace.span("child_b"):
                clock.advance(2.0)
        parent, child_a, child_b = trace.spans
        assert child_a.duration == pytest.approx(1.0)
        assert child_b.duration == pytest.approx(2.0)
        assert parent.duration == pytest.approx(3.25)
        # Children never exceed the enclosing stage.
        assert child_a.duration + child_b.duration <= parent.duration
        assert trace.total_duration == pytest.approx(3.25)
        assert trace.stage_durations() == {
            "child_a": pytest.approx(1.0),
            "child_b": pytest.approx(2.0),
        }

    def test_duplicate_leaf_names_are_summed(self):
        clock = SimulatedClock()
        trace = Trace(clock=clock)
        for _ in range(3):
            with trace.span("llm"):
                clock.advance(0.5)
        assert trace.stage_durations() == {"llm": pytest.approx(1.5)}
        assert len(trace.find_all("llm")) == 3

    def test_exception_marks_span_errored(self):
        trace = Trace(clock=SimulatedClock())
        with pytest.raises(RuntimeError):
            with trace.span("boom"):
                raise RuntimeError("stage failed")
        span = trace.find("boom")
        assert span.status == "error"
        assert span.end is not None  # still closed

    def test_attributes_and_annotate(self):
        trace = Trace(clock=SimulatedClock())
        with trace.span("stage", n=50) as span:
            span.set("results", 7)
            span.annotate(cached=False, sources=3)
        assert trace.find("stage").attributes == {
            "n": 50,
            "results": 7,
            "cached": False,
            "sources": 3,
        }

    def test_cost_hook_advances_simulated_clock(self):
        clock = SimulatedClock()
        trace = Trace(clock=clock, cost=lambda span: 0.1 if span.is_leaf else 0.0)
        with trace.span("parent"):
            with trace.span("leaf_a"):
                pass
            with trace.span("leaf_b"):
                pass
        durations = trace.stage_durations()
        assert durations == {"leaf_a": pytest.approx(0.1), "leaf_b": pytest.approx(0.1)}
        assert trace.total_duration == pytest.approx(0.2)

    def test_format_table_lists_every_stage(self):
        clock = SimulatedClock()
        trace = Trace(clock=clock)
        with trace.span("ask"):
            with trace.span("llm", prompt_tokens=100):
                clock.advance(1.0)
        table = trace.format_table()
        assert "ask" in table and "llm" in table
        assert "prompt_tokens=100" in table
        assert "total" in table


class TestNullTrace:
    def test_disabled_trace_records_nothing(self):
        trace = NullTrace()
        with trace.span("anything", big_attribute=list(range(100))):
            pass
        assert trace.spans == []
        assert not trace.enabled
        assert trace.stage_durations() == {}
        assert trace.total_duration == 0.0

    def test_null_context_is_shared_and_disabled(self):
        assert null_context() is NULL_CONTEXT
        assert not null_context().tracing
        assert isinstance(null_context().trace, NullTrace)

    def test_null_span_overhead_is_negligible(self):
        trace = NullTrace()
        iterations = 20_000
        start = time.perf_counter()
        for _ in range(iterations):
            with trace.span("stage"):
                pass
        elapsed = time.perf_counter() - start
        # A no-op span must cost far less than the work it wraps; the bound
        # is deliberately loose (20 µs/span) to stay robust on slow CI.
        assert elapsed / iterations < 20e-6
        assert trace.spans == []


class TestPercentiles:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(values, 50.0) == 5.0
        assert percentile(values, 95.0) == 10.0
        assert percentile(values, 100.0) == 10.0
        with pytest.raises(ValueError):
            percentile([], 95.0)
        with pytest.raises(ValueError):
            percentile(values, 150.0)

    def test_snapshot_aggregates_stage_percentiles(self):
        collector = MetricsCollector()
        # Synthetic stream: 20 traced queries; llm dominates, rerank constant.
        for i in range(20):
            collector.record_query(
                timestamp=float(i),
                user_id="u",
                outcome=OUTCOME_ANSWERED,
                response_time=1.0,
                stages={"llm": float(i + 1), "rerank": 0.5},
            )
        snapshot = collector.snapshot()
        assert snapshot.stage_counts == {"llm": 20, "rerank": 20}
        assert snapshot.stage_p50["llm"] == 10.0  # nearest rank of 1..20
        assert snapshot.stage_p95["llm"] == 19.0
        assert snapshot.stage_p50["rerank"] == 0.5
        assert snapshot.stage_p95["rerank"] == 0.5

    def test_untraced_events_yield_empty_stage_series(self):
        collector = MetricsCollector()
        collector.record_query(
            timestamp=0.0, user_id="u", outcome=OUTCOME_ANSWERED, response_time=1.0
        )
        snapshot = collector.snapshot()
        assert snapshot.stage_p50 == {} and snapshot.stage_p95 == {}
        assert "per-stage latency" not in format_dashboard(snapshot)

    def test_dashboard_renders_stage_series(self):
        collector = MetricsCollector()
        collector.record_query(
            timestamp=0.0,
            user_id="u",
            outcome=OUTCOME_ANSWERED,
            response_time=1.0,
            stages={"llm": 1.2, "rerank": 0.03},
        )
        page = format_dashboard(collector.snapshot())
        assert "per-stage latency (p50 / p95):" in page
        assert "llm: 1200.0ms / 1200.0ms (n=1)" in page


class TestTracedAsk:
    @pytest.fixture()
    def question(self, small_kb):
        topic = next(iter(small_kb.topics.values()))
        return f"Come posso {topic.action.canonical} {topic.entity.canonical}?"

    def test_traced_ask_produces_stage_spans(self, system, question):
        ctx = RequestContext.traced()
        answer = system.engine.answer(question, ctx=ctx).answer
        assert answer.outcome == OUTCOME_ANSWERED
        assert answer.trace is ctx.trace
        names = set(answer.trace.span_names())
        expected = {
            spans.STAGE_ASK,
            spans.STAGE_CONTENT_FILTER,
            spans.STAGE_RETRIEVAL,
            spans.STAGE_FULLTEXT,
            spans.STAGE_EMBED_QUERY,
            spans.vector_stage("title"),
            spans.vector_stage("content"),
            spans.STAGE_FUSION,
            spans.STAGE_RERANK,
            spans.STAGE_PROMPT_BUILD,
            spans.STAGE_LLM,
            spans.STAGE_GUARDRAILS,
            spans.guardrail_stage("citation"),
            spans.guardrail_stage("rouge"),
            spans.guardrail_stage("clarification"),
            spans.STAGE_CITATIONS,
        }
        assert expected <= names

    def test_traced_stage_durations_sum_to_at_most_total(self, system, question):
        ctx = RequestContext.traced()
        answer = system.engine.answer(question, ctx=ctx).answer
        trace = answer.trace
        total = trace.total_duration
        assert total > 0.0
        assert sum(trace.stage_durations().values()) <= total + 1e-9

    def test_retrieval_spans_nest_under_retrieval(self, system, question):
        ctx = RequestContext.traced()
        trace = system.engine.answer(question, ctx=ctx).answer.trace
        assert trace.find(spans.STAGE_FULLTEXT).parent_name == spans.STAGE_RETRIEVAL
        assert trace.find(spans.STAGE_RERANK).parent_name == spans.STAGE_RETRIEVAL
        assert (
            trace.find(spans.guardrail_stage("citation")).parent_name
            == spans.STAGE_GUARDRAILS
        )

    def test_untraced_ask_has_no_trace_and_same_answer(self, system, question):
        traced = system.engine.answer(question, ctx=RequestContext.traced()).answer
        plain = system.engine.answer(question).answer
        assert plain.trace is None
        assert plain.answer_text == traced.answer_text
        assert plain.outcome == traced.outcome
        assert plain.citations == traced.citations

    def test_blocked_question_traces_only_the_filter(self, system):
        ctx = RequestContext.traced()
        answer = system.engine.answer("questo stupido sistema non funziona", ctx=ctx).answer
        assert answer.outcome == OUTCOME_CONTENT_FILTER
        names = answer.trace.span_names()
        assert names == [spans.STAGE_ASK, spans.STAGE_CONTENT_FILTER]
        assert answer.trace.find(spans.STAGE_CONTENT_FILTER).attributes["blocked"] is True

    def test_search_outcome_attributes(self, system, question):
        ctx = RequestContext.traced()
        system.engine.answer(question, ctx=ctx)
        retrieval = ctx.trace.find(spans.STAGE_RETRIEVAL)
        assert retrieval.attributes["results"] > 0
        llm = ctx.trace.find(spans.STAGE_LLM)
        assert llm.attributes["prompt_tokens"] > 0
        assert llm.attributes["finish_reason"] == "stop"


class TestCitationRegression:
    def test_malformed_citation_keys_are_skipped(self, system, small_kb, monkeypatch):
        """Seed code crashed with ValueError on non-numeric citation keys."""
        import repro.core.engine as engine_mod

        topic = next(iter(small_kb.topics.values()))
        context = system.searcher.search(
            f"Come posso {topic.action.canonical} {topic.entity.canonical}?"
        )[:4]
        monkeypatch.setattr(
            engine_mod,
            "extract_citations",
            lambda answer: ["doc", "docX", "doc1", "doc99", "doc0"],
        )
        citations = system.engine._resolve_citations("qualsiasi risposta", context)
        assert [citation.key for citation in citations] == ["doc1"]
        assert citations[0].chunk_id == context[0].record.chunk_id


class TestMultiQueryCache:
    class _CountingReranker(SemanticReranker):
        def __init__(self, lexicon):
            super().__init__(lexicon)
            self.calls = 0

        def rerank(self, query, results, ctx=None):
            self.calls += 1
            return super().rerank(query, results, ctx=ctx)

    def _searcher(self, system, lexicon):
        reranker = self._CountingReranker(lexicon)
        searcher = HybridSemanticSearch(
            system.index, reranker=reranker, config=system.config.retrieval
        )
        return searcher, reranker

    def test_duplicate_subqueries_reuse_cached_ranking(self, system, lexicon):
        searcher, reranker = self._searcher(system, lexicon)
        queries = ["bloccare carta di credito", "sospendere carta", "bloccare carta di credito"]
        ctx = RequestContext.traced()
        fused = searcher.search_multi(queries, ctx=ctx)
        assert fused
        # Two unique queries → the reranker ran twice, not three times.
        assert reranker.calls == 2
        subqueries = ctx.trace.find_all(spans.STAGE_SUBQUERY)
        assert [span.attributes["cached"] for span in subqueries] == [False, False, True]

    def test_cached_ranking_preserves_duplicate_fusion_weight(self, system, lexicon):
        """Reusing a duplicate's ranking must not change the fused output."""
        searcher, _ = self._searcher(system, lexicon)
        baseline, _ = self._searcher(system, lexicon)
        with_dup = searcher.search_multi(["bloccare carta", "sospendere carta", "bloccare carta"])
        # The seed implementation ran the duplicate search independently;
        # identical deterministic rankings mean identical RRF fusion.
        manual = baseline.search_multi(["bloccare carta", "sospendere carta", "bloccare carta"])
        assert [chunk.record.chunk_id for chunk in with_dup] == [
            chunk.record.chunk_id for chunk in manual
        ]
        assert [chunk.score for chunk in with_dup] == pytest.approx(
            [chunk.score for chunk in manual]
        )


class TestBackendTracing:
    @pytest.fixture()
    def question(self, small_kb):
        topic = next(iter(small_kb.topics.values()))
        return f"Come posso {topic.action.canonical} {topic.entity.canonical}?"

    def test_traced_backend_propagates_stage_series(self, system, question):
        from repro.pipeline.clock import SimulatedClock as _Clock

        backend = BackendService(system.engine, _Clock(), tracing=True, seed=5)
        token = backend.login("user-1")
        record = backend.serve(token, question)
        assert record.trace is not None
        assert record.answer.trace is record.trace
        assert record.answer.response_time > 0.0
        stages = record.trace.stage_durations()
        assert stages[spans.STAGE_LLM] > stages[spans.STAGE_FULLTEXT] > 0.0
        snapshot = backend.metrics.snapshot()
        assert spans.STAGE_LLM in snapshot.stage_p95
        assert snapshot.stage_p95[spans.STAGE_LLM] >= snapshot.stage_p50[spans.STAGE_LLM]
        assert "per-stage latency" in format_dashboard(snapshot)

    def test_traced_backend_is_deterministic(self, system, question):
        from repro.pipeline.clock import SimulatedClock as _Clock

        def serve():
            backend = BackendService(system.engine, _Clock(), tracing=True, seed=5)
            token = backend.login("user-1")
            return backend.serve(token, question)

        first, second = serve(), serve()
        assert first.answer.response_time == second.answer.response_time
        assert first.trace.stage_durations() == second.trace.stage_durations()

    def test_untraced_backend_unchanged(self, system, question):
        from repro.pipeline.clock import SimulatedClock as _Clock

        backend = BackendService(system.engine, _Clock(), seed=5)
        token = backend.login("user-1")
        record = backend.serve(token, question)
        assert record.trace is None
        assert record.answer.trace is None
        assert backend.metrics.snapshot().stage_p50 == {}


class TestErrorAndOpenSpans:
    """Satellites: error-type attribution and open-span exclusion."""

    def test_error_span_records_exception_type(self):
        trace = Trace(clock=SimulatedClock())
        with pytest.raises(TimeoutError):
            with trace.span("llm"):
                raise TimeoutError("endpoint down")
        span = trace.find("llm")
        assert span.status == "error"
        assert span.attributes["error_type"] == "TimeoutError"

    def test_format_table_shows_error_status(self):
        trace = Trace(clock=SimulatedClock())
        with pytest.raises(ValueError):
            with trace.span("rerank"):
                raise ValueError("bad scores")
        table = trace.format_table()
        assert "status=error" in table
        assert "error_type=ValueError" in table

    def test_stage_durations_exclude_open_spans(self):
        clock = SimulatedClock()
        trace = Trace(clock=clock)
        with trace.span("done"):
            clock.advance(1.0)
        trace.span("stuck").__enter__()  # never exited: a truncated trace
        clock.advance(5.0)
        assert trace.stage_durations() == {"done": pytest.approx(1.0)}
        assert trace.open_span_count == 1
        assert trace.total_duration == pytest.approx(1.0)

    def test_complete_trace_has_no_open_spans(self):
        clock = SimulatedClock()
        trace = Trace(clock=clock)
        with trace.span("ask"):
            with trace.span("llm"):
                clock.advance(2.0)
        assert trace.open_span_count == 0
        assert trace.total_duration == pytest.approx(2.0)

    def test_audit_log_records_span_errors(self, system, small_kb):
        from repro.core.engine import UniAskEngine
        from repro.pipeline.clock import SimulatedClock as _Clock

        class _ExplodingLLM:
            def complete(self, messages, temperature=0.0, max_tokens=512):
                raise TimeoutError("LLM endpoint timed out")

        engine = UniAskEngine(searcher=system.searcher, llm=_ExplodingLLM())
        backend = BackendService(engine, _Clock(), tracing=True, seed=5)
        token = backend.login("user-1")
        topic = next(iter(small_kb.topics.values()))
        backend.serve(token, f"Come posso {topic.action.canonical} {topic.entity.canonical}?")
        line = backend.telemetry.audit.lines()[-1]
        assert '"span_errors"' in line
        assert "TimeoutError" in line

    def test_clean_request_audit_has_no_span_errors(self, system, small_kb):
        from repro.pipeline.clock import SimulatedClock as _Clock

        backend = BackendService(system.engine, _Clock(), tracing=True, seed=5)
        token = backend.login("user-1")
        topic = next(iter(small_kb.topics.values()))
        backend.serve(token, f"Come posso {topic.action.canonical} {topic.entity.canonical}?")
        assert '"span_errors"' not in backend.telemetry.audit.lines()[-1]
