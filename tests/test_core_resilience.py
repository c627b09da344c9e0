"""Failure-injection tests: the engine must degrade, never crash."""

from __future__ import annotations

import pytest

from repro.core.answer import OUTCOME_GENERATION_ERROR
from repro.core.engine import UniAskEngine
from repro.guardrails.pipeline import APOLOGY_TEXT
from repro.llm.base import ChatMessage, ChatResponse


class _ExplodingLLM:
    """A chat client whose service is down."""

    def complete(self, messages, temperature=0.0, max_tokens=512):
        raise TimeoutError("LLM endpoint timed out")


class _FlakyLLM:
    """Fails the first *n* calls, then recovers."""

    def __init__(self, inner, failures: int) -> None:
        self._inner = inner
        self._remaining = failures

    def complete(self, messages: list[ChatMessage], temperature=0.0, max_tokens=512) -> ChatResponse:
        if self._remaining > 0:
            self._remaining -= 1
            raise ConnectionError("HTTP 429 rate limited")
        return self._inner.complete(messages, temperature=temperature, max_tokens=max_tokens)


class _EmptyLLM:
    """Returns empty completions (a pathological but observed API mode)."""

    def complete(self, messages, temperature=0.0, max_tokens=512):
        return ChatResponse(content="")


class TestEngineResilience:
    def _question(self, small_kb) -> str:
        topic = next(iter(small_kb.topics.values()))
        return f"Come posso {topic.action.canonical} {topic.entity.canonical}?"

    def test_llm_outage_degrades_to_search_only(self, system, small_kb):
        engine = UniAskEngine(searcher=system.searcher, llm=_ExplodingLLM())
        answer = engine.answer(self._question(small_kb)).answer
        assert answer.outcome == OUTCOME_GENERATION_ERROR
        assert answer.answer_text == APOLOGY_TEXT
        assert answer.documents, "the retrieved list must stay available"

    def test_flaky_llm_recovers(self, system, small_kb):
        engine = UniAskEngine(searcher=system.searcher, llm=_FlakyLLM(system.llm, failures=1))
        question = self._question(small_kb)
        first = engine.answer(question).answer
        second = engine.answer(question).answer
        assert first.outcome == OUTCOME_GENERATION_ERROR
        assert second.outcome == "answered"

    def test_empty_completion_caught_by_guardrails(self, system, small_kb):
        engine = UniAskEngine(searcher=system.searcher, llm=_EmptyLLM())
        answer = engine.answer(self._question(small_kb)).answer
        assert not answer.answered
        assert answer.guardrail_fired  # no citations in an empty answer

    def test_backend_logs_generation_errors(self, system, small_kb):
        from repro.service.backend import BackendService

        engine = UniAskEngine(searcher=system.searcher, llm=_ExplodingLLM())
        backend = BackendService(engine, system.clock, seed=1)
        token = backend.login("user")
        backend.serve(token, self._question(small_kb))
        snapshot = backend.metrics.snapshot()
        assert snapshot.outcome_breakdown.get(OUTCOME_GENERATION_ERROR) == 1

    def test_an_llm_outage_is_a_failed_request(self, system, small_kb):
        """The engine's apology on an LLM timeout is a failed request: the
        dashboard counts it, the average response time leaves it out, and a
        sustained outage burns the availability SLO and fires the
        ``failed_requests`` rule."""
        from repro.service.backend import ROLE_OPS, BackendService
        from repro.service.monitoring import format_dashboard

        engine = UniAskEngine(searcher=system.searcher, llm=_FlakyLLM(system.llm, failures=40))
        backend = BackendService(engine, system.clock, seed=1)
        token = backend.login("user")
        question = self._question(small_kb)
        outage = [backend.serve(token, question) for _ in range(40)]
        recovered = backend.serve(token, question)
        assert {record.answer.outcome for record in outage} == {OUTCOME_GENERATION_ERROR}
        assert recovered.answer.outcome == "answered"

        snapshot = backend.metrics.snapshot()
        assert snapshot.failed_requests == 40
        assert "failed requests:      40" in format_dashboard(snapshot)
        assert snapshot.average_response_time == recovered.answer.response_time
        rules = {alert.rule for alert in backend.ops("slo", backend.login("sre", role=ROLE_OPS))}
        assert {"slo_availability", "failed_requests"} <= rules
