"""Differential guarantees of the agents subsystem.

Mirrors the cache/explain differential suites: agent orchestration is a
strictly additive overlay.

1. **Agents off ⇒ byte-identical behaviour.**  A default deployment
   (``UniAskConfig()``) produces exactly the surfaces of one with an
   explicit ``AgentsConfig(enabled=False)`` — answer pages, response
   times, traces, dashboard and the full ``/metrics`` exposition (held by
   ``test_layers_differential.py``) — and none of the agent markers
   (route fields, agent metrics, agent spans) appear anywhere.
2. **Agents on ⇒ lookup answers unchanged.**  A lookup-routed question
   under the orchestrator produces the same answer text, outcome,
   ranking and citations as the plain pipeline; only the ``route`` field
   is stamped.
"""

from __future__ import annotations

from repro.agents.config import AgentsConfig
from repro.api import AskOptions, AskRequest
from tests.differential import QUESTIONS, build, serve_surface


class TestAgentsOffByteIdentity:
    def test_no_agent_markers_on_any_surface(self, tiny_kb, banking_lexicon):
        system, backend = build(tiny_kb, banking_lexicon)
        blob = serve_surface(system, backend)
        assert system.orchestrator is None
        assert system.engine.orchestrator is None
        assert "uniask_agent_" not in blob
        assert "agent_route" not in blob
        for record in (backend.telemetry.audit.find("request") or []):
            assert "route" not in record

    def test_explain_report_has_no_route_key_when_off(self, tiny_kb, banking_lexicon):
        system, _ = build(tiny_kb, banking_lexicon)
        answer = system.engine.answer(
            AskRequest(QUESTIONS[0], AskOptions(explain=True))
        ).answer
        assert answer.route == ""
        assert answer.explain_report is not None
        assert "route" not in answer.explain_report.to_dict()
        assert "route=" not in answer.explain_report.format_report()


class TestAgentsOnLookupUnchanged:
    def test_lookup_answers_identical_apart_from_route(self, tiny_kb, banking_lexicon):
        plain_system, _ = build(tiny_kb, banking_lexicon)
        agent_system, _ = build(tiny_kb, banking_lexicon, agents=AgentsConfig(enabled=True))
        for question in QUESTIONS:
            plain = plain_system.engine.answer(AskRequest(question)).answer
            routed = agent_system.engine.answer(AskRequest(question)).answer
            assert routed.route == "lookup"
            assert plain.route == ""
            assert routed.answer_text == plain.answer_text
            assert routed.outcome == plain.outcome
            assert routed.citations == plain.citations
            assert [c.record.chunk_id for c in routed.documents] == [
                c.record.chunk_id for c in plain.documents
            ]
            assert [c.score for c in routed.documents] == [
                c.score for c in plain.documents
            ]

    def test_agents_on_exposes_route_metric(self, tiny_kb, banking_lexicon):
        system, backend = build(tiny_kb, banking_lexicon, agents=AgentsConfig(enabled=True))
        serve_surface(system, backend)
        exposition = system.telemetry.render_metrics()
        assert 'uniask_agent_route_total{outcome=' in exposition or (
            "uniask_agent_route_total" in exposition
        )
