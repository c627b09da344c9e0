"""Orchestrator behaviour: routing, fusion exactness, caching, telemetry.

The load-bearing guarantees of the tentpole:

* multi-hop fusion reuses the engine's RRF with **bit-exact** component
  sums, verified through explain reports (``sum(rrf_hop_*) == fused``
  with ``==``, never ``pytest.approx``);
* explicit route overrides win and invalid ones fail fast;
* conversational turns never touch retrieval;
* route-aware answer-cache namespaces keep specialist answers from
  colliding with lookup entries;
* routes surface in audit logs and the route counter.
"""

from __future__ import annotations

import pytest

from repro.agents.config import AgentsConfig
from repro.agents.routes import (
    ROUTE_CONVERSATIONAL,
    ROUTE_LOOKUP,
    ROUTE_MULTI_HOP,
    ROUTE_STRUCTURED,
)
from repro.api import AskOptions, AskRequest, create_backend, create_engine
from repro.cache.answer_cache import AnswerCache
from repro.cache.config import CacheConfig
from repro.core.config import UniAskConfig
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.queries import generate_multi_hop_queries
from repro.corpus.vocabulary import build_banking_lexicon


@pytest.fixture(scope="module")
def kb():
    return KbGenerator(
        KbGeneratorConfig(num_topics=16, error_families=3, seed=37)
    ).generate()


@pytest.fixture(scope="module")
def system(kb):
    return create_engine(
        kb.store(),
        build_banking_lexicon(),
        config=UniAskConfig(agents=AgentsConfig(enabled=True)),
        seed=37,
    )


@pytest.fixture(scope="module")
def multi_hop_question(kb):
    return generate_multi_hop_queries(kb, count=1, seed=37)[0].text


class TestMultiHopFusion:
    def test_explain_report_sums_are_bit_exact(self, system, multi_hop_question):
        answer = system.engine.answer(
            AskRequest(multi_hop_question, AskOptions(explain=True, cache="bypass"))
        ).answer
        assert answer.route == ROUTE_MULTI_HOP
        report = answer.explain_report
        assert report is not None
        assert report.route == ROUTE_MULTI_HOP
        assert report.entries
        assert report.sums_exact is True
        for entry in report.entries:
            assert entry.rrf_contributions
            for name in entry.rrf_contributions:
                assert name.startswith("rrf_hop_")
            # Replay the exact accumulation order: dict insertion order is
            # the fusion's accumulation order, so equality is bit-for-bit.
            total = 0.0
            for value in entry.rrf_contributions.values():
                total += value
            assert total == entry.fused_score

    def test_report_serialization_carries_the_route(self, system, multi_hop_question):
        answer = system.engine.answer(
            AskRequest(multi_hop_question, AskOptions(explain=True, cache="bypass"))
        ).answer
        report = answer.explain_report
        assert report.to_dict()["route"] == ROUTE_MULTI_HOP
        assert f"route={ROUTE_MULTI_HOP}" in report.format_report()

    def test_multi_hop_trace_shows_per_hop_subqueries(self, system, multi_hop_question):
        answer = system.engine.answer(
            AskRequest(
                multi_hop_question,
                AskOptions(trace=True, cache="bypass", request_id="mh-trace"),
            )
        ).answer
        table = answer.trace.format_table()
        assert "agent_route" in table
        assert "subquery" in table

    def test_degenerate_decomposition_falls_back_to_lookup_path(self, system):
        # Forced multi-hop on a question with no splittable connective:
        # the answer must match the plain pipeline's.
        question = "come sbloccare la carta di credito"
        forced = system.engine.answer(
            AskRequest(question, AskOptions(route=ROUTE_MULTI_HOP, cache="bypass"))
        ).answer
        plain = system.engine.answer(
            AskRequest(question, AskOptions(cache="bypass"))
        ).answer
        assert forced.route == ROUTE_MULTI_HOP
        assert forced.answer_text == plain.answer_text
        assert forced.outcome == plain.outcome


class TestRouteOverride:
    def test_override_wins_over_the_classifier(self, system, multi_hop_question):
        answer = system.engine.answer(
            AskRequest(
                multi_hop_question, AskOptions(route=ROUTE_LOOKUP, cache="bypass")
            )
        ).answer
        assert answer.route == ROUTE_LOOKUP

    def test_invalid_override_fails_at_options_construction(self):
        with pytest.raises(ValueError):
            AskOptions(route="teleport")


class TestConversationalRoute:
    def test_no_retrieval_no_citations(self, system):
        answer = system.engine.answer(
            AskRequest("Ciao!", AskOptions(trace=True, request_id="conv-1"))
        ).answer
        assert answer.route == ROUTE_CONVERSATIONAL
        assert answer.outcome == "answered"
        assert answer.documents == ()
        assert answer.citations == ()
        assert answer.answer_text
        table = answer.trace.format_table()
        assert "agent_route" in table
        assert "retrieval" not in table
        assert "generation" not in table


class TestRouteAwareCaching:
    def test_namespace_partitions_the_exact_tier(self):
        cache = AnswerCache()
        plain = cache.key("Quali errori sono noti per CreditFlow?")
        structured = cache.key(
            "Quali errori sono noti per CreditFlow?", namespace="structured"
        )
        assert plain != structured

    def test_lookup_route_uses_the_plain_namespace(self):
        cache = AnswerCache()
        assert cache.key("domanda") == cache.key("domanda", namespace="")

    def test_structured_answers_cached_under_their_namespace(self, kb):
        config = UniAskConfig(
            agents=AgentsConfig(enabled=True), cache=CacheConfig(enabled=True)
        )
        system = create_engine(kb.store(), build_banking_lexicon(), config=config, seed=37)
        question = "Quali errori sono noti per CreditFlow?"
        first = system.engine.answer(AskRequest(question)).answer
        assert first.route == ROUTE_STRUCTURED
        assert first.cache_hit == ""
        second = system.engine.answer(AskRequest(question)).answer
        assert second.route == ROUTE_STRUCTURED
        assert second.cache_hit  # exact hit within the structured namespace
        assert second.answer_text == first.answer_text


class TestCanaryRouteProbes:
    def test_default_suite_has_no_route_probes(self, kb):
        from repro.obs.quality import CanarySuite

        suite = CanarySuite.from_kb(kb, size=8, seed=41)
        assert all(p.route == "" and p.setup_question == "" for p in suite.probes)

    def test_route_probes_cover_the_agentic_routes(self, kb):
        from repro.obs.quality import CanarySuite

        plain = CanarySuite.from_kb(kb, size=8, seed=41)
        routed = CanarySuite.from_kb(kb, size=8, seed=41, include_route_probes=True)
        assert len(routed) == len(plain) + 3
        extras = routed.probes[len(plain):]
        assert [p.route for p in extras] == ["multi_hop", "structured", "follow_up"]
        follow_up = extras[-1]
        assert follow_up.setup_question
        assert follow_up.relevant_docs

    def test_runner_plays_the_dialogue_probe(self, system, kb):
        from repro.obs.quality import CanaryRunner, CanarySuite

        suite = CanarySuite.from_kb(kb, size=4, seed=41, include_route_probes=True)
        runner = CanaryRunner(system.engine, suite)
        report = runner.run_once(now=system.clock.now())
        assert report.probes_run == len(suite)
        assert report.recall_at_4 > 0.0


class TestRouteTelemetry:
    def test_route_in_audit_log_and_metrics(self, kb):
        system = create_engine(
            kb.store(),
            build_banking_lexicon(),
            config=UniAskConfig(agents=AgentsConfig(enabled=True)),
            seed=37,
        )
        backend = create_backend(system, tracing=True)
        token = backend.login("route-user")
        backend.serve(token, "Quali errori sono noti per CreditFlow?")
        backend.serve(token, "come sbloccare la carta di credito")
        entries = backend.telemetry.audit.find("request")
        routes = [entry.get("route") for entry in entries]
        assert ROUTE_STRUCTURED in routes
        assert ROUTE_LOOKUP in routes
        exposition = system.telemetry.render_metrics()
        assert "uniask_agent_route_total" in exposition
        assert 'route="structured"' in exposition
        assert 'route="lookup"' in exposition
