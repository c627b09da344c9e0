"""Behavioural coverage: cross-module scenarios not covered elsewhere."""

from __future__ import annotations

import random

import pytest

from repro.api import AskRequest
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.log import simulate_query_log
from repro.service.loadtest import LoadTestConfig, arrival_times
from repro.search.results import dedupe_by_document


class TestGeneratorBoundaries:
    def test_topic_request_capped_at_vocabulary_pairs(self):
        """More topics than (action, entity) pairs is an error, not a silent cap."""
        limit = KbGenerator().topic_limit
        assert limit == 1386
        with pytest.raises(ValueError, match="1386"):
            KbGenerator(KbGeneratorConfig(num_topics=limit + 1, error_families=0, seed=1))

        kb = KbGenerator(KbGeneratorConfig(num_topics=limit, error_families=0, seed=1)).generate()
        vocabulary = kb.vocabulary
        assert {(topic.action, topic.entity) for topic in kb.topics.values()} == {
            (action, entity) for entity in vocabulary.entities for action in vocabulary.actions
        }
        assert len(kb.topics) == limit

    def test_zero_error_families(self):
        kb = KbGenerator(KbGeneratorConfig(num_topics=10, error_families=0, seed=1)).generate()
        assert kb.doc_by_error_code == {}

    def test_single_topic_corpus(self):
        kb = KbGenerator(KbGeneratorConfig(num_topics=1, error_families=0, seed=1)).generate()
        assert len(kb.topics) == 1
        assert kb.documents


class TestLogBoundaries:
    def test_zero_searches(self):
        log = simulate_query_log(["a", "b"], total_searches=0)
        assert len(log) == 0
        assert log.most_frequent(5) == []

    def test_negative_searches_rejected(self):
        with pytest.raises(ValueError):
            simulate_query_log(["a"], total_searches=-1)

    def test_sample_frequent_respects_min_count(self):
        log = simulate_query_log(["solo"], total_searches=1)
        assert log.sample_frequent(5, random.Random(0), min_count=2) == []


class TestLoadTestBoundaries:
    def test_decreasing_ramp(self):
        config = LoadTestConfig(duration_seconds=100, initial_rate=3.0, target_rate=1.0)
        times = arrival_times(config)
        assert len(times) == pytest.approx(200, abs=2)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_zero_initial_rate(self):
        config = LoadTestConfig(duration_seconds=100, initial_rate=0.0, target_rate=2.0)
        times = arrival_times(config)
        assert times, "arrivals must still happen as the rate ramps up"
        assert times[0] > 0


class TestFiltersEndToEnd:
    def test_engine_with_domain_filter(self, system, small_kb):
        governance_topics = [
            t for t in small_kb.topics.values() if t.domain == "governance"
        ]
        if not governance_topics:
            pytest.skip("no governance topics in the small corpus")
        topic = governance_topics[0]
        answer = system.engine.answer(
            AskRequest.of(
                f"Come posso {topic.action.canonical} {topic.entity.canonical}?",
                filters={"domain": "governance"},
            )
        ).answer
        for chunk in answer.documents:
            assert chunk.record.domain == "governance"

    def test_filter_that_matches_nothing(self, system):
        results = system.searcher.search("carta di credito", filters={"section": "sezione-inesistente"})
        assert results == []


class TestDedupeOrderStability:
    def test_dedupe_preserves_best_first(self, system):
        results = system.searcher.search("carta di credito")
        deduped = dedupe_by_document(results)
        seen = set()
        for result in deduped:
            assert result.doc_id not in seen
            seen.add(result.doc_id)
        # The first deduped result must be the overall best chunk.
        if results:
            assert deduped[0].record.chunk_id == results[0].record.chunk_id


class TestGuardrailNonDeterminismProtocol:
    def test_multiple_runs_change_failure_draws(self, system, small_kb):
        """Section 6: guardrails were assessed over multiple runs."""
        topic = next(iter(small_kb.topics.values()))
        question = f"Come posso {topic.action.canonical} {topic.entity.canonical}?"
        outcomes = set()
        for nonce in range(6):
            system.llm.reseed(nonce)
            answer = system.engine.answer(question).answer
            outcomes.add(answer.answer_text)
        system.llm.reseed(0)
        # Different runs may phrase differently (openers vary with the draw).
        assert len(outcomes) >= 1  # never crashes; often > 1

    def test_reseed_zero_restores_original_behaviour(self, system, small_kb):
        topic = next(iter(small_kb.topics.values()))
        question = f"Come posso {topic.action.canonical} {topic.entity.canonical}?"
        system.llm.reseed(0)
        first = system.engine.answer(question).answer.answer_text
        system.llm.reseed(3)
        system.engine.answer(question)
        system.llm.reseed(0)
        again = system.engine.answer(question).answer.answer_text
        assert first == again
