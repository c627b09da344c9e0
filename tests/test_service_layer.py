"""Unit tests for backend, feedback, monitoring and load test."""

from __future__ import annotations

import pytest

from repro.service.backend import AuthenticationError, BackendService
from repro.service.feedback import FeedbackStore, GranularFeedback
from repro.service.loadtest import (
    LoadTestConfig,
    arrival_times,
    recommended_token_rate_limit,
    run_load_test,
)
from repro.service.monitoring import MetricsCollector, format_dashboard


@pytest.fixture()
def backend(system):
    return BackendService(system.engine, system.clock, seed=7)


class TestBackendService:
    def test_login_and_query(self, backend, small_kb):
        token = backend.login("user-1")
        topic = next(iter(small_kb.topics.values()))
        record = backend.serve(token, f"Come posso {topic.action.canonical} {topic.entity.canonical}?")
        assert record.user_id == "user-1"
        assert record.answer.response_time > 0

    def test_unauthenticated_query_rejected(self, backend):
        with pytest.raises(AuthenticationError):
            backend.serve("fake-token", "domanda")

    def test_clock_advances_with_response_time(self, backend, system):
        token = backend.login("user-1")
        before = system.clock.now()
        record = backend.serve(token, "Come posso attivare la carta di credito?")
        assert system.clock.now() == pytest.approx(before + record.answer.response_time)

    def test_feedback_stored_and_counted(self, backend):
        token = backend.login("user-1")
        record = backend.serve(token, "Come posso attivare la carta di credito?")
        backend.feedback(
            token,
            GranularFeedback(
                query_id=record.query_id,
                user_id="user-1",
                helpful=True,
                retrieved_relevant=True,
                rating=4,
            ),
        )
        assert len(backend.feedback_store) == 1
        assert backend.metrics.snapshot().feedbacks == 1

    def test_feedback_for_unknown_query_rejected(self, backend):
        token = backend.login("user-1")
        with pytest.raises(KeyError):
            backend.feedback(
                token,
                GranularFeedback(
                    query_id="q-9999999",
                    user_id="user-1",
                    helpful=True,
                    retrieved_relevant=True,
                    rating=3,
                ),
            )

    def test_metrics_record_outcomes(self, backend):
        token = backend.login("user-1")
        backend.serve(token, "Come posso attivare la carta di credito?")
        snapshot = backend.metrics.snapshot()
        assert snapshot.queries == 1
        assert snapshot.users == 1
        assert snapshot.average_response_time > 0


class TestFeedbackStore:
    def _feedback(self, rating: int, links=()) -> GranularFeedback:
        return GranularFeedback(
            query_id="q-1", user_id="u", helpful=rating >= 3, retrieved_relevant=True,
            rating=rating, links=tuple(links),
        )

    def test_positive_threshold(self):
        assert self._feedback(3).positive
        assert not self._feedback(2).positive

    def test_rating_validated(self):
        with pytest.raises(ValueError):
            self._feedback(6)

    def test_positive_fraction(self):
        store = FeedbackStore()
        store.add(self._feedback(5))
        store.add(self._feedback(1))
        assert store.positive_fraction == pytest.approx(0.5)

    def test_ground_truth_links_collected(self):
        store = FeedbackStore()
        store.add(self._feedback(1, links=("kb/doc-1",)))
        store.add(self._feedback(4))
        assert store.ground_truth_links() == {"q-1": ("kb/doc-1",)}

    def test_rating_histogram(self):
        store = FeedbackStore()
        for rating in (1, 1, 3, 5):
            store.add(self._feedback(rating))
        histogram = store.by_rating()
        assert histogram[1] == 2
        assert histogram[5] == 1


class TestMonitoring:
    def test_snapshot_aggregates(self):
        collector = MetricsCollector()
        collector.record_query(10.0, "u1", "answered", 1.5)
        collector.record_query(70.0, "u2", "guardrail_citation", 2.0)
        collector.record_query(75.0, "u1", "generation_error", 2.5)
        collector.record_feedback()
        snapshot = collector.snapshot()
        assert snapshot.users == 2
        assert snapshot.queries == 3
        assert snapshot.feedbacks == 1
        assert snapshot.failed_requests == 1
        assert snapshot.guardrails_triggered == 1
        assert snapshot.average_response_time == pytest.approx(1.75)
        assert snapshot.failures_per_bucket == [0, 1]

    def test_buckets(self):
        collector = MetricsCollector()
        collector.record_query(10.0, "u", "answered", 1.0)
        collector.record_query(100.0, "u", "answered", 2.0)
        snapshot = collector.snapshot()
        assert snapshot.queries_per_bucket == [1, 1]
        assert snapshot.response_time_per_bucket[1] == pytest.approx(2.0)

    def test_format_dashboard(self):
        collector = MetricsCollector()
        collector.record_query(1.0, "u", "answered", 1.0)
        page = format_dashboard(collector.snapshot())
        assert "users" in page and "guardrails triggered" in page

    def test_invalid_timestamp(self):
        with pytest.raises(ValueError):
            MetricsCollector().record_query(-1.0, "u", "answered", 1.0)


class TestLoadTest:
    def test_arrival_count_matches_integral(self):
        config = LoadTestConfig(duration_seconds=600, initial_rate=1.0, target_rate=3.0)
        times = arrival_times(config)
        expected = 1.0 * 600 + 0.5 * (2.0 / 600) * 600 * 600  # r0*T + slope*T²/2
        assert len(times) == pytest.approx(expected, abs=2)

    def test_arrivals_monotonic(self):
        times = arrival_times(LoadTestConfig(duration_seconds=300))
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_constant_rate(self):
        config = LoadTestConfig(duration_seconds=100, initial_rate=2.0, target_rate=2.0)
        times = arrival_times(config)
        assert len(times) == pytest.approx(200, abs=1)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap == pytest.approx(0.5, abs=1e-6) for gap in gaps)

    def test_failures_emerge_when_demand_exceeds_quota(self):
        config = LoadTestConfig(duration_seconds=600, tokens_per_minute=500_000)
        report = run_load_test(config)
        assert report.total_requests > 0
        assert report.failed_requests > 0
        assert report.failure_rate < 1.0

    def test_no_failures_with_ample_quota(self):
        config = LoadTestConfig(duration_seconds=600, tokens_per_minute=10_000_000)
        report = run_load_test(config)
        assert report.failed_requests == 0

    def test_failures_concentrate_late(self):
        """The ramp crosses the quota late in the hour: failures cluster there."""
        config = LoadTestConfig(duration_seconds=1200, tokens_per_minute=1_150_000)
        report = run_load_test(config)
        if report.failed_requests:
            first = report.first_failure_minute
            assert first is not None and first >= len(report.failures_per_minute) // 3

    def test_recommended_limit_covers_peak(self):
        config = LoadTestConfig(duration_seconds=600, tokens_per_minute=500_000)
        report = run_load_test(config)
        recommended = recommended_token_rate_limit(report, config)
        peak_demand = config.target_rate * config.tokens_per_request * 60.0
        assert recommended >= peak_demand

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadTestConfig(duration_seconds=0)
        with pytest.raises(ValueError):
            LoadTestConfig(tokens_per_request=0)
