"""Tests for SLOs, burn rates and the multi-window alert evaluation."""

from __future__ import annotations

import pytest

from repro.obs.slo import (
    DEFAULT_BURN_WINDOWS,
    SLO,
    BurnWindow,
    SloSample,
    burn_rate,
    evaluate_burn_rates,
)
from repro.service.alerting import default_slos, evaluate_slo_alerts
from repro.service.monitoring import QueryEvent


def _samples(spec: list[tuple[float, bool]]) -> list[SloSample]:
    return [SloSample(timestamp=t, good=good) for t, good in spec]


class TestSlo:
    def test_error_budget(self):
        assert SLO("availability", 0.99).error_budget == pytest.approx(0.01)

    def test_objective_bounds(self):
        with pytest.raises(ValueError):
            SLO("bad", 1.0)
        with pytest.raises(ValueError):
            SLO("bad", 0.0)

    def test_burn_window_validation(self):
        with pytest.raises(ValueError):
            BurnWindow(short_seconds=600.0, long_seconds=300.0, max_burn_rate=1.0, severity="x")
        with pytest.raises(ValueError):
            BurnWindow(short_seconds=60.0, long_seconds=300.0, max_burn_rate=0.0, severity="x")


class TestBurnRate:
    def test_no_samples_is_zero(self):
        assert burn_rate([], 300.0, now=1000.0, error_budget=0.01) == 0.0

    def test_burn_rate_is_bad_fraction_over_budget(self):
        samples = _samples([(990.0, False), (995.0, True), (999.0, True), (1000.0, True)])
        # 1 bad of 4 → 25% bad over a 1% budget → burn 25x.
        assert burn_rate(samples, 300.0, now=1000.0, error_budget=0.01) == pytest.approx(25.0)

    def test_window_excludes_old_samples(self):
        samples = _samples([(10.0, False), (995.0, True)])
        assert burn_rate(samples, 100.0, now=1000.0, error_budget=0.01) == 0.0

    def test_burn_one_means_exactly_budget(self):
        samples = _samples([(float(i), i == 0) for i in range(100)])
        # 99 bad of 100 with a 99% bad budget → burn 1.0.
        assert burn_rate(samples, 1000.0, now=100.0, error_budget=0.99) == pytest.approx(1.0)


class TestEvaluateBurnRates:
    def test_fires_only_when_both_windows_exceed(self):
        slo = SLO("availability", 0.99)
        window = BurnWindow(
            short_seconds=300.0, long_seconds=3600.0, max_burn_rate=10.0, severity="critical"
        )
        # Bad events only inside the short window: the long window dilutes
        # them below threshold, so no alert (transient blip).
        samples = _samples(
            [(3400.0, True)] * 200 + [(3550.0, False)] * 2 + [(3590.0, True)] * 2
        )
        assert evaluate_burn_rates(slo, samples, now=3600.0, windows=(window,)) == []

        # Sustained badness: both windows exceed → alert.
        sustained = _samples([(float(t), False) for t in range(0, 3600, 10)])
        alerts = evaluate_burn_rates(slo, sustained, now=3600.0, windows=(window,))
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.rule == "slo_availability"
        assert alert.severity == "critical"
        # 100% bad over a 1% budget: both windows burn 100x (> 10x).
        assert "burning 100.0x budget over 5m and 100.0x over 60m" in alert.message
        assert "availability" in alert.message

    def test_most_severe_window_wins(self):
        slo = SLO("availability", 0.99)
        sustained = _samples([(float(t), False) for t in range(0, 21600, 10)])
        alerts = evaluate_burn_rates(slo, sustained, now=21600.0, windows=DEFAULT_BURN_WINDOWS)
        assert [a.severity for a in alerts] == ["critical"]

    def test_healthy_service_never_alerts(self):
        slo = SLO("availability", 0.99)
        healthy = _samples([(float(t), True) for t in range(0, 21600, 10)])
        assert evaluate_burn_rates(slo, healthy, now=21600.0) == []


class TestServiceSloBridge:
    @staticmethod
    def _event(t: float, outcome: str = "answered", rt: float = 1.0, failed: bool = False):
        return QueryEvent(timestamp=t, outcome=outcome, response_time=rt, failed=failed)

    def test_default_slos_classifiers(self):
        by_name = {s.slo.name: s for s in default_slos(latency_threshold=5.0)}
        ok = self._event(0.0)
        slow = self._event(0.0, rt=9.0)
        failed = self._event(0.0, outcome="generation_error", failed=True)
        fired = self._event(0.0, outcome="guardrail_citation")
        assert by_name["availability"].good(ok) and not by_name["availability"].good(failed)
        assert by_name["latency"].good(ok) and not by_name["latency"].good(slow)
        # A failed request is also a latency miss (a timeout is slow).
        assert not by_name["latency"].good(failed)
        assert by_name["guardrail_pass_rate"].good(ok)
        assert not by_name["guardrail_pass_rate"].good(fired)

    def test_sustained_failures_fire_availability_alert(self):
        events = [
            self._event(float(t), outcome="generation_error", failed=True)
            for t in range(0, 21600, 10)
        ]
        alerts = evaluate_slo_alerts(events, now=21600.0)
        rules = {a.rule for a in alerts}
        assert "slo_availability" in rules
        # Failed requests also miss the latency objective.
        assert "slo_latency" in rules

    def test_healthy_log_fires_nothing(self):
        events = [self._event(float(t)) for t in range(0, 21600, 10)]
        assert evaluate_slo_alerts(events, now=21600.0) == []
