"""Tests for SLOs, burn rates and the multi-window alert evaluation."""

from __future__ import annotations

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.slo import (
    DEFAULT_BURN_WINDOWS,
    SLO,
    Alert,
    BurnWindow,
    burn_rate,
    evaluate_burn_rates,
)
from repro.service.alerting import default_slos, evaluate_slo_alerts
from repro.service.monitoring import QueryEvent


def _log(spec: list[tuple[float, bool]]) -> tuple[list[float], list[bool]]:
    """``(timestamp, good)`` pairs as ascending timestamps and bad flags."""
    ordered = sorted(spec, key=lambda pair: pair[0])
    return [t for t, _ in ordered], [not good for _, good in ordered]


def _burn(spec: list[tuple[float, bool]], window_seconds: float, now: float, budget: float):
    timestamps, bad = _log(spec)
    return burn_rate(timestamps, [0, *accumulate(bad)], window_seconds, now, budget)


def _evaluate(slo: SLO, spec: list[tuple[float, bool]], now: float, windows=DEFAULT_BURN_WINDOWS):
    return evaluate_burn_rates(slo, *_log(spec), now=now, windows=windows)


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
        assert _burn([], 300.0, now=1000.0, budget=0.01) == 0.0

    def test_burn_rate_is_bad_fraction_over_budget(self):
        samples = [(990.0, False), (995.0, True), (999.0, True), (1000.0, True)]
        # 1 bad of 4 → 25% bad over a 1% budget → burn 25x.
        assert _burn(samples, 300.0, now=1000.0, budget=0.01) == pytest.approx(25.0)

    def test_window_excludes_old_samples(self):
        samples = [(10.0, False), (995.0, True)]
        assert _burn(samples, 100.0, now=1000.0, budget=0.01) == 0.0

    def test_burn_one_means_exactly_budget(self):
        samples = [(float(i), i == 0) for i in range(100)]
        # 99 bad of 100 with a 99% bad budget → burn 1.0.
        assert _burn(samples, 1000.0, now=100.0, budget=0.99) == pytest.approx(1.0)


class TestEvaluateBurnRates:
    def test_fires_only_when_both_windows_exceed(self):
        slo = SLO("availability", 0.99)
        window = BurnWindow(
            short_seconds=300.0, long_seconds=3600.0, max_burn_rate=10.0, severity="critical"
        )
        # Bad events only inside the short window: the long window dilutes
        # them below threshold, so no alert (transient blip).
        samples = [(3400.0, True)] * 200 + [(3550.0, False)] * 2 + [(3590.0, True)] * 2
        assert _evaluate(slo, samples, now=3600.0, windows=(window,)) == []

        # Sustained badness: both windows exceed → alert.
        sustained = [(float(t), False) for t in range(0, 3600, 10)]
        alerts = _evaluate(slo, sustained, now=3600.0, windows=(window,))
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.rule == "slo_availability"
        assert alert.severity == "critical"
        # 100% bad over a 1% budget: both windows burn 100x (> 10x).
        assert "burning 100.0x budget over 5m and 100.0x over 60m" in alert.message
        assert "availability" in alert.message

    def test_most_severe_window_wins(self):
        slo = SLO("availability", 0.99)
        sustained = [(float(t), False) for t in range(0, 21600, 10)]
        alerts = _evaluate(slo, sustained, now=21600.0, windows=DEFAULT_BURN_WINDOWS)
        assert [a.severity for a in alerts] == ["critical"]

    def test_healthy_service_never_alerts(self):
        slo = SLO("availability", 0.99)
        healthy = [(float(t), True) for t in range(0, 21600, 10)]
        assert _evaluate(slo, healthy, now=21600.0) == []


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


def scanned_burn(spec: list[tuple[float, bool]], window_seconds: float, now: float, budget):
    """The burn as a scan of every event, ``start <= t <= now``."""
    inside = [good for t, good in spec if now - window_seconds <= t <= now]
    return (inside.count(False) / len(inside)) / budget if inside else 0.0


def scanned_alerts(slo: SLO, spec: list[tuple[float, bool]], now: float, windows) -> list[Alert]:
    """The window check with each bound's counts scanned: the reference the
    bisected counts are held to, message bytes included."""
    for window in windows:
        short = scanned_burn(spec, window.short_seconds, now, slo.error_budget)
        long_ = scanned_burn(spec, window.long_seconds, now, slo.error_budget)
        if short > window.max_burn_rate and long_ > window.max_burn_rate:
            return [
                Alert(
                    rule=f"slo_{slo.name}",
                    severity=window.severity,
                    message=(
                        f"SLO {slo.name} (objective {slo.objective:.2%}) burning "
                        f"{short:.1f}x budget over {window.short_seconds / 60.0:.0f}m "
                        f"and {long_:.1f}x over {window.long_seconds / 60.0:.0f}m "
                        f"(threshold {window.max_burn_rate:g}x)"
                    ),
                )
            ]
    return []


#: Timestamps on a coarse grid, so events share timestamps and land exactly
#: on window bounds (``now - window`` and ``now``) and after ``now``.
_grid = st.integers(0, 80).map(lambda t: 50.0 * t)
_spec = st.lists(st.tuples(_grid, st.booleans()), max_size=60)


class TestBisectedCounts:
    @settings(max_examples=300, deadline=None)
    @given(_spec, _grid, st.sampled_from([0.5, 0.9, 0.99]), st.sampled_from([0.5, 1.0, 3.0]))
    def test_alerts_equal_the_scan_byte_for_byte(self, spec, now, objective, threshold):
        slo = SLO("availability", objective)
        windows = (
            BurnWindow(300.0, 1200.0, threshold, "critical"),
            BurnWindow(600.0, 3000.0, threshold / 2.0, "warning"),
        )
        assert _evaluate(slo, spec, now, windows) == scanned_alerts(slo, spec, now, windows)

    @settings(max_examples=100, deadline=None)
    @given(_spec, _grid)
    def test_service_alerts_classify_each_event_once_per_slo(self, spec, now):
        events = [
            QueryEvent(t, "answered" if good else "generation_error", 1.0, not good)
            for t, good in spec
        ]
        windows = (BurnWindow(300.0, 1200.0, 1.0, "critical"),)
        expected = []
        for service_slo in default_slos():
            classified = [(e.timestamp, service_slo.good(e)) for e in events]
            expected += scanned_alerts(service_slo.slo, classified, now, windows)
        assert evaluate_slo_alerts(events, now=now, windows=windows) == expected
