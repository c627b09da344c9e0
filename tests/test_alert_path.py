"""The one alert path: one ``Alert`` shape, one evaluator, the rules it serves.

Burn rates, quality drift / canary degradation and the threshold rules all
return :class:`repro.obs.slo.Alert`; ``BackendService._alerts`` assembles
them for the ``slo`` route and the incident page check alike.  The
release-1 replay is the reason the threshold rules are served at all.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.core.engine import UniAskEngine
from repro.core.factory import build_uniask_system
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset
from repro.obs.incident import CHECK_INTERVAL, PAGE_BURN_WINDOWS, IncidentConfig, IncidentManager
from repro.obs.quality import CanaryReport, CanaryRunner, CanarySuite, QualityMonitor
from repro.obs.slo import SLO, Alert, SloSample, evaluate_burn_rates
from repro.service.alerting import evaluate_alerts, evaluate_slo_alerts
from repro.service.backend import ROLE_OPS, BackendService
from repro.service.monitoring import (
    BUCKET_SECONDS,
    SLO_HORIZON_SECONDS,
    MetricsCollector,
    QueryEvent,
)
from repro.service.pilots import buggy_guardrail_pipeline
from tests.differential import QUESTIONS, build


class TestReleaseOneReplay:
    """Section 8: release 1 shipped ROUGE against the first context chunk only.

    150 human questions over a 60-topic corpus: the buggy stack guardrails
    26 answers (17.3 %), the fixed one 13 (8.7 %).  The blind spot, as
    arithmetic: 17.3 % bad over the 15 % budget of the
    ``guardrail_pass_rate`` SLO burns 1.16 x (the paper's 25 % would burn
    1.7 x) and the burn windows trip at 6 x / 14.4 x, so no burn rate can
    fire — only the ``guardrail_rate`` threshold rule (> 15 % of the whole
    log) sees it.  The corpus seed is pinned: the simulated LLM puts the
    buggy stack between 8 % and 17 % across seeds, and the rule is a
    threshold, not a comparison against the fixed stack.
    """

    @pytest.fixture(scope="class")
    def release_kb(self):
        return KbGenerator(KbGeneratorConfig(num_topics=60, error_families=6, seed=5)).generate()

    @staticmethod
    def _replay(kb, lexicon, guardrails=None):
        system = build_uniask_system(kb.store(), lexicon, seed=5)
        engine = system.engine
        if guardrails is not None:
            engine = UniAskEngine(searcher=system.searcher, llm=system.llm, guardrails=guardrails)
        backend = BackendService(engine, system.clock, seed=81)
        token = backend.login("sme")
        for query in generate_human_dataset(kb, HumanDatasetConfig(num_questions=150, seed=5)):
            backend.serve(token, query.text)
        alerts = backend.ops("slo", backend.login("sre", role=ROLE_OPS))
        return backend.metrics.snapshot().guardrails_triggered, alerts

    def test_buggy_stack_fires_the_threshold_rule_and_no_burn_rate(self, release_kb, lexicon):
        fired, alerts = self._replay(release_kb, lexicon, buggy_guardrail_pipeline())
        assert fired == 26
        by_rule = {alert.rule: alert for alert in alerts}
        assert by_rule["guardrail_rate"].severity == "warning"
        assert "17.3%" in by_rule["guardrail_rate"].message
        assert "slo_guardrail_pass_rate" not in by_rule  # the blind spot

    def test_fixed_stack_is_quiet(self, release_kb, lexicon):
        fired, alerts = self._replay(release_kb, lexicon)
        assert fired == 13
        assert alerts == []


def _failing_log(collector: MetricsCollector, now: float) -> None:
    """Two hours of failed requests ending at *now*: every window burns 100 x."""
    for step in range(720):
        collector.record_query(
            timestamp=now - 7200.0 + 10.0 * step,
            user_id="u",
            outcome="generation_error",
            response_time=1.0,
        )


class TestShapeCensus:
    def test_every_producer_returns_the_one_alert_class(self, tiny_kb, banking_lexicon):
        produced: dict[str, list] = {}

        sustained = [SloSample(timestamp=float(t), good=False) for t in range(0, 21600, 10)]
        produced["evaluate_burn_rates"] = evaluate_burn_rates(
            SLO("availability", 0.99), sustained, now=21600.0
        )

        collector = MetricsCollector()
        _failing_log(collector, now=7200.0)
        produced["evaluate_slo_alerts"] = evaluate_slo_alerts(
            collector.events_since(0.0), now=7200.0
        )
        produced["evaluate_alerts"] = evaluate_alerts(collector.snapshot())

        monitor = QualityMonitor(reference_size=9, window_size=4)
        system, backend = build(
            tiny_kb, banking_lexicon, quality_monitor=monitor, incident=IncidentConfig(enabled=True)
        )
        token = backend.login("u")
        for question in QUESTIONS[:3] * 3 + QUESTIONS[3:] * 4:
            backend.serve(token, question)  # in-scope reference, off-scope window
        healthy = CanaryReport(
            probes_run=8, recall_at_4=1.0, mrr=1.0, hit_at_4=1.0, answered_fraction=1.0,
            guardrail_fire_rate=0.0, citation_coverage=1.0, groundedness=0.0,
            partial_results=0, started_at=0.0,
        )
        runner = CanaryRunner(None, CanarySuite(probes=()), baseline=healthy)
        produced["CanaryRunner.evaluate"] = runner.evaluate(
            dataclasses.replace(healthy, mrr=0.2, started_at=300.0)
        )
        monitor.record_canary(produced["CanaryRunner.evaluate"])
        produced["QualityMonitor.alerts"] = monitor.alerts()

        system.clock.advance(7200.0)
        _failing_log(backend.metrics, now=system.clock.now())
        produced["slo route"] = backend.ops("slo", backend.login("sre", role=ROLE_OPS))
        rules = {alert.rule for alert in produced["slo route"]}
        assert {
            "slo_availability",
            "quality_drift_fused_score",
            "quality_canary_mrr",
            "failed_requests",
        } <= rules

        for producer, alerts in produced.items():
            assert alerts, f"{producer} fired nothing"
            assert all(type(alert) is Alert for alert in alerts), producer

        # The incident manager opens its incident from them unadapted.
        incident = backend.incidents.check(system.clock.now(), produced["slo route"])
        assert incident.alerts == [
            {"rule": a.rule, "severity": a.severity, "message": a.message}
            for a in produced["slo route"]
        ]
        paging = sorted(a.rule for a in produced["slo route"] if a.severity == "critical")
        assert list(incident.rules) == paging

    def test_the_vocabulary_is_defined_once(self):
        import repro.obs.slo as slo
        import repro.service.alerting as alerting

        assert alerting.Alert is slo.Alert
        assert alerting.SEVERITY_CRITICAL is slo.SEVERITY_CRITICAL == "critical"
        assert alerting.SEVERITY_WARNING is slo.SEVERITY_WARNING == "warning"
        src = Path(slo.__file__).resolve().parents[1]
        sources = "\n".join(path.read_text(encoding="utf-8") for path in src.rglob("*.py"))
        for definition in (r"class Alert\b", r"SEVERITY_WARNING\s*=", r"SEVERITY_CRITICAL\s*="):
            assert len(re.findall(rf"^{definition}", sources, re.MULTILINE)) == 1, definition
        assert not re.search(r"BurnRateAlert|QualityAlert|evaluate_quality_alerts", sources)


class TestPageCheckCost:
    def test_the_page_check_takes_one_snapshot_per_check(
        self, tiny_kb, banking_lexicon, monkeypatch
    ):
        calls = {"snapshot": 0, "check": 0}
        snapshot, check = MetricsCollector.snapshot, IncidentManager.check

        def counting_snapshot(self, *args, **kwargs):
            calls["snapshot"] += 1
            return snapshot(self, *args, **kwargs)

        def counting_check(self, now, alerts):
            calls["check"] += 1
            return check(self, now, alerts)

        monkeypatch.setattr(MetricsCollector, "snapshot", counting_snapshot)
        monkeypatch.setattr(IncidentManager, "check", counting_check)

        system, backend = build(
            tiny_kb, banking_lexicon, shards=2, incident=IncidentConfig(enabled=True)
        )
        token = backend.login("u")
        for _ in range(4):
            for question in QUESTIONS:
                backend.serve(token, question)
            system.clock.advance(CHECK_INTERVAL)
        assert calls["check"] >= 4, "the page check must have run"
        assert calls["snapshot"] == calls["check"]  # one per check, none per request
        taken = calls["snapshot"]

        ops_token = backend.login("sre", role=ROLE_OPS)
        backend.ops("slo", ops_token)
        assert calls["snapshot"] == taken + 1
        backend.ops("dashboard", ops_token)
        assert calls["snapshot"] == taken + 2
        # A page freezes the dashboard into its capture bundle: one more.
        page = Alert(rule="slo_latency", severity="critical", message="budget burning")
        incident = backend.incidents.check(system.clock.now(), [page])
        assert "dashboard" in incident.capture
        assert calls["snapshot"] == taken + 3

    def test_the_page_check_reads_the_window_not_the_whole_log(
        self, tiny_kb, banking_lexicon, monkeypatch
    ):
        system, backend = build(tiny_kb, banking_lexicon, incident=IncidentConfig(enabled=True))
        collector = backend.metrics
        checked = []
        check = IncidentManager.check

        def recording_check(self, now, alerts):
            # Taken before the page opens its incident (whose capture bundle
            # freezes one more snapshot).
            checked.append((now, alerts, collector.snapshot()))
            return check(self, now, alerts)

        monkeypatch.setattr(IncidentManager, "check", recording_check)
        log: list[QueryEvent] = []
        for step in range(10_000):  # 8 h 20 min of traffic, every fifth request failed
            arrival = 3.0 * step
            outcome = "generation_error" if step % 5 == 0 else "answered"
            collector.record_query(arrival + 1.0, "u", outcome, 1.0)
            log.append(QueryEvent(arrival + 1.0, outcome, 1.0, outcome == "generation_error"))
            if step % 250 == 0:
                # The tail never reaches further back than the horizon
                # (rounded out to whole minutes) behind the newest arrival.
                tail = collector.events_since(0.0)
                assert arrival - tail[0].timestamp <= SLO_HORIZON_SECONDS + BUCKET_SECONDS
        assert len(collector.events_since(0.0)) < len(log) * 0.8
        system.clock.advance_to(30_000.0)
        record = backend.serve(backend.login("u"), QUESTIONS[0])  # a check is due: it runs here
        answer = record.answer
        log.append(
            QueryEvent(
                record.served_at, answer.outcome, answer.response_time,
                answer.outcome == "generation_error", answer.partial_results,
            )
        )
        [(now, alerts, snapshot)] = checked
        horizon = now - max(window.long_seconds for window in PAGE_BURN_WINDOWS)
        in_window = [event for event in log if event.timestamp >= horizon]
        # It fires what an evaluation of the filtered whole log fires, and
        # the threshold rules of that moment's dashboard.
        expected = evaluate_slo_alerts(in_window, now=now, windows=PAGE_BURN_WINDOWS)
        assert [alert.rule for alert in expected] == ["slo_availability"]
        assert alerts == expected + evaluate_alerts(snapshot)
        assert "failed_requests" in {alert.rule for alert in alerts}
