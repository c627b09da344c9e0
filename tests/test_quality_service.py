"""Service-layer wiring of explain and quality observability.

The backend exposes two new authorized ops routes — ``explain`` (score
provenance by query id or fresh question) and ``quality`` (drift-detector
verdicts) — and folds quality alerts into the ``slo`` route so every alert
source shares one surface.
"""

from __future__ import annotations

import pytest

from repro.api import AskOptions, AskRequest, create_backend, create_engine
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon
from repro.obs.quality import QualityMonitor
from repro.obs.slo import Alert
from repro.service.backend import ROLE_OPS, AuthorizationError


@pytest.fixture(scope="module")
def tiny_kb():
    return KbGenerator(KbGeneratorConfig(num_topics=12, error_families=2, seed=29)).generate()


@pytest.fixture(scope="module")
def banking_lexicon():
    return build_banking_lexicon()


def build_backend(tiny_kb, banking_lexicon, monitor=None):
    system = create_engine(tiny_kb.store(), banking_lexicon, seed=29)
    backend = create_backend(system, tracing=True, quality_monitor=monitor)
    return system, backend


class TestExplainRoute:
    def test_stored_record_report_by_query_id(self, tiny_kb, banking_lexicon):
        _, backend = build_backend(tiny_kb, banking_lexicon)
        token = backend.login("emp")
        ops = backend.login("sre", role=ROLE_OPS)
        record = backend.serve(
            token, AskRequest("limiti prelievo bancomat", AskOptions(explain=True))
        )
        report = backend.ops("explain", ops, query_id=record.query_id)
        assert report is record.answer.explain_report
        assert report.sums_exact

    def test_plain_record_has_no_stored_report(self, tiny_kb, banking_lexicon):
        _, backend = build_backend(tiny_kb, banking_lexicon)
        token = backend.login("emp")
        ops = backend.login("sre", role=ROLE_OPS)
        record = backend.serve(token, "limiti prelievo bancomat")
        assert backend.ops("explain", ops, query_id=record.query_id) is None

    def test_fresh_question_explain(self, tiny_kb, banking_lexicon):
        _, backend = build_backend(tiny_kb, banking_lexicon)
        ops = backend.login("sre", role=ROLE_OPS)
        report = backend.ops("explain", ops, question="bonifico estero commissioni")
        assert report is not None
        assert report.sums_exact
        # The ad-hoc explain never counts as served traffic.
        assert backend.served_queries == 0

    def test_requires_ops_role_and_an_argument(self, tiny_kb, banking_lexicon):
        _, backend = build_backend(tiny_kb, banking_lexicon)
        employee = backend.login("emp")
        ops = backend.login("sre", role=ROLE_OPS)
        with pytest.raises(AuthorizationError):
            backend.ops("explain", employee, question="x")
        with pytest.raises(ValueError):
            backend.ops("explain", ops)


class TestQualityRoute:
    def test_unwired_deployment_reports_disabled(self, tiny_kb, banking_lexicon):
        _, backend = build_backend(tiny_kb, banking_lexicon)
        ops = backend.login("sre", role=ROLE_OPS)
        assert backend.ops("quality", ops) == {"enabled": False, "verdicts": []}

    def test_monitor_fed_by_served_traffic(self, tiny_kb, banking_lexicon):
        monitor = QualityMonitor(reference_size=4, window_size=2)
        _, backend = build_backend(tiny_kb, banking_lexicon, monitor=monitor)
        token = backend.login("emp")
        ops = backend.login("sre", role=ROLE_OPS)
        for question in ("limiti prelievo bancomat", "bonifico estero commissioni"):
            backend.serve(token, question)
        payload = backend.ops("quality", ops)
        assert payload["enabled"]
        signals = {verdict["signal"] for verdict in payload["verdicts"]}
        assert signals == {"fused_score", "guardrail_pass", "citation_coverage"}
        assert monitor.score._reference, "served answers must reach the detectors"

    def test_slo_route_carries_quality_alerts(self, tiny_kb, banking_lexicon):
        monitor = QualityMonitor(reference_size=4, window_size=2)
        _, backend = build_backend(tiny_kb, banking_lexicon, monitor=monitor)
        ops = backend.login("sre", role=ROLE_OPS)
        monitor.record_canary(
            [Alert(rule="quality_canary_mrr", severity="critical", message="dropped")]
        )
        rules = {alert.rule for alert in backend.ops("slo", ops)}
        assert "quality_canary_mrr" in rules
