"""Unit tests for alerting, RBAC and frontend snippets."""

from __future__ import annotations

import pytest

from repro.service.alerting import (
    SEVERITY_CRITICAL,
    SEVERITY_WARNING,
    AlertRule,
    default_rules,
    evaluate_alerts,
)
from repro.service.backend import (
    ROLE_EMPLOYEE,
    ROLE_OPS,
    AuthorizationError,
    BackendService,
)
from repro.service.frontend import highlight_snippet
from repro.service.monitoring import MetricsCollector


def _snapshot(queries=100, guardrails=0, failed=0, response_time=1.0):
    collector = MetricsCollector()
    for i in range(queries - guardrails - failed):
        collector.record_query(float(i), "u", "answered", response_time)
    for i in range(guardrails):
        collector.record_query(float(i), "u", "guardrail_citation", response_time)
    for i in range(failed):
        collector.record_query(float(i), "u", "generation_error", response_time)
    return collector.snapshot()


class TestAlerting:
    def test_healthy_system_no_alerts(self):
        assert evaluate_alerts(_snapshot(guardrails=5)) == []

    def test_guardrail_spike_fires_warning(self):
        """The Phase 1 release-1 bug (25% guardrails) would trip this rule."""
        alerts = evaluate_alerts(_snapshot(guardrails=25))
        assert any(a.rule == "guardrail_rate" and a.severity == SEVERITY_WARNING for a in alerts)

    def test_failed_requests_fire_critical(self):
        alerts = evaluate_alerts(_snapshot(failed=5))
        assert any(a.rule == "failed_requests" and a.severity == SEVERITY_CRITICAL for a in alerts)

    def test_latency_rule(self):
        alerts = evaluate_alerts(_snapshot(response_time=9.0))
        assert any(a.rule == "response_time" for a in alerts)

    def test_custom_rule(self):
        rule = AlertRule(
            name="no_traffic",
            severity=SEVERITY_WARNING,
            predicate=lambda s: s.queries == 0,
            describe=lambda s: "no queries observed",
        )
        assert evaluate_alerts(_snapshot(queries=0) if False else MetricsCollector().snapshot(), [rule])

    def test_thresholds_configurable(self):
        strict = default_rules(max_guardrail_rate=0.01)
        assert evaluate_alerts(_snapshot(guardrails=5), strict)

    def test_alert_messages_are_actionable(self):
        alerts = evaluate_alerts(_snapshot(guardrails=30, failed=10, response_time=9.0))
        assert len(alerts) == 3
        assert all(alert.message for alert in alerts)


class TestRbac:
    def test_employee_cannot_read_dashboard(self, system):
        backend = BackendService(system.engine, system.clock, seed=1)
        token = backend.login("mario", role=ROLE_EMPLOYEE)
        with pytest.raises(AuthorizationError):
            backend.ops("dashboard", token)

    def test_ops_reads_dashboard(self, system):
        backend = BackendService(system.engine, system.clock, seed=1)
        employee = backend.login("mario")
        backend.serve(employee, "Come posso consultare il cedolino stipendio?")
        ops = backend.login("sre-oncall", role=ROLE_OPS)
        snapshot = backend.ops("dashboard", ops)
        assert snapshot.queries == 1

    def test_ops_token_still_queries(self, system):
        backend = BackendService(system.engine, system.clock, seed=1)
        ops = backend.login("sre-oncall", role=ROLE_OPS)
        record = backend.serve(ops, "Come posso consultare il cedolino stipendio?")
        assert record.user_id == "sre-oncall"

    def test_unknown_role_rejected(self, system):
        backend = BackendService(system.engine, system.clock, seed=1)
        with pytest.raises(ValueError):
            backend.login("x", role="superadmin")

    def test_invalid_token_on_dashboard(self, system):
        from repro.service.backend import AuthenticationError

        backend = BackendService(system.engine, system.clock, seed=1)
        with pytest.raises(AuthenticationError):
            backend.ops("dashboard", "fake")


class TestHighlightSnippet:
    CONTENT = (
        "Questa pagina descrive la procedura completa. "
        "Per attivare la carta di credito accedere a GestCarte. "
        "In caso di dubbi contattare il referente."
    )

    def test_best_sentence_selected(self):
        snippet = highlight_snippet("attivare carta di credito", self.CONTENT)
        assert "GestCarte" in snippet

    def test_terms_marked(self):
        snippet = highlight_snippet("attivare carta di credito", self.CONTENT)
        assert "«attivare»" in snippet
        assert "«carta»" in snippet

    def test_inflected_forms_marked(self):
        snippet = highlight_snippet("carte di credito attivate", self.CONTENT)
        assert "«carta»" in snippet  # stem-level matching

    def test_stopwords_not_marked(self):
        snippet = highlight_snippet("attivare la carta", self.CONTENT)
        assert "«la»" not in snippet

    def test_length_capped(self):
        long_content = "parola " * 200 + "attivare carta."
        snippet = highlight_snippet("attivare carta", long_content, max_length=80)
        assert len(snippet) <= 80

    def test_conceptless_query_returns_prefix(self):
        snippet = highlight_snippet("il lo la", self.CONTENT, max_length=30)
        assert snippet == self.CONTENT[:30]
