"""The service's alert rules: threshold rules and the SLO declarations.

Section 9's monitoring exists so operators notice problems; nobody stares
at a dashboard, so rules watch the same counters.  Both families return
the one :class:`~repro.obs.slo.Alert` (re-exported here):

* **Threshold rules** (:func:`default_rules`, :func:`evaluate_alerts`)
  read a :class:`~repro.service.monitoring.DashboardSnapshot` — rates
  over everything served, no windows.  ``guardrail_rate`` is the only
  detector that sees the paper's Phase-1 release-1 bug: 25 % guardrailed
  over the 15 % budget of the ``guardrail_pass_rate`` SLO burns 1.7 ×, the
  windows trip at 6 × / 14.4 ×.
* **Burn rates** (:func:`default_slos`, :func:`evaluate_slo_alerts`): the
  four service objectives, each with the predicate classifying a
  :class:`~repro.service.monitoring.QueryEvent` as good or bad, evaluated
  by :func:`repro.obs.slo.evaluate_burn_rates` over the collector's SLO
  tail.

``BackendService._alerts`` assembles the two for the ops ``slo`` route,
the ``metrics`` CLI gate, CI and the incident page check.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from repro.obs.slo import (
    DEFAULT_BURN_WINDOWS,
    SEVERITY_CRITICAL,
    SEVERITY_WARNING,
    SLO,
    Alert,
    BurnWindow,
    evaluate_burn_rates,
)
from repro.service.monitoring import DashboardSnapshot, QueryEvent


@dataclass(frozen=True)
class AlertRule:
    """A named predicate over the dashboard snapshot."""

    name: str
    severity: str
    predicate: Callable[[DashboardSnapshot], bool]
    describe: Callable[[DashboardSnapshot], str]


def _guardrail_rate(snapshot: DashboardSnapshot) -> float:
    if snapshot.queries == 0:
        return 0.0
    return snapshot.guardrails_triggered / snapshot.queries


def _failure_rate(snapshot: DashboardSnapshot) -> float:
    if snapshot.queries == 0:
        return 0.0
    return snapshot.failed_requests / snapshot.queries


def default_rules(
    max_guardrail_rate: float = 0.15,
    max_failure_rate: float = 0.02,
    max_response_time: float = 5.0,
) -> list[AlertRule]:
    """The production rule set with its documented thresholds.

    The guardrail-rate rule is calibrated from Table 5: a healthy system
    blocks ~5% of answers; the 25% observed under the Phase 1 release-1
    bug would fire it immediately.
    """
    return [
        AlertRule(
            name="guardrail_rate",
            severity=SEVERITY_WARNING,
            predicate=lambda s: _guardrail_rate(s) > max_guardrail_rate,
            describe=lambda s: (
                f"guardrails triggered on {_guardrail_rate(s):.1%} of queries "
                f"(threshold {max_guardrail_rate:.0%}) — check generation quality"
            ),
        ),
        AlertRule(
            name="failed_requests",
            severity=SEVERITY_CRITICAL,
            predicate=lambda s: _failure_rate(s) > max_failure_rate,
            describe=lambda s: (
                f"{s.failed_requests} failed requests ({_failure_rate(s):.1%}, "
                f"threshold {max_failure_rate:.0%}) — check the LLM token quota"
            ),
        ),
        AlertRule(
            name="response_time",
            severity=SEVERITY_WARNING,
            predicate=lambda s: s.average_response_time > max_response_time,
            describe=lambda s: (
                f"average response time {s.average_response_time:.1f}s "
                f"(threshold {max_response_time:.1f}s)"
            ),
        ),
    ]


def evaluate_alerts(
    snapshot: DashboardSnapshot, rules: list[AlertRule] | None = None
) -> list[Alert]:
    """Evaluate all *rules* against *snapshot*; returns the fired alerts."""
    return [
        Alert(rule=rule.name, severity=rule.severity, message=rule.describe(snapshot))
        for rule in (rules if rules is not None else default_rules())
        if rule.predicate(snapshot)
    ]


@dataclass(frozen=True)
class ServiceSlo:
    """One service SLO plus the predicate classifying a query event as good."""

    slo: SLO
    good: Callable[[QueryEvent], bool]


def default_slos(latency_threshold: float = 5.0) -> list[ServiceSlo]:
    """The four service objectives and their event classifiers.

    * **availability** (99%): the request did not fail outright.
    * **latency** (95% under *latency_threshold* seconds): served fast
      enough — failed requests also count against it (a timeout is slow).
    * **guardrail pass rate** (85%): the answer was not invalidated by a
      guardrail; calibrated from Table 5, where a healthy system blocks
      well under 15% of answers.
    * **completeness** (95%): the answer covered every shard — a dark
      shard turns the whole fleet's responses partial at once, which is
      exactly the signal an incident page should ride on.
    """
    return [
        ServiceSlo(
            slo=SLO(
                "availability", 0.99, "99% of requests complete without failing"
            ),
            good=lambda event: not event.failed,
        ),
        ServiceSlo(
            slo=SLO(
                "latency",
                0.95,
                f"95% of requests served within {latency_threshold:g}s",
            ),
            good=lambda event: (not event.failed)
            and event.response_time <= latency_threshold,
        ),
        ServiceSlo(
            slo=SLO(
                "guardrail_pass_rate",
                0.85,
                "85% of generated answers survive the guardrail pipeline",
            ),
            good=lambda event: not event.outcome.startswith("guardrail_"),
        ),
        ServiceSlo(
            slo=SLO(
                "completeness",
                0.95,
                "95% of answers cover every shard (no partial results)",
            ),
            good=lambda event: not event.partial,
        ),
    ]


def evaluate_slo_alerts(
    events: list[QueryEvent],
    now: float,
    slos: list[ServiceSlo] | None = None,
    windows: tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS,
) -> list[Alert]:
    """Run the multi-window burn-rate check of every SLO over the query log:
    the events are ordered once, and each SLO classifies each event once."""
    events = sorted(events, key=attrgetter("timestamp"))
    timestamps = [event.timestamp for event in events]
    fired: list[Alert] = []
    for service_slo in slos if slos is not None else default_slos():
        bad = [not service_slo.good(event) for event in events]
        fired.extend(evaluate_burn_rates(service_slo.slo, timestamps, bad, now, windows))
    return fired
