"""Service-level objectives with multi-window burn-rate evaluation.

A threshold alert ("fire when failure rate > 2%") pages equally hard for a
one-minute blip and a sustained outage.  SLO-based alerting instead tracks
how fast the **error budget** burns: an :class:`SLO` declares the fraction
of *good* events required over a compliance period; the *burn rate* over a
window is the observed bad fraction divided by the budget (burn 1.0 =
spending exactly the budget, 14.4 = exhausting a 30-day budget in ~2 days).

:func:`evaluate_burn_rates` implements the standard multi-window guard: an
alert fires only when **both** a short and a long window exceed the same
burn threshold — the long window proves the problem is sustained, the
short window proves it is still happening (so the alert resolves quickly
once the system recovers).  The default window pairs are the SRE-workbook
values (5 m/1 h at 14.4× critical, 30 m/6 h at 6× warning).

Events are ``(timestamp, good)`` samples; the service layer adapts its
query log (availability: not failed; latency: served under the objective
threshold; guardrail rate: answer not invalidated) in
:mod:`repro.service.alerting`.

The one alert vocabulary lives here too — :class:`Alert` and the two
severities — because this is the lowest layer every producer imports: the
burn rates, the quality detectors (:mod:`repro.obs.quality`) and the
threshold rules (:mod:`repro.service.alerting`) each return an
:class:`Alert` themselves, and no reader adapts one shape into another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "Alert",
    "BurnWindow",
    "DEFAULT_BURN_WINDOWS",
    "SEVERITY_CRITICAL",
    "SEVERITY_WARNING",
    "SLO",
    "SloSample",
    "burn_rate",
    "evaluate_burn_rates",
]

#: Severities, in escalation order.  ``critical`` is the page: it opens an
#: incident and fails the ``metrics`` CLI gate; ``warning`` is only shown.
SEVERITY_WARNING = "warning"
SEVERITY_CRITICAL = "critical"


@dataclass(frozen=True)
class Alert:
    """One fired alert, whatever fired it.

    Attributes:
        rule: ``slo_<name>`` (burn rate), ``quality_<name>`` (drift or
            canary) or a threshold rule's own name.
        severity: :data:`SEVERITY_WARNING` or :data:`SEVERITY_CRITICAL`.
        message: operator-facing description with the measured values.
    """

    rule: str
    severity: str
    message: str


@dataclass(frozen=True)
class SLO:
    """One objective: the required fraction of good events.

    Attributes:
        name: stable identifier (``availability``, ``latency_p95``, …).
        objective: required good fraction in (0, 1), e.g. 0.999.
        description: one-line operator-facing summary.
    """

    name: str
    objective: float
    description: str = ""

    def __post_init__(self) -> None:
        if not (0.0 < self.objective < 1.0):
            raise ValueError("objective must be strictly between 0 and 1")

    @property
    def error_budget(self) -> float:
        """The tolerated bad fraction (1 - objective)."""
        return 1.0 - self.objective


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window burn-rate rule: short + long window, one threshold."""

    short_seconds: float
    long_seconds: float
    max_burn_rate: float
    severity: str

    def __post_init__(self) -> None:
        if self.short_seconds <= 0 or self.long_seconds <= 0:
            raise ValueError("window lengths must be positive")
        if self.short_seconds > self.long_seconds:
            raise ValueError("the short window must not exceed the long window")
        if self.max_burn_rate <= 0:
            raise ValueError("max_burn_rate must be positive")


#: SRE-workbook defaults: page on a fast burn, warn on a slow one.
DEFAULT_BURN_WINDOWS = (
    BurnWindow(short_seconds=300.0, long_seconds=3600.0, max_burn_rate=14.4, severity=SEVERITY_CRITICAL),
    BurnWindow(short_seconds=1800.0, long_seconds=21600.0, max_burn_rate=6.0, severity=SEVERITY_WARNING),
)


@dataclass(frozen=True)
class SloSample:
    """One classified event: when it happened and whether it was good."""

    timestamp: float
    good: bool


def burn_rate(
    samples: Iterable[SloSample], window_seconds: float, now: float, error_budget: float
) -> float:
    """The budget burn over ``[now - window, now]`` (0.0 with no samples)."""
    if error_budget <= 0:
        raise ValueError("error_budget must be positive")
    start = now - window_seconds
    total = 0
    bad = 0
    for sample in samples:
        if start <= sample.timestamp <= now:
            total += 1
            if not sample.good:
                bad += 1
    if total == 0:
        return 0.0
    return (bad / total) / error_budget


def evaluate_burn_rates(
    slo: SLO,
    samples: list[SloSample],
    now: float,
    windows: tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS,
) -> list[Alert]:
    """Fire every window rule whose short AND long burns exceed its threshold.

    Rules are checked in order; at most one alert (``slo_<name>``) fires
    per SLO — the first (most severe) window pair that trips — because a
    fast burn already implies the slow-burn condition operationally.
    """
    for window in windows:
        short = burn_rate(samples, window.short_seconds, now, slo.error_budget)
        long_ = burn_rate(samples, window.long_seconds, now, slo.error_budget)
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
