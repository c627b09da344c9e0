"""Incident forensics: flight recorder, capture bundles, per-request diagnosis.

When a page fires today the operator gets an alert name and five
disconnected surfaces (dashboard, metrics, profiles, traces, audit) whose
evidence has often already aged out of the bounded rings by the time a
human looks.  This module closes that gap with three pieces:

* :class:`BlackBoxRecorder` — an aircraft-style flight recorder: a
  bounded, deterministic ring of structured **control-plane** events on
  the shared simulated clock.  The existing sources of truth feed it
  (autoscaler decisions, admission level transitions, replica
  kills/heals observed by the router, cache-epoch flips, topology
  changes, segment merges, alert transitions), so the recorder never
  invents state — it remembers the state changes the system already
  made, in order.
* :class:`IncidentManager` — opens a fingerprint-deduped incident when a
  page-severity alert fires, freezes a **capture bundle** at that moment
  (dashboard, saturation, profile window, slowest retained traces,
  work-counter deltas, the recorder window before the page), tracks
  recovery, and renders a causally ordered timeline with a ranked
  suspected-cause list.
* :meth:`IncidentManager.diagnose` — the per-request loop: compares the
  backend's stored record of a request against rolling per-route
  baselines and explains *why this request* was slow, shed or degraded,
  linking to the admission pressure and autoscaler state the record
  carries from serve time.  The manager keeps no copy of a request.

Layering: this module lives in ``repro.obs`` and never imports the
service layer.  The backend assembles the :class:`~repro.obs.slo.Alert`
list (burn rates over :data:`PAGE_BURN_WINDOWS`, quality alerts and the
threshold rules) and passes it into :meth:`IncidentManager.check`;
``critical`` alerts page.

Everything is off by default and deterministic when on: event order is
the order state changed on the simulated clock, fingerprints are pure
functions of the firing rule set, and no observer reads a wall clock or
a shared RNG — so two identical chaos runs produce bit-identical
incident logs, and a deployment with incidents disabled is byte-identical
to one built before this module existed.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import asdict, dataclass, field

from repro.obs.audit import NULL_AUDIT
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.slo import SEVERITY_CRITICAL, BurnWindow

__all__ = [
    "BlackBoxRecorder",
    "Incident",
    "IncidentConfig",
    "IncidentManager",
    "RecordedEvent",
]

# -- recorder event kinds --------------------------------------------------
EVENT_ALERT_FIRED = "alert_fired"
EVENT_ALERT_RESOLVED = "alert_resolved"
EVENT_SCALE_DECISION = "scale_decision"
EVENT_ADMISSION_TRANSITION = "admission_transition"
EVENT_CACHE_EPOCH_FLIP = "cache_epoch_flip"
EVENT_REPLICA_KILL = "replica_kill"
EVENT_REPLICA_HEAL = "replica_heal"
EVENT_TOPOLOGY_CHANGE = "topology_change"
EVENT_SEGMENT_MERGE = "segment_merge"
EVENT_HEDGES_DISABLED = "hedges_disabled"
EVENT_HEDGES_RESTORED = "hedges_restored"


#: Ring size of the flight recorder.
RECORDER_CAPACITY = 512
#: Simulated seconds between alert evaluations.
CHECK_INTERVAL = 15.0
#: The multi-window pair of the page evaluation (both must burn).  Much
#: shorter than the SRE-workbook service defaults (5 m/1 h): incident
#: detection runs inside compressed simulated days (the 30-minute diurnal
#: chaos run), where an hour-long window could mathematically never trip
#: mid-run.  They mirror the autoscaler's own 60 s/300 s control windows.
PAGE_SHORT_SECONDS = 60.0
PAGE_LONG_SECONDS = 300.0
#: Error-budget burn rate that pages.
PAGE_BURN_THRESHOLD = 10.0
#: The multi-window page rule of incident detection.
PAGE_BURN_WINDOWS = (
    BurnWindow(
        short_seconds=PAGE_SHORT_SECONDS,
        long_seconds=PAGE_LONG_SECONDS,
        max_burn_rate=PAGE_BURN_THRESHOLD,
        severity=SEVERITY_CRITICAL,
    ),
)
#: Recorder window frozen before the page (and scanned around a request by
#: :meth:`IncidentManager.diagnose`).
PRE_WINDOW_SECONDS = 120.0
#: How far before the page the suspected-cause ranking looks for
#: control-plane events.
CAUSE_WINDOW_SECONDS = 300.0
#: A page matching an incident recovered less than this long ago reopens
#: it instead of opening a new one.
DEDUP_WINDOW_SECONDS = 300.0
#: Per-route rolling baseline size (requests).
BASELINE_WINDOW = 256
#: Retained incidents (oldest recovered drop first).
MAX_INCIDENTS = 64
#: A request this many times slower than its route baseline is called out
#: as slow.
SLOW_RATIO = 1.5
#: Baselines smaller than this are not trusted.
MIN_BASELINE = 8


@dataclass(frozen=True)
class IncidentConfig:
    """Incident forensics of one deployment.  Off by default.

    Attributes:
        enabled: construct the recorder and manager at all.
    """

    enabled: bool = False


@dataclass(frozen=True)
class RecordedEvent:
    """One control-plane state change in the flight recorder.

    Attributes:
        at: simulated timestamp the change was obrecord.
        kind: one of the ``EVENT_*`` names.
        source: which component reported it (``autoscaler``, ``router``,
            ``admission``, ``index``, ``alerting``).
        detail: structured, JSON-able payload.
    """

    at: float
    kind: str
    source: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"at": self.at, "kind": self.kind, "source": self.source, **self.detail}

    def format(self) -> str:
        shown = " ".join(f"{key}={value}" for key, value in self.detail.items())
        return f"t={self.at:9.1f}s  {self.kind:<21} {shown}".rstrip()


class BlackBoxRecorder:
    """Bounded deterministic ring of control-plane events.

    Feeders call :meth:`record`; the recorder stamps the event off the
    shared simulated clock itself, so source sites need no clock handle
    of their own.  *registry* is optional — instruments are registered at
    construction, so only incident-enabled deployments gain the
    ``uniask_incident_events_total`` exposition.
    """

    def __init__(self, clock, registry=None) -> None:
        self._clock = clock
        self._events: deque[RecordedEvent] = deque(maxlen=RECORDER_CAPACITY)
        self._total = 0
        self._m_events = (registry or NULL_REGISTRY).counter(
            "uniask_incident_events_total",
            "Control-plane events captured by the flight recorder, by kind.",
            ("kind",),
        )

    def record(self, kind: str, source: str, **detail: object) -> RecordedEvent:
        """Append one event stamped at the current simulated instant."""
        event = RecordedEvent(
            at=self._clock.now(), kind=kind, source=source, detail=dict(detail)
        )
        self._events.append(event)
        self._total += 1
        self._m_events.labels(kind).inc()
        return event

    @property
    def events(self) -> tuple[RecordedEvent, ...]:
        """Every retained event, oldest first."""
        return tuple(self._events)

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (retained or already evicted)."""
        return self._total

    def window(self, start: float, end: float) -> tuple[RecordedEvent, ...]:
        """Retained events with ``start <= at <= end``, in order."""
        return tuple(e for e in self._events if start <= e.at <= end)

    def __len__(self) -> int:
        return len(self._events)


#: Cause classes, their evidence events and their prior weights.  A
#: replica kill explains a page better than a heal; weights bias the
#: recency-scored ranking accordingly.
_CAUSE_WEIGHTS = {
    EVENT_REPLICA_KILL: 5.0,
    EVENT_CACHE_EPOCH_FLIP: 4.0,
    "scale_remove_replica": 3.0,
    "scale_rebalance": 3.0,
    EVENT_ADMISSION_TRANSITION: 2.0,
    EVENT_HEDGES_DISABLED: 2.0,
    EVENT_TOPOLOGY_CHANGE: 1.0,
    EVENT_SEGMENT_MERGE: 1.0,
    "scale_add_replica": 0.5,
    EVENT_REPLICA_HEAL: 0.5,
}


def _cause_class(event: RecordedEvent) -> str | None:
    """Map a recorded event to its suspected-cause class (None = not one)."""
    if event.kind == EVENT_SCALE_DECISION:
        action = event.detail.get("action", "")
        key = f"scale_{action}"
        return key if key in _CAUSE_WEIGHTS else None
    if event.kind in _CAUSE_WEIGHTS:
        return event.kind
    return None


class Incident:
    """One opened incident: the page, its capture bundle, its causes."""

    def __init__(
        self,
        incident_id: str,
        fingerprint: str,
        opened_at: float,
        rules: tuple[str, ...],
        alerts: list[dict],
        capture: dict,
        events: tuple[RecordedEvent, ...],
        suspected_causes: list[dict],
    ) -> None:
        self.incident_id = incident_id
        self.fingerprint = fingerprint
        self.opened_at = opened_at
        self.rules = rules
        self.alerts = alerts
        self.capture = capture
        self.events = events
        self.suspected_causes = suspected_causes
        self.count = 1
        self.last_seen = opened_at
        self.recovered_at: float | None = None

    @property
    def open(self) -> bool:
        return self.recovered_at is None

    @property
    def top_cause(self) -> str:
        """The highest-ranked suspected cause ("" when none was found)."""
        return self.suspected_causes[0]["cause"] if self.suspected_causes else ""

    def summary(self) -> dict:
        return {
            "incident_id": self.incident_id,
            "fingerprint": self.fingerprint,
            "status": "open" if self.open else "recovered",
            "opened_at": self.opened_at,
            "recovered_at": self.recovered_at,
            "last_seen": self.last_seen,
            "count": self.count,
            "rules": list(self.rules),
            "top_cause": self.top_cause,
        }

    def to_dict(self) -> dict:
        payload = self.summary()
        payload["alerts"] = list(self.alerts)
        payload["suspected_causes"] = list(self.suspected_causes)
        payload["events"] = [event.to_dict() for event in self.events]
        payload["capture"] = self.capture
        return payload


class IncidentManager:
    """Opens, deduplicates, captures and diagnoses incidents.

    Args:
        clock: the deployment's simulated clock.
        recorder: the deployment's :class:`BlackBoxRecorder`.
        audit: optional audit logger; incident opens/recoveries land as
            structured entries.
        registry: optional metrics registry — instruments register at
            construction, so incident-off expositions stay byte-identical.
    """

    def __init__(
        self,
        clock=None,
        recorder: BlackBoxRecorder | None = None,
        audit=None,
        registry=None,
    ) -> None:
        self._clock = clock
        self.recorder = recorder if recorder is not None else BlackBoxRecorder(clock)
        self._audit = audit if audit is not None else NULL_AUDIT
        self._capture_fn = None
        self._incidents: list[Incident] = []
        self._counter = 0
        self._last_check = float("-inf")
        self._active_alerts: dict[str, str] = {}
        # Per-request diagnosis state: rolling per-route baselines.
        self._baselines: dict[str, deque] = {}
        self._work_totals: dict[str, int] = {}
        self._work_at_last_incident: dict[str, int] = {}
        registry = registry or NULL_REGISTRY
        self._g_open = registry.gauge(
            "uniask_incidents_open", "Currently open (unrecovered) incidents."
        )
        self._m_incidents = registry.counter(
            "uniask_incidents_total",
            "Incidents opened, by top-ranked suspected cause.",
            ("cause",),
        )

    # -- wiring ------------------------------------------------------------

    def attach(self, capture_fn) -> None:
        """Install the capture callback (``(now) -> dict`` bundle).

        The backend registers a bound method here so the manager can
        freeze service-layer surfaces (dashboard, saturation, profile,
        traces) without this module importing the service layer.
        """
        self._capture_fn = capture_fn

    # -- per-request feed --------------------------------------------------

    def observe_request(self, record) -> None:
        """Feed one served request — the backend's stored summary of it
        (``stages``: its ``trace.stage_durations()``, empty when untraced) —
        into baselines and work totals."""
        route = record.route or "default"
        baseline = self._baselines.get(route)
        if baseline is None:
            baseline = deque(maxlen=BASELINE_WINDOW)
            self._baselines[route] = baseline
        # Degraded / cache-served requests would drag the full-service
        # baseline down and mask genuinely slow requests; only clean
        # full-pipeline serves train it.
        if record.degrade_level == 0 and not record.cache_hit:
            baseline.append((record.response_time, record.stages))
        if record.work:
            for kind, units in record.work.items():
                self._work_totals[kind] = self._work_totals.get(kind, 0) + units

    # -- the incident loop -------------------------------------------------

    def due(self, now: float) -> bool:
        """True when a check interval has elapsed since the last check."""
        return now - self._last_check >= CHECK_INTERVAL

    def check(self, now: float, alerts) -> Incident | None:
        """Evaluate *alerts* (:class:`~repro.obs.slo.Alert` values) at *now*.

        Records alert transitions on the flight recorder, recovers
        incidents whose rules stopped paging, and opens (or dedups into)
        an incident when page-severity rules fire.  Returns the incident
        opened or updated by this check, if any.
        """
        self._last_check = now
        current = {alert.rule: alert.severity for alert in alerts}
        for rule, severity in current.items():
            if self._active_alerts.get(rule) != severity:
                self.recorder.record(
                    EVENT_ALERT_FIRED, "alerting", rule=rule, severity=severity
                )
        for rule in list(self._active_alerts):
            if rule not in current:
                self.recorder.record(EVENT_ALERT_RESOLVED, "alerting", rule=rule)
        self._active_alerts = current

        page_rules = tuple(
            sorted(rule for rule, severity in current.items() if severity == SEVERITY_CRITICAL)
        )
        self._recover(now, set(page_rules))
        if not page_rules:
            return None
        fingerprint = hashlib.sha1("|".join(page_rules).encode("utf-8")).hexdigest()[:12]
        for incident in reversed(self._incidents):
            if incident.fingerprint != fingerprint:
                continue
            if incident.open:
                incident.count += 1
                incident.last_seen = now
                return incident
            if now - incident.recovered_at <= DEDUP_WINDOW_SECONDS:
                # The same page flapping back inside the dedup window is
                # one incident, not a fresh 3 a.m. wake-up.
                incident.recovered_at = None
                incident.count += 1
                incident.last_seen = now
                self._g_open.inc()
                return incident
            break
        return self._open(now, fingerprint, page_rules, alerts)

    def _recover(self, now: float, paging: set[str]) -> None:
        for incident in self._incidents:
            if incident.open and not (set(incident.rules) & paging):
                incident.recovered_at = now
                self._g_open.dec()
                self._audit.info(
                    "incident_recovered",
                    incident_id=incident.incident_id,
                    fingerprint=incident.fingerprint,
                    duration=now - incident.opened_at,
                )

    def _open(
        self, now: float, fingerprint: str, rules: tuple[str, ...], alerts
    ) -> Incident:
        self._counter += 1
        # The frozen timeline must contain the evidence behind every ranked
        # cause, so it spans the cause window (which covers the pre-window).
        events = self.recorder.window(now - CAUSE_WINDOW_SECONDS, now)
        causes = self._rank_causes(now)
        capture: dict = {}
        if self._capture_fn is not None:
            capture = self._capture_fn(now)
        capture["work_totals"] = dict(self._work_totals)
        capture["work_delta"] = {
            kind: units - self._work_at_last_incident.get(kind, 0)
            for kind, units in self._work_totals.items()
        }
        self._work_at_last_incident = dict(self._work_totals)
        incident = Incident(
            incident_id=f"inc-{self._counter:04d}",
            fingerprint=fingerprint,
            opened_at=now,
            rules=rules,
            alerts=[asdict(alert) for alert in alerts],
            capture=capture,
            events=events,
            suspected_causes=causes,
        )
        self._incidents.append(incident)
        self._trim()
        self._g_open.inc()
        self._m_incidents.labels(incident.top_cause or "unknown").inc()
        self._audit.warning(
            "incident_open",
            incident_id=incident.incident_id,
            fingerprint=fingerprint,
            rules=list(rules),
            top_cause=incident.top_cause,
        )
        return incident

    def _trim(self) -> None:
        while len(self._incidents) > MAX_INCIDENTS:
            for index, incident in enumerate(self._incidents):
                if not incident.open:
                    del self._incidents[index]
                    break
            else:
                del self._incidents[0]

    def _rank_causes(self, now: float) -> list[dict]:
        """Score the control-plane events preceding a page.

        Each cause class accumulates ``weight * (0.25 + 0.75 * recency)``
        over its events in the cause window — a kill 8 seconds before the
        page outranks a merge 4 minutes earlier, but even old evidence
        keeps a floor so it is listed, not hidden.
        """
        window = CAUSE_WINDOW_SECONDS
        scores: dict[str, float] = {}
        counts: dict[str, int] = {}
        last_event: dict[str, RecordedEvent] = {}
        for event in self.recorder.window(now - window, now):
            cause = _cause_class(event)
            if cause is None:
                continue
            age = max(0.0, now - event.at)
            recency = 1.0 - min(1.0, age / window)
            scores[cause] = scores.get(cause, 0.0) + _CAUSE_WEIGHTS[cause] * (
                0.25 + 0.75 * recency
            )
            counts[cause] = counts.get(cause, 0) + 1
            last_event[cause] = event
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return [
            {
                "cause": cause,
                "score": round(score, 4),
                "events": counts[cause],
                "last_at": last_event[cause].at,
                "last_detail": dict(last_event[cause].detail),
            }
            for cause, score in ranked
        ]

    # -- per-request diagnosis ---------------------------------------------

    def diagnose(self, record) -> dict:
        """Explain why one request was slow, shed or degraded.

        Compares the backend's stored summary of the request against its
        route's rolling baseline and links it to the control-plane state
        at serve time (the summary's ``pressure`` / ``utilization`` readings
        and the recorder window before ``served_at``).
        """
        route = record.route or "default"
        findings: list[str] = []
        verdict = "normal"

        if record.degrade_level:
            verdict = "shed"
            findings.append(
                f"served at degrade level {record.degrade_level} "
                "(admission shed ladder)"
            )
        if record.partial_results:
            verdict = "degraded" if verdict == "normal" else verdict
            findings.append("partial results: at least one shard missed its deadline")
        if record.cache_hit:
            findings.append(f"served from cache (kind={record.cache_hit})")

        baseline = self._baselines.get(route, ())
        baseline_n = len(baseline)
        baseline_mean = 0.0
        ratio = 0.0
        stage_deltas: list[dict] = []
        if baseline_n >= MIN_BASELINE:
            baseline_mean = sum(rt for rt, _ in baseline) / baseline_n
            if baseline_mean > 0.0:
                ratio = record.response_time / baseline_mean
            if ratio > SLOW_RATIO and not record.cache_hit:
                if verdict == "normal":
                    verdict = "slow"
                findings.append(
                    f"{ratio:.1f}x slower than the {route} route baseline "
                    f"({record.response_time:.3f}s vs {baseline_mean:.3f}s "
                    f"mean of {baseline_n})"
                )
            stage_deltas = self._stage_deltas(record.stages, baseline)
            for delta in stage_deltas[:3]:
                if delta["delta"] > 0.0:
                    findings.append(
                        f"stage {delta['stage']} +{delta['delta']:.3f}s vs baseline"
                    )
        else:
            findings.append(
                f"route {route} baseline too small to compare "
                f"({baseline_n} < {MIN_BASELINE})"
            )

        if record.pressure is not None:
            findings.append(f"admission pressure {record.pressure:.2f} at serve time")
        if record.utilization is not None:
            findings.append(
                f"autoscaler utilization {record.utilization:.2f} at serve time"
            )
        nearby = self.recorder.window(
            record.served_at - PRE_WINDOW_SECONDS, record.served_at
        )
        for event in nearby[-5:]:
            findings.append(f"control-plane: {event.format()}")

        return {
            "query_id": record.query_id,
            "route": route,
            "verdict": verdict,
            "served_at": record.served_at,
            "response_time": record.response_time,
            "outcome": record.outcome,
            "degrade_level": record.degrade_level,
            "cache_hit": record.cache_hit,
            "partial": record.partial_results,
            "baseline_n": baseline_n,
            "baseline_mean": round(baseline_mean, 4),
            "slowdown": round(ratio, 3),
            "stage_deltas": stage_deltas,
            "work": dict(record.work) if record.work else {},
            "pressure": record.pressure,
            "utilization": record.utilization,
            "nearby_events": [event.to_dict() for event in nearby[-5:]],
            "findings": findings,
        }

    @staticmethod
    def _stage_deltas(stages: dict[str, float], baseline) -> list[dict]:
        """Per-stage deviations against the baseline's mean durations."""
        if not stages:
            return []
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for _, base_stages in baseline:
            for stage, duration in base_stages.items():
                sums[stage] = sums.get(stage, 0.0) + duration
                counts[stage] = counts.get(stage, 0) + 1
        deltas = []
        for stage, duration in stages.items():
            mean = sums.get(stage, 0.0) / counts[stage] if counts.get(stage) else 0.0
            deltas.append(
                {
                    "stage": stage,
                    "duration": round(duration, 6),
                    "baseline": round(mean, 6),
                    "delta": round(duration - mean, 6),
                }
            )
        deltas.sort(key=lambda item: (-item["delta"], item["stage"]))
        return deltas

    # -- observability -----------------------------------------------------

    @property
    def incidents(self) -> tuple[Incident, ...]:
        """Every retained incident, oldest first."""
        return tuple(self._incidents)

    @property
    def open_incidents(self) -> tuple[Incident, ...]:
        """Incidents not yet recovered."""
        return tuple(incident for incident in self._incidents if incident.open)

    def get(self, incident_id: str) -> Incident:
        """Fetch one incident by id."""
        for incident in self._incidents:
            if incident.incident_id == incident_id:
                return incident
        raise KeyError(f"unknown incident id {incident_id!r}")

    def status(self) -> dict:
        """The ``incidents`` ops-route payload."""
        return {
            "enabled": True,
            "open": len(self.open_incidents),
            "total": len(self._incidents),
            "recorder_events": len(self.recorder),
            "recorder_total": self.recorder.total_recorded,
            "incidents": [incident.summary() for incident in self._incidents],
        }

    def format_timeline(self, incident: Incident) -> str:
        """Render one incident as a causally ordered operator timeline."""
        state = "OPEN" if incident.open else "recovered"
        lines = [
            f"incident {incident.incident_id} (fingerprint {incident.fingerprint}) — {state}",
            f"opened at t={incident.opened_at:.1f}s by {', '.join(incident.rules)} "
            f"(seen {incident.count}x)",
        ]
        if incident.recovered_at is not None:
            lines.append(
                f"recovered at t={incident.recovered_at:.1f}s "
                f"(duration {incident.recovered_at - incident.opened_at:.1f}s)"
            )
        lines.append("timeline:")
        for event in incident.events:
            lines.append(f"  {event.format()}")
        lines.append(
            f"  t={incident.opened_at:9.1f}s  ** page: {', '.join(incident.rules)} **"
        )
        if incident.suspected_causes:
            lines.append("suspected causes:")
            for rank, cause in enumerate(incident.suspected_causes, start=1):
                shown = " ".join(
                    f"{key}={value}" for key, value in cause["last_detail"].items()
                )
                lines.append(
                    f"  {rank}. {cause['cause']:<21} score={cause['score']:<8g} "
                    f"events={cause['events']} last_at=t={cause['last_at']:.1f}s {shown}".rstrip()
                )
        else:
            lines.append("suspected causes: none recorded in the cause window")
        return "\n".join(lines)
