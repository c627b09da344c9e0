"""Backend service.

Section 3: "The BackEnd service is a REST layer exposing endpoints to be
called by the frontend.  It contains the logic responsible for login and
the requests to the Retrieval and Generation services.  It stores
feedbacks and user actions."

The in-process equivalent exposes the same three endpoints — ``login``,
``serve``, ``feedback`` — enforces session authentication, models response
time (retrieval + LLM latency as a function of token volume), and writes
every event to the monitoring collector.

On top of the user-facing endpoints sits a single **ops-route table**
(:attr:`BackendService.OPS_ROUTES`): the dashboard, the cluster status, the
Prometheus ``/metrics`` exposition and the SLO status all dispatch through
one :meth:`BackendService.ops` entry point with exactly one authorization
check, while the ``/healthz`` and ``/readyz`` probes are deliberately
unauthenticated (a load balancer holds no session token).  Every served
request is also appended to the telemetry audit log — request id, user,
outcome, stage durations, shard probes, guardrail verdicts — and offered to
the trace sampler, which decides whether the full trace is retained and
linked from the latency histograms as an exemplar.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.agents.memory import TtlLruStore
from repro.api.types import CACHE_BYPASS, CACHE_DEFAULT, AskOptions, AskRequest
from repro.cache.answer_cache import HIT_COALESCED
from repro.cache.coalescing import SingleFlight
from repro.cache.key import filters_key
from repro.core.answer import UniAskAnswer
from repro.core.engine import UniAskEngine
from repro.obs import spans
from repro.obs.audit import AuditLogger, NULL_AUDIT
from repro.obs.capacity import CapacityMonitor
from repro.obs.explain import ExplainReport
from repro.obs.incident import PAGE_BURN_WINDOWS
from repro.obs.profile import ContinuousProfiler
from repro.obs.slo import DEFAULT_BURN_WINDOWS
from repro.obs.telemetry import Telemetry
from repro.obs.trace import RequestContext, Span, Trace
from repro.obs.work import WORK_COALESCED_JOINS, WorkCounters
from repro.pipeline.clock import SimulatedClock
from repro.service.alerting import evaluate_alerts, evaluate_slo_alerts
from repro.service.feedback import FeedbackStore, GranularFeedback
from repro.service.monitoring import MetricsCollector
from repro.service.ops import OpsRoute, collect_ops_routes, ops_route
from repro.text.tokenizer import count_tokens


class AuthenticationError(Exception):
    """The session token is missing or invalid."""


class AuthorizationError(Exception):
    """The session's role does not permit the requested operation.

    Section 9: "A dedicated role-based access-control system segregates
    accesses and roles" — employees query; only the operations role reads
    the monitoring dashboard.
    """


#: Roles known to the access-control layer.
ROLE_EMPLOYEE = "employee"
ROLE_OPS = "ops"


@dataclass(frozen=True)
class QueryRecord:
    """One served query, as :meth:`BackendService.serve` returns it — the
    full answer, ranking, provenance and trace are the caller's to keep or
    drop; the backend stores a :class:`ServedSummary`.

    ``pressure`` / ``utilization`` are the admission and autoscaler
    readings at serve time, taken only on incident-enabled deployments
    (``diagnose`` reports them); None otherwise.
    """

    query_id: str
    user_id: str
    question: str
    answer: UniAskAnswer
    served_at: float
    trace: Trace | None = None
    pressure: float | None = None
    utilization: float | None = None


@dataclass(slots=True)
class ServedSummary:
    """What the backend keeps of a served request: the fields ``feedback``,
    ``ops("explain", query_id=…)`` and ``ops("diagnose", …)`` read — no
    answer, no ranking, no span tree.  ``stages`` is the request's
    ``trace.stage_durations()`` (empty when untraced).  Slotted and not
    frozen: building one is a plain constructor call on the cache-hit path.
    """

    query_id: str
    user_id: str
    served_at: float
    outcome: str
    route: str
    response_time: float
    degrade_level: int
    partial_results: bool
    cache_hit: str
    work: dict[str, int] | None
    explain_report: ExplainReport | None
    stages: dict[str, float]
    pressure: float | None
    utilization: float | None


#: Modeled seconds charged to any leaf span without a dedicated branch
#: below.  A tiny but non-zero floor: every real stage costs *something*,
#: and a silent 0.0 for a newly added span name would under-report that
#: stage on the dashboard forever.
DEFAULT_LEAF_COST = 0.0005

#: Modeled seconds of serving an untraced request from the answer cache:
#: a dictionary lookup (plus, for semantic hits, one embedding and a
#: similarity scan) instead of retrieval and a multi-second LLM call.
CACHE_HIT_LATENCY = 0.02


class StageLatencyModel:
    """Deterministic per-stage latency attribution for traced requests.

    When the backend serves a traced query, the request trace runs on a
    private :class:`~repro.pipeline.clock.SimulatedClock` and this model is
    installed as the trace's cost hook: as each leaf span closes, the clock
    advances by a modeled duration derived from the span's recorded
    input/output sizes.  Span durations therefore stay deterministic (no
    wall-clock reads) while still reflecting where simulated time goes —
    the LLM call dominates, exactly as in the deployed system.

    Clustered retrieval models a *parallel* fan-out: each ``shard_<i>``
    leaf costs only its dispatch overhead, and the gather barrier is
    charged once on ``scatter_wait`` as the maximum replica latency
    (carried on the span's ``wait`` attribute) — not the serial sum of the
    per-shard latencies.

    A leaf span whose name matches no modeled branch silently gets
    :data:`DEFAULT_LEAF_COST` — correct as a floor, but it usually means a
    new pipeline stage was added without a latency branch here.  The first
    time each unknown name falls through, the model emits a WARNING-level
    entry (``unknown_stage_cost``) on the audit log so the gap is visible
    exactly once instead of never.
    """

    def __init__(
        self,
        base_latency: float = 0.4,
        seconds_per_kilo_token: float = 1.1,
        audit: AuditLogger | None = None,
    ) -> None:
        self._base_latency = base_latency
        self._seconds_per_kilo_token = seconds_per_kilo_token
        self._audit = audit if audit is not None else NULL_AUDIT
        self._warned_stages: set[str] = set()

    def __call__(self, span: Span) -> float:
        """Modeled seconds spent in *span* (0.0 for aggregate spans)."""
        attrs = span.attributes
        name = span.name
        if name == spans.STAGE_CONTENT_FILTER:
            return 0.002
        if name == spans.STAGE_EMBED_QUERY:
            return 0.004
        if name == spans.STAGE_FULLTEXT:
            return 0.010 + 0.0001 * int(attrs.get("results", 0))
        if name.startswith(spans.VECTOR_STAGE_PREFIX):
            return 0.006 + 0.0002 * int(attrs.get("results", 0))
        if name == spans.STAGE_FUSION:
            return 0.001
        if name == spans.STAGE_RERANK:
            return 0.002 + 0.0005 * int(attrs.get("candidates", 0))
        if name == spans.STAGE_SUBQUERY:
            return DEFAULT_LEAF_COST
        if name == spans.STAGE_PROMPT_BUILD:
            return 0.0005
        if name == spans.STAGE_LLM:
            tokens = int(attrs.get("prompt_tokens", 0)) + int(attrs.get("completion_tokens", 0))
            return self._base_latency + self._seconds_per_kilo_token * tokens / 1000.0
        if name.startswith(spans.GUARDRAIL_STAGE_PREFIX):
            return 0.001
        if name == spans.STAGE_CITATIONS:
            return 0.0005
        if name.startswith(spans.SHARD_STAGE_PREFIX):
            return 0.0005  # dispatch only; shards are queried in parallel
        if name == spans.STAGE_SCATTER_WAIT:
            return 0.0005 + float(attrs.get("wait", 0.0))
        if name == spans.STAGE_CACHE_LOOKUP:
            # A map probe plus, at worst, one query embedding and a
            # similarity scan over the resident entries.
            return 0.002 + 0.000002 * int(attrs.get("entries", 0))
        if name == spans.STAGE_CACHE_STORE:
            return 0.0005
        if name == spans.STAGE_AGENT_ROUTE:
            return 0.001  # a handful of regex probes over the question
        if name == spans.STAGE_AGENT_REWRITE:
            return 0.0005
        if name == spans.STAGE_STRUCTURED_PLAN:
            return 0.001
        if name == spans.STAGE_STRUCTURED_EXEC:
            return 0.0005 + 0.0001 * int(attrs.get("rows", 0))
        # Aggregate spans cost nothing themselves; any other *leaf* span is
        # work and gets the default floor.
        if span.is_leaf:
            if name not in self._warned_stages:
                self._warned_stages.add(name)
                self._audit.warning(
                    "unknown_stage_cost",
                    stage=name,
                    modeled_seconds=DEFAULT_LEAF_COST,
                    hint="add a latency branch to StageLatencyModel",
                )
            return DEFAULT_LEAF_COST
        return 0.0


class BackendService:
    """The REST layer of UniAsk, in process.

    Args:
        telemetry: the deployment's telemetry plane (registry + trace
            sampler + audit log).  Defaults to the engine's own telemetry
            when the engine carries an enabled one (the factory wires it
            that way), else a fresh default-config :class:`Telemetry` on
            the service clock.
        coalescing: enables single-flight request coalescing (the
            factory turns it on with the cache).  While it is on, ``serve``
            models a **concurrent** server: a request occupies the flight
            window ``[arrival, arrival + response_time)`` without
            advancing the shared clock (the caller drives time, as the
            load generators do), and identical questions arriving inside
            the window share the leader's answer instead of re-running
            the pipeline.  With coalescing off the service keeps its
            original serial semantics: each query advances the shared
            clock by its response time.
        record_capacity: how many served requests stay addressable by
            ``feedback`` / ``explain`` / ``diagnose`` (LRU, no TTL).  What is
            kept per request is a :class:`ServedSummary`: ≈ 0.3 KB, 0.7–0.9 KB
            traced and profiled (plus the explain report of a request that
            asked for one) — ≈ 30–90 MB at the default.
        profiling: enables the continuous profiler and deterministic work
            accounting: every served request runs traced with a
            :class:`~repro.obs.work.WorkCounters`, finished traces fold
            into :attr:`profiler` (the ``profile`` ops route), the
            answer's work counts land in the audit log and the
            ``uniask_work_units_total`` counter.  Off by default — the
            disabled service serves byte-identical output.
        capacity: enables saturation telemetry: per-backend and
            per-replica concurrency tracking on :attr:`capacity` (a
            :class:`~repro.obs.capacity.CapacityMonitor`) plus the
            ``uniask_saturation_*`` gauges.  Off by default.
        admission: an
            :class:`~repro.autoscale.admission.AdmissionController`;
            when set, every :meth:`serve` call is admitted through the
            staged shedding ladder — degraded requests run the engine at
            the granted level, rejected ones raise the typed
            :class:`~repro.core.errors.AdmissionError`.  The default
            None serves every request at full quality, byte-identical to
            the pre-admission service.
        autoscaler: an :class:`~repro.autoscale.autoscaler.Autoscaler`;
            when set, every served request feeds its saturation loop and
            the control interval is evaluated on the service clock.  Off
            (None) by default.
        incidents: an :class:`~repro.obs.incident.IncidentManager`; when
            set, every served request feeds the per-route diagnosis
            baselines, the page-severity alert check runs on the service
            clock, and a firing page freezes a capture bundle assembled
            by this service (dashboard, saturation, profile window,
            slowest retained traces).  Off (None) by default — the
            disabled service serves byte-identical output.
    """

    #: route name → :class:`~repro.service.ops.OpsRoute`, built from the
    #: ``@ops_route`` decorations of the handler methods below (see the
    #: module-level ``collect_ops_routes`` call after the class body).
    #: All authorization for operational endpoints happens in :meth:`ops`,
    #: driven by this table — exactly one check, no per-endpoint copies.
    #: ``healthz``/``readyz`` are unauthenticated by design: liveness and
    #: readiness are probed by load balancers, which hold no session.
    OPS_ROUTES: dict[str, OpsRoute] = {}

    def __init__(
        self,
        engine: UniAskEngine,
        clock: SimulatedClock,
        metrics: MetricsCollector | None = None,
        base_latency: float = 0.4,
        seconds_per_kilo_token: float = 1.1,
        latency_jitter: float = 0.15,
        seed: int = 11,
        tracing: bool = False,
        telemetry: Telemetry | None = None,
        coalescing: bool = False,
        quality_monitor=None,
        session_capacity: int = 4096,
        session_ttl_seconds: float | None = 86400.0,
        record_capacity: int = 100_000,
        profiling: bool = False,
        capacity: bool = False,
        admission=None,
        autoscaler=None,
        incidents=None,
    ) -> None:
        self._engine = engine
        self._clock = clock
        if telemetry is None:
            telemetry = engine.telemetry if engine.telemetry.enabled else Telemetry(clock=clock)
        self.telemetry = telemetry
        self.metrics = metrics or MetricsCollector(registry=telemetry.registry)
        self.feedback_store = FeedbackStore()
        # Per-session state is bounded on the service clock (the answer
        # cache's TTL + LRU eviction idiom): long-running deployments no
        # longer accumulate every token and query record ever issued.  An
        # idle session expires *session_ttl_seconds* after its last
        # authenticated call; query records are LRU-only (feedback may
        # arrive arbitrarily late, so they never expire by age).
        self._sessions: TtlLruStore[str, tuple[str, str]] = TtlLruStore(
            session_capacity, session_ttl_seconds, clock=clock
        )
        self._records: TtlLruStore[str, ServedSummary] = TtlLruStore(
            record_capacity, None, clock=clock
        )
        self._base_latency = base_latency
        self._seconds_per_kilo_token = seconds_per_kilo_token
        self._latency_jitter = latency_jitter
        self._rng = random.Random(seed)
        # Separate stream for session tokens so that issuing a login never
        # shifts the latency-jitter draw sequence of served queries.
        self._token_rng = random.Random(seed ^ 0xA5A5_5A5A)
        self._query_counter = 0
        self._tracing = tracing
        self._stage_model = StageLatencyModel(
            base_latency, seconds_per_kilo_token, audit=telemetry.audit
        )
        self._quality_monitor = quality_monitor
        self.single_flight: SingleFlight | None = None
        self._m_coalesced = None
        if coalescing:
            self.single_flight = SingleFlight()
            self._m_coalesced = telemetry.registry.counter(
                "uniask_coalesced_waits_total",
                "Requests that joined an identical in-flight request.",
            )
        # Profiling and saturation telemetry follow the coalescing idiom:
        # their instruments exist only when the feature is on, so a default
        # deployment's metrics exposition stays byte-identical.
        self._profiling = profiling
        self.profiler: ContinuousProfiler | None = None
        self._m_work = None
        if profiling:
            self.profiler = ContinuousProfiler()
            self._m_work = telemetry.registry.counter(
                "uniask_work_units_total",
                "Deterministic work units booked by served requests, by kind.",
                ("kind",),
            )
        self.capacity: CapacityMonitor | None = (
            CapacityMonitor(registry=telemetry.registry) if capacity else None
        )
        self.admission = admission
        self.autoscaler = autoscaler
        self.incidents = incidents
        if incidents is not None:
            # The manager lives below the service layer; it freezes this
            # service's surfaces through the attached callback instead of
            # importing them.
            incidents.attach(self._incident_capture)

    # -- endpoints ------------------------------------------------------------

    def login(self, user_id: str, role: str = ROLE_EMPLOYEE) -> str:
        """Authenticate *user_id* with *role*; returns a session token.

        Tokens are 128-bit random hex, never derived from the user id or
        the session count: a guessable token (``session-<user>-<n>``)
        would let anyone who knows a colleague's id hijack their session.
        The draw comes from a dedicated seeded stream, so simulations stay
        reproducible without weakening the token space.
        """
        if role not in (ROLE_EMPLOYEE, ROLE_OPS):
            raise ValueError(f"unknown role {role!r}")
        token = f"session-{self._token_rng.getrandbits(128):032x}"
        self._sessions[token] = (user_id, role)
        return token

    def ops(self, route: str, token: str = "", **params):
        """Dispatch one operational endpoint through the route table.

        The single authorization check of the ops surface lives here:
        routes flagged as privileged require an ops-role session, probe
        routes run unauthenticated.  Unknown routes raise ``KeyError``.
        """
        try:
            entry = self.OPS_ROUTES[route]
        except KeyError:
            raise KeyError(f"unknown ops route {route!r}") from None
        if entry.privileged:
            self._authorize(token, ROLE_OPS)
        return getattr(self, entry.handler)(**params)

    def serve(self, token: str, request: AskRequest | str) -> QueryRecord:
        """Serve one :class:`~repro.api.types.AskRequest` for a session.

        The canonical query endpoint: a bare string is promoted to a
        default-options request.  Tracing runs when the service was built
        with ``tracing=True`` **or** the request asks via
        ``options.trace``; either way the request executes inside a traced
        :class:`~repro.obs.trace.RequestContext` on a private simulated
        clock — the response time is the traced per-stage total
        (jittered), the trace rides on the stored :class:`QueryRecord`,
        and the per-stage durations feed the dashboard's latency series.

        With coalescing active (see *coalescing*), a request identical
        to one still in flight joins it: the pipeline is not re-run, the
        shared answer is marked ``cache_hit="coalesced"``, and the joiner
        is charged only the remaining wait of the leader's flight window.
        """
        if isinstance(request, str):
            request = AskRequest(question=request)
        user_id = self._authenticate(token)
        self._query_counter += 1
        query_id = f"q-{self._query_counter:07d}"
        question = request.question
        options = request.options
        if self._engine.orchestrator is not None and not options.session_id:
            # Agents-enabled deployments thread the session token through
            # as the conversation id, so follow-up turns resolve against
            # the caller's own session memory.  Left untouched when agents
            # are off: the request object stays byte-identical.
            options = replace(options, session_id=token)
            request = replace(request, options=options)

        coalescing = self.single_flight is not None
        arrival = self._clock.now()

        degrade_level = 0
        if self.admission is not None:
            decision = self.admission.admit(
                options.priority, deadline_ms=options.deadline_ms
            )
            if decision.rejected:
                self.telemetry.audit.warning(
                    "admission_reject",
                    request_id=query_id,
                    user=user_id,
                    priority=decision.priority,
                    pressure=decision.pressure,
                    reason=decision.reason,
                    retry_after=decision.retry_after_seconds,
                )
                decision.raise_if_rejected()
            degrade_level = decision.level

        profiled = self._profiling or options.profile
        flight_key = None
        # Explain requests never coalesce: their answers carry a provenance
        # report that must not be shared with plain joiners, and joining a
        # plain leader would return an answer without one.  Degraded
        # requests never coalesce either — a degraded answer must not be
        # shared with full-service joiners (nor vice versa).
        if (
            coalescing
            and options.cache == CACHE_DEFAULT
            and not options.explain
            and degrade_level == 0
        ):
            flight_key = (question, filters_key(options.filters))
            flight = self.single_flight.join(flight_key, arrival)
            if flight is not None:
                return self._coalesced_record(
                    query_id, user_id, question, flight, arrival, profiled
                )

        trace: Trace | None = None
        ctx = None  # the engine then builds the request's context from the options alone
        if self._tracing or options.trace or profiled:
            # Profiling implies a trace: the profiler aggregates span trees
            # and the work counters surface as span attributes.
            trace = Trace(clock=SimulatedClock(start=arrival), cost=self._stage_model)
            ctx = RequestContext(
                trace=trace, request_id=query_id, work=WorkCounters() if profiled else None
            )
        response = self._engine.answer(request, ctx=ctx, degrade_level=degrade_level)
        answer = response.answer
        if trace is not None:
            response_time = trace.total_duration * self._jitter()
        elif answer.cache_hit:
            # The cached answer still carries the full context and raw
            # answer of its original computation; charging the token
            # latency model would bill the skipped LLM call.
            response_time = CACHE_HIT_LATENCY * self._jitter()
        else:
            response_time = self._model_response_time(question, answer)

        if coalescing:
            # Concurrent-server semantics: the request occupies the flight
            # window [arrival, arrival + response_time) and the caller
            # drives the shared clock between arrivals (as the load
            # generators do) — concurrent identical requests can overlap.
            served_at = arrival + response_time
        else:
            self._clock.advance(response_time)
            served_at = self._clock.now()
        answer.response_time = response_time
        if flight_key is not None and not answer.cache_hit:
            self.single_flight.register(flight_key, query_id, arrival, served_at, answer)

        if self.capacity is not None:
            self.capacity.observe("backend", arrival, response_time)
            if response.scatter is not None:
                for probe in response.scatter.probes:
                    self.capacity.observe(
                        probe.resource, arrival, probe.latency, failed=not probe.ok
                    )
        if self.admission is not None:
            self.admission.observe(arrival, response_time, level=degrade_level)
        if self.autoscaler is not None:
            self.autoscaler.note_request(arrival, response_time)
            self.autoscaler.maybe_evaluate(self._clock.now())
        record = QueryRecord(
            query_id=query_id,
            user_id=user_id,
            question=question,
            answer=answer,
            served_at=served_at,
            trace=trace,
            **self._incident_readings(),
        )
        self._finalize_record(record, response.scatter)
        return record

    def _coalesced_record(
        self, query_id: str, user_id: str, question: str, flight, arrival: float, profiled: bool
    ) -> QueryRecord:
        """Share an in-flight identical request's answer with a joiner.

        The joiner never touches the engine: its envelope is its own, over
        the leader's content, marked ``coalesced``, and its response time
        is the remaining wait until the leader's flight completes.  Only
        full-service, non-explain requests fly, so the leader's envelope
        has no degrade level or explain report to pass on.
        """
        leader = flight.answer
        response_time = flight.completes_at - arrival
        answer = UniAskAnswer(
            leader.content,
            question,
            leader.route,
            HIT_COALESCED,
            partial_results=leader.partial_results,
            # A joiner does no pipeline work of its own: its tally is the
            # single-flight join (None unless the joiner profiles).
            work={WORK_COALESCED_JOINS: 1} if profiled else None,
            response_time=response_time,
        )
        if self.capacity is not None:
            self.capacity.observe("backend", arrival, response_time)
        record = QueryRecord(
            query_id=query_id,
            user_id=user_id,
            question=question,
            answer=answer,
            served_at=flight.completes_at,
            trace=None,
            **self._incident_readings(),
        )
        if self._m_coalesced is not None:
            self._m_coalesced.inc()
        self._finalize_record(record, None, extra_audit={"coalesced_with": flight.request_id})
        return record

    def _finalize_record(
        self, record: QueryRecord, scatter, extra_audit: dict | None = None
    ) -> None:
        """Store *record*'s summary and write the request to monitoring,
        metrics, audit and the incident loop."""
        answer = record.answer
        trace = record.trace
        sampled = False
        stages = trace.stage_durations() if trace is not None else {}
        summary = self._records[record.query_id] = ServedSummary(
            record.query_id, record.user_id, record.served_at,
            answer.outcome, answer.route, answer.response_time,
            answer.degrade_level, answer.partial_results, answer.cache_hit,
            answer.work, answer.explain_report, stages,
            record.pressure, record.utilization,
        )
        if trace is not None:
            sampled = self.telemetry.sampler.offer(
                record.query_id, trace, trace.total_duration
            )
            if self.profiler is not None:
                # The profiler piggybacks on traces the request produced
                # anyway; retention windows roll on the service clock.
                self.profiler.record(trace, now=record.served_at)
        if self._m_work is not None and answer.work:
            for kind, units in answer.work.items():
                self._m_work.labels(kind).inc(units)
        self.metrics.record_query(
            timestamp=record.served_at,
            user_id=record.user_id,
            outcome=answer.outcome,
            response_time=answer.response_time,
            stages=stages,
            partial=answer.partial_results,
            trace_id=record.query_id if sampled else "",
            cache_hit=answer.cache_hit,
        )
        if self._quality_monitor is not None:
            self._quality_monitor.observe_answer(answer)
        probe_log: list[dict] = []
        if scatter is not None:
            for probe in scatter.probes:
                self.metrics.record_shard_probe(
                    shard_id=probe.shard_id,
                    replica_id=probe.replica_id,
                    latency=probe.latency,
                    ok=probe.ok,
                    hedged=probe.hedged,
                )
                probe_log.append(probe.audit_row())
        report = answer.guardrail_report
        audit_fields = dict(
            request_id=record.query_id,
            user=record.user_id,
            outcome=answer.outcome,
            response_time=answer.response_time,
            partial=answer.partial_results,
            sampled=sampled,
            stages=stages,
            shard_probes=probe_log,
            guardrails=[
                {"guardrail": verdict.guardrail, "passed": verdict.passed}
                for verdict in (report.verdicts if report is not None else ())
            ],
        )
        # Only annotate reuse when it happened: a cache-off deployment's
        # audit lines must match the pre-cache format exactly.
        if answer.cache_hit:
            audit_fields["cache"] = answer.cache_hit
        # Same contract for routing: agents-off audit lines never carry the
        # field, so they match the pre-agents format byte for byte.
        if answer.route:
            audit_fields["route"] = answer.route
        # And for profiling: the work block appears only when the request
        # actually carried counters.
        if answer.work:
            audit_fields["work"] = answer.work
        # Shed requests record how far down the ladder they landed; full
        # service (the only level when admission is off) never carries it.
        if answer.degrade_level:
            audit_fields["degrade_level"] = answer.degrade_level
        # Errored spans surface with the exception type the stage raised;
        # clean traces never carry the field.
        if trace is not None:
            span_errors = [
                {
                    "stage": span.name,
                    "error_type": str(span.attributes.get("error_type", "")),
                }
                for span in trace.spans
                if span.status != "ok"
            ]
            if span_errors:
                audit_fields["span_errors"] = span_errors
        if extra_audit:
            audit_fields.update(extra_audit)
        self.telemetry.audit.info("request", **audit_fields)
        if self.incidents is not None:
            self._incident_observe(summary)

    # -- incident forensics ----------------------------------------------------

    def _incident_readings(self) -> dict:
        """The serve-time readings a :class:`QueryRecord` carries for
        ``diagnose`` — empty unless incidents are on."""
        if self.incidents is None:
            return {}
        return {
            "pressure": self.admission.pressure() if self.admission is not None else None,
            "utilization": self.autoscaler.utilization if self.autoscaler is not None else None,
        }

    def _incident_observe(self, summary: ServedSummary) -> None:
        """Feed one served request into the incident loop.

        Baselines first (so a page's diagnosis sees the request that
        tripped it), then the page check — rate-limited by the manager's
        own ``CHECK_INTERVAL``, so the alert evaluation cost stays off
        the per-request path.
        """
        self.incidents.observe_request(summary)
        now = self._clock.now()
        if self.incidents.due(now):
            # The incident module's own compressed windows: the workbook
            # defaults are hour-scale and could never page inside a
            # compressed chaos day.
            self.incidents.check(now, self._alerts(now, PAGE_BURN_WINDOWS))

    def _alerts(self, now: float, windows=DEFAULT_BURN_WINDOWS):
        """Every service alert: SLO burn rates over *windows*, the quality
        monitor's alerts and the threshold rules.

        Events older than the longest window cannot move any burn rate, so
        only that window of the collector's SLO tail is read.
        """
        horizon = now - max(window.long_seconds for window in windows)
        events = self.metrics.events_since(horizon)
        alerts = evaluate_slo_alerts(events, now=now, windows=windows)
        if self._quality_monitor is not None:
            alerts.extend(self._quality_monitor.alerts())
        alerts.extend(evaluate_alerts(self.metrics.snapshot()))
        return alerts

    def _incident_capture(self, now: float) -> dict:
        """Freeze the service surfaces an operator would want at page time."""
        from repro.service.monitoring import format_dashboard

        bundle: dict = {
            "captured_at": now,
            "dashboard": format_dashboard(self.metrics.snapshot()),
        }
        if self.capacity is not None:
            bundle["saturation"] = [s.to_dict() for s in self.capacity.snapshot()]
        if self.profiler is not None:
            bundle["profile_top"] = self.profiler.format_top(limit=10)
        sampler = self.telemetry.sampler
        slow = sorted(
            (
                (trace.total_duration, trace_id)
                for trace_id in sampler.retained_ids
                for trace in (sampler.get(trace_id),)
                if trace is not None
            ),
            reverse=True,
        )[:5]
        bundle["slow_traces"] = [
            {"trace_id": trace_id, "duration": round(duration, 4)}
            for duration, trace_id in slow
        ]
        if self.admission is not None:
            bundle["admission"] = self.admission.status()
        if self.autoscaler is not None:
            bundle["autoscale"] = self.autoscaler.status()
        return bundle

    def feedback(self, token: str, feedback: GranularFeedback) -> None:
        """Store one feedback form for a previously served query."""
        user_id = self._authenticate(token)
        self._stored(feedback.query_id)
        self.feedback_store.add(feedback)
        self.metrics.record_feedback()
        self.telemetry.audit.info(
            "feedback", request_id=feedback.query_id, user=user_id
        )

    # -- accessors ----------------------------------------------------------------

    @property
    def served_queries(self) -> int:
        """Number of queries served so far."""
        return self._query_counter

    # -- ops handlers (dispatched through the route table) --------------------

    @ops_route("dashboard", privileged=True, description="Monitoring dashboard snapshot (latency series, outcomes, saturation).")
    def _ops_dashboard(self):
        snapshot = self.metrics.snapshot()
        if self.capacity is not None:
            snapshot = replace(snapshot, saturation=self.capacity.snapshot())
        return snapshot

    @ops_route("cluster_status", privileged=True, description="Shard sizes and replica health of a clustered deployment.")
    def _ops_cluster_status(self):
        """A :class:`~repro.cluster.router.ClusterStatus`, or None when the
        deployment serves from a single index."""
        return self._engine.searcher.status()

    @ops_route("metrics", privileged=True, description="Prometheus text exposition of every registered instrument.")
    def _ops_metrics(self) -> str:
        return self.telemetry.render_metrics()

    @ops_route("slo", privileged=True, description="Fired alerts: SLO burn rates, quality drift, threshold rules.")
    def _ops_slo(self):
        return self._alerts(self._clock.now())

    @ops_route("explain", privileged=True, description="Score provenance of a stored or fresh query.")
    def _ops_explain(self, query_id: str = "", question: str = ""):
        """Score provenance for one query — operations role only.

        With *query_id*, returns the stored record's explain report (None
        when the query was served without ``explain``).  With *question*,
        runs a fresh cache-bypassed explain request through the engine and
        returns its report — the "why did this rank here?" debugging loop
        without touching any user session.
        """
        if query_id:
            return self._stored(query_id).explain_report
        if question:
            request = AskRequest(
                question=question,
                options=AskOptions(explain=True, cache=CACHE_BYPASS),
            )
            return self._engine.answer(request).answer.explain_report
        raise ValueError("explain route needs a query_id or a question")

    @ops_route("quality", privileged=True, description="Current drift-detector verdicts of the quality monitor.")
    def _ops_quality(self) -> dict:
        """Current drift-detector verdicts — operations role only."""
        if self._quality_monitor is None:
            return {"enabled": False, "verdicts": []}
        return {
            "enabled": True,
            "verdicts": [
                {
                    "signal": verdict.signal,
                    "drifted": verdict.drifted,
                    "statistic": verdict.statistic,
                    "p_value": verdict.p_value,
                    "psi": verdict.psi,
                    "reference_n": verdict.reference_n,
                    "current_n": verdict.current_n,
                    "reason": verdict.reason,
                }
                for verdict in self._quality_monitor.check()
            ],
        }

    @ops_route("profile", privileged=True, description="Aggregated call-tree profile of served requests.")
    def _ops_profile(self, format: str = "top", limit: int = 25):
        """Aggregated call-tree profile — operations role only.

        Formats: ``top`` (text table of hottest stage paths), ``folded``
        (flamegraph-compatible folded stacks), ``speedscope`` (JSON
        document loadable in speedscope), ``json`` (raw node dump).
        """
        profiler = self.profiler
        if profiler is None:
            raise ValueError("profiling is disabled for this deployment")
        if format == "top":
            return profiler.format_top(limit=limit)
        if format == "folded":
            return profiler.folded_stacks()
        if format == "speedscope":
            return profiler.speedscope_json()
        if format == "json":
            return profiler.to_dict()
        raise ValueError(f"unknown profile format {format!r}")

    @ops_route("autoscale", privileged=True, description="Autoscaler status: replica counts, utilization, decision log.")
    def _ops_autoscale(self) -> dict:
        """Autoscaler status — operations role only."""
        if self.autoscaler is None:
            return {"enabled": False, "decisions": []}
        return self.autoscaler.status()

    @ops_route("admission", privileged=True, description="Admission-control status: pressure, shed counts, ladder.")
    def _ops_admission(self) -> dict:
        """Admission-control status — operations role only."""
        if self.admission is None:
            return {"enabled": False}
        return self.admission.status()

    @ops_route("incidents", privileged=True, description="Incident log: open/recovered incidents, capture bundles, timelines.")
    def _ops_incidents(self, incident_id: str = "", timeline: bool = False):
        """Incident forensics — operations role only.

        Without *incident_id*, the incident summary list.  With one, the
        incident's full capture bundle — or, with ``timeline=True``, its
        causally ordered operator timeline as text.
        """
        if self.incidents is None:
            return {"enabled": False, "incidents": []}
        if incident_id:
            incident = self.incidents.get(incident_id)
            if timeline:
                return self.incidents.format_timeline(incident)
            return incident.to_dict()
        return self.incidents.status()

    @ops_route("diagnose", privileged=True, description="Per-request root-cause diagnosis against rolling route baselines.")
    def _ops_diagnose(self, query_id: str):
        """Why was this request slow/shed/degraded — operations role only."""
        if self.incidents is None:
            raise ValueError("incident forensics is disabled for this deployment")
        return self.incidents.diagnose(self._stored(query_id))

    @ops_route("healthz", privileged=False, description="Liveness probe (unauthenticated).")
    def _ops_healthz(self) -> dict:
        return {
            "status": "ok",
            "time": self._clock.now(),
            "served_queries": self._query_counter,
        }

    @ops_route("readyz", privileged=False, description="Readiness probe (unauthenticated).")
    def _ops_readyz(self) -> dict:
        """Cluster-aware: a sharded deployment is ready only while every
        shard still has a live, serving replica — a degraded cluster keeps
        answering (partial results) but reports not-ready so the balancer
        can drain it."""
        status = self._engine.searcher.status()
        if status is None:
            return {"ready": True, "mode": "single-index", "shards": {}}
        shards = {f"shard-{shard.shard_id}": shard.available for shard in status.shards}
        return {"ready": not status.degraded, "mode": "cluster", "shards": shards}

    # -- internals ------------------------------------------------------------------

    def _stored(self, query_id: str) -> ServedSummary:
        """The stored summary of *query_id* (a read refreshes its recency)."""
        summary = self._records.get(query_id)
        if summary is None:
            raise KeyError(f"unknown or evicted query id {query_id!r}")
        return summary

    def _authenticate(self, token: str) -> str:
        session = self._sessions.get(token)
        if session is None:
            raise AuthenticationError("invalid session token")
        # Activity keeps a session alive: the idle TTL restarts on every
        # authenticated call, not just at login.
        self._sessions.touch(token)
        return session[0]

    def _authorize(self, token: str, required_role: str) -> str:
        session = self._sessions.get(token)
        if session is None:
            raise AuthenticationError("invalid session token")
        user_id, role = session
        if role != required_role:
            raise AuthorizationError(f"role {role!r} may not perform this operation")
        return user_id

    def _model_response_time(self, question: str, answer: UniAskAnswer) -> float:
        """Latency model: base + LLM time proportional to token volume."""
        context_tokens = sum(count_tokens(chunk.record.content) for chunk in answer.context)
        total_tokens = count_tokens(question) + context_tokens + count_tokens(answer.raw_answer)
        latency = self._base_latency + self._seconds_per_kilo_token * total_tokens / 1000.0
        return latency * self._jitter()

    def _jitter(self) -> float:
        """One multiplicative jitter draw (±latency_jitter, uniform)."""
        return 1.0 + self._latency_jitter * (2.0 * self._rng.random() - 1.0)


# Build the route table once the class body exists: every decorated
# handler above registers itself, in definition order.
BackendService.OPS_ROUTES = collect_ops_routes(BackendService)
