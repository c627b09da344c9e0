"""Online quality-drift observability: canary probes and drift detectors.

Section 6's deployment lesson is that the dangerous production failures are
*silent quality regressions*: an index refresh, a batch of near-duplicate
procedure docs, or jargon drift degrades retrieval and generation long
before users complain, and the paper's guardrail/groundedness evaluation
(Table 5) is offline-only.  This module closes the loop online with two
complementary mechanisms:

**Streaming drift detectors** watch signals of the live query stream
against a frozen *reference window* captured when the deployment was known
healthy:

* the fused-score distribution of the top retrieval hit, compared with a
  from-scratch two-sample Kolmogorov–Smirnov test
  (:func:`ks_statistic` / :func:`ks_p_value`) and a Population Stability
  Index over reference-quantile bins (:func:`population_stability_index`);
* the guardrail pass rate and the citation-coverage rate of accepted
  answers, compared with a two-proportion z-test plus an absolute-delta
  floor (rate changes too small to matter never fire).

**Canary probes** replay a deterministic suite of questions with ground
truth sampled from :mod:`repro.corpus.queries` through the live engine —
cache-bypassed, so they measure the pipeline and not the cache — and
record recall@k / MRR / groundedness / guardrail-rate gauges into the
metrics registry.  The first run freezes the baseline; later runs alert on
relative degradation beyond per-metric tolerances.  With
``record_work=True`` each probe is additionally served with profiling
enabled and its deterministic work counts recorded (per probe and in
aggregate), so *work drift* — a kernel suddenly scanning more postings, an
index refresh doubling segments touched — pages through the same alert
surface as quality drift.

Both mechanisms return the one :class:`~repro.obs.slo.Alert` shape, named
``quality_drift_<signal>`` / ``quality_canary_<metric>``, so quality alerts
ride the same surface as burn rates (the ops ``slo`` route, the incident
page check, ``metrics`` CLI gating, CI) with no adapter in between.

Everything is pure python and deterministic: no scipy, no wall clock — the
canary schedule runs off the deployment's simulated clock.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.slo import SEVERITY_CRITICAL, SEVERITY_WARNING, Alert

__all__ = [
    "CanaryProbe",
    "CanaryReport",
    "CanaryRunner",
    "CanarySuite",
    "DriftVerdict",
    "QualityMonitor",
    "RateDriftDetector",
    "ScoreDriftDetector",
    "format_canary_report",
    "ks_p_value",
    "ks_statistic",
    "population_stability_index",
    "two_proportion_z",
]


# -- two-sample statistics (pure python, no scipy) ---------------------------


def ks_statistic(sample_a: list[float], sample_b: list[float]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic D = sup |F_a(x) - F_b(x)|.

    The supremum of the absolute difference between the two empirical
    CDFs, computed with the standard merge sweep in O((n+m) log(n+m)).
    """
    if not sample_a or not sample_b:
        raise ValueError("both samples must be non-empty")
    a = sorted(sample_a)
    b = sorted(sample_b)
    n, m = len(a), len(b)
    i = j = 0
    d = 0.0
    # Consume every occurrence of each distinct value from both samples
    # before measuring the CDF gap: measuring mid-tie would report a
    # spurious gap of 1/n for identical samples.
    while i < n and j < m:
        value = a[i] if a[i] <= b[j] else b[j]
        while i < n and a[i] == value:
            i += 1
        while j < m and b[j] == value:
            j += 1
        d = max(d, abs(i / n - j / m))
    # Once one sample is exhausted the gap only shrinks as the other
    # side's CDF climbs to 1, so the sweep has already seen the supremum.
    return d


def ks_p_value(d: float, n: int, m: int, terms: int = 100) -> float:
    """Asymptotic p-value of a two-sample KS statistic *d*.

    Uses the Kolmogorov distribution tail with the Stephens small-sample
    correction: with ``en = sqrt(n·m/(n+m))`` and
    ``λ = (en + 0.12 + 0.11/en)·d``,

        Q_KS(λ) = 2 Σ_{k≥1} (-1)^{k-1} exp(-2 k² λ²)

    truncated at *terms* (the series converges extremely fast for λ of
    practical size).  Clamped to [0, 1].
    """
    if n <= 0 or m <= 0:
        raise ValueError("sample sizes must be positive")
    if d <= 0.0:
        return 1.0
    en = math.sqrt(n * m / (n + m))
    lam = (en + 0.12 + 0.11 / en) * d
    total = 0.0
    for k in range(1, terms + 1):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


def population_stability_index(
    reference: list[float], current: list[float], bins: int = 10, epsilon: float = 1e-4
) -> float:
    """PSI of *current* against *reference* over reference-quantile bins.

    Bin edges are the quantiles of the reference sample, so each bin holds
    ~1/bins of the reference mass; empty proportions are smoothed with
    *epsilon* to keep the logarithm finite.  Rule of thumb: < 0.1 stable,
    0.1–0.25 moderate shift, > 0.25 major shift.
    """
    if not reference or not current:
        raise ValueError("both samples must be non-empty")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    ordered = sorted(reference)
    edges = []
    for k in range(1, bins):
        # Nearest-rank quantile of the reference sample.
        position = min(len(ordered) - 1, max(0, round(k * len(ordered) / bins) - 1))
        edges.append(ordered[position])

    def proportions(sample: list[float]) -> list[float]:
        counts = [0] * bins
        for value in sample:
            bucket = 0
            while bucket < len(edges) and value > edges[bucket]:
                bucket += 1
            counts[bucket] += 1
        return [count / len(sample) for count in counts]

    psi = 0.0
    for ref_p, cur_p in zip(proportions(list(reference)), proportions(list(current))):
        ref_p = max(ref_p, epsilon)
        cur_p = max(cur_p, epsilon)
        psi += (cur_p - ref_p) * math.log(cur_p / ref_p)
    return psi


def two_proportion_z(
    successes_a: int, total_a: int, successes_b: int, total_b: int
) -> float:
    """z-statistic of a two-proportion test (pooled standard error)."""
    if total_a <= 0 or total_b <= 0:
        raise ValueError("sample sizes must be positive")
    p_a = successes_a / total_a
    p_b = successes_b / total_b
    pooled = (successes_a + successes_b) / (total_a + total_b)
    variance = pooled * (1.0 - pooled) * (1.0 / total_a + 1.0 / total_b)
    if variance <= 0.0:
        return 0.0
    return (p_a - p_b) / math.sqrt(variance)


# -- streaming detectors -----------------------------------------------------


@dataclass(frozen=True)
class DriftVerdict:
    """Outcome of one drift check.

    Attributes:
        signal: the watched signal (``fused_score``, ``guardrail_pass``,
            ``citation_coverage``, ...).
        drifted: True when the detector fired.
        statistic: the primary test statistic (KS D, or the proportion
            delta for rate detectors).
        p_value: the KS p-value (None for rate detectors).
        psi: the PSI (None for rate detectors).
        reference_n / current_n: sample sizes compared.
        reason: human-readable description of the verdict.
    """

    signal: str
    drifted: bool
    statistic: float = 0.0
    p_value: float | None = None
    psi: float | None = None
    reference_n: int = 0
    current_n: int = 0
    reason: str = ""


#: :class:`ScoreDriftDetector` fires when the KS p-value drops below
#: ``SCORE_ALPHA`` **and** the PSI exceeds ``SCORE_PSI_THRESHOLD``.
SCORE_ALPHA = 0.01
SCORE_PSI_THRESHOLD = 0.25
#: :class:`RateDriftDetector` fires when the rate drops by at least
#: ``RATE_MIN_DELTA`` (absolute) **and** ``|z|`` reaches ``RATE_Z_THRESHOLD``.
RATE_MIN_DELTA = 0.10
RATE_Z_THRESHOLD = 3.0


class _DriftDetector:
    """The two windows every drift detector compares.

    The first *reference_size* observations freeze the reference window;
    subsequent observations stream through a rolling window of
    *window_size*.  Until both windows are full the detector reports
    ``warming_up`` and never fires.
    """

    def __init__(self, signal: str, reference_size: int = 200, window_size: int = 100) -> None:
        if reference_size < 2 or window_size < 2:
            raise ValueError("windows need at least 2 samples")
        self.signal = signal
        self._reference_size = reference_size
        self._reference: list = []
        self._window: deque = deque(maxlen=window_size)

    @property
    def reference_full(self) -> bool:
        return len(self._reference) >= self._reference_size

    def _observe(self, value) -> None:
        if not self.reference_full:
            self._reference.append(value)
        else:
            self._window.append(value)

    def _warming_up(self) -> DriftVerdict | None:
        """The ``warming_up`` verdict; None once both windows are full."""
        if self.reference_full and len(self._window) == self._window.maxlen:
            return None
        return DriftVerdict(
            signal=self.signal,
            drifted=False,
            reference_n=len(self._reference),
            current_n=len(self._window),
            reason="warming_up",
        )


class ScoreDriftDetector(_DriftDetector):
    """KS + PSI drift detection of one score distribution.

    :meth:`check` fires only when **both** tests agree — the KS p-value
    drops below ``SCORE_ALPHA`` **and** the PSI exceeds
    ``SCORE_PSI_THRESHOLD`` — which keeps single-statistic noise from
    paging anyone.
    """

    def observe(self, value: float) -> None:
        """Feed one observation."""
        self._observe(float(value))

    def check(self) -> DriftVerdict:
        """Compare the rolling window against the frozen reference."""
        warming_up = self._warming_up()
        if warming_up is not None:
            return warming_up
        window = list(self._window)
        d = ks_statistic(self._reference, window)
        p = ks_p_value(d, len(self._reference), len(window))
        psi = population_stability_index(self._reference, window)
        drifted = p < SCORE_ALPHA and psi > SCORE_PSI_THRESHOLD
        reason = (
            f"{self.signal}: KS D={d:.3f} (p={p:.4f}, alpha={SCORE_ALPHA:g}), "
            f"PSI={psi:.3f} (threshold {SCORE_PSI_THRESHOLD:g})"
        )
        return DriftVerdict(
            signal=self.signal,
            drifted=drifted,
            statistic=d,
            p_value=p,
            psi=psi,
            reference_n=len(self._reference),
            current_n=len(window),
            reason=reason,
        )


class RateDriftDetector(_DriftDetector):
    """Drop detection of a boolean rate (guardrail pass, citation coverage).

    Fires when the rolling-window rate falls below the frozen reference by
    at least ``RATE_MIN_DELTA`` (absolute) **and** the two-proportion
    z-statistic reaches ``RATE_Z_THRESHOLD`` — small samples with large
    swings and large samples with negligible swings both stay quiet.
    """

    def observe(self, good: bool) -> None:
        """Feed one boolean observation."""
        self._observe(bool(good))

    def check(self) -> DriftVerdict:
        """Compare the rolling rate against the frozen reference rate."""
        warming_up = self._warming_up()
        if warming_up is not None:
            return warming_up
        window = list(self._window)
        ref_hits = sum(self._reference)
        cur_hits = sum(window)
        ref_rate = ref_hits / len(self._reference)
        cur_rate = cur_hits / len(window)
        delta = cur_rate - ref_rate
        z = two_proportion_z(cur_hits, len(window), ref_hits, len(self._reference))
        drifted = delta <= -RATE_MIN_DELTA and abs(z) >= RATE_Z_THRESHOLD
        reason = (
            f"{self.signal}: rate {cur_rate:.1%} vs reference {ref_rate:.1%} "
            f"(delta {delta:+.1%}, z={z:.2f}, threshold |z|>={RATE_Z_THRESHOLD:g} "
            f"and |delta|>={RATE_MIN_DELTA:.0%})"
        )
        return DriftVerdict(
            signal=self.signal,
            drifted=drifted,
            statistic=delta,
            reference_n=len(self._reference),
            current_n=len(window),
            reason=reason,
        )


# -- the monitor -------------------------------------------------------------


class QualityMonitor:
    """Streams answer-quality signals and raises drift alerts.

    Feed every served answer through :meth:`observe_answer`; the monitor
    maintains three detectors — the top-hit fused-score distribution, the
    guardrail pass rate, and the citation-coverage rate of accepted
    answers — plus gauges in *registry* for the dashboard.  Canary runs
    hand their alerts over via :meth:`record_canary`, so :meth:`alerts`
    is the one surface the service layer has to poll.

    Cached answers are skipped: they replay an answer computed earlier, so
    they carry no fresh signal about the pipeline's current quality.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        reference_size: int = 200,
        window_size: int = 100,
    ) -> None:
        self.score = ScoreDriftDetector("fused_score", reference_size, window_size)
        self.guardrail = RateDriftDetector("guardrail_pass", reference_size, window_size)
        self.citations = RateDriftDetector("citation_coverage", reference_size, window_size)
        registry = registry or NULL_REGISTRY
        self._g_psi = registry.gauge(
            "uniask_quality_psi",
            "Population Stability Index of watched quality signals.",
            ("signal",),
        )
        self._g_ks_p = registry.gauge(
            "uniask_quality_ks_p_value",
            "Two-sample KS p-value of watched quality signals.",
            ("signal",),
        )
        self._g_rate = registry.gauge(
            "uniask_quality_rate",
            "Rolling-window rate of watched boolean quality signals.",
            ("signal",),
        )
        self._m_observed = registry.counter(
            "uniask_quality_observations_total",
            "Answers observed by the quality monitor, by signal.",
            ("signal",),
        )
        self._canary_alerts: tuple[Alert, ...] = ()

    def observe_answer(self, answer) -> None:
        """Feed one served :class:`~repro.core.answer.UniAskAnswer`."""
        if answer.cache_hit:
            return
        if answer.documents:
            self.score.observe(answer.documents[0].score)
            self._m_observed.labels("fused_score").inc()
        outcome = answer.outcome
        generated = outcome == "answered" or outcome.startswith("guardrail_")
        if generated:
            self.guardrail.observe(outcome == "answered")
            self._m_observed.labels("guardrail_pass").inc()
        if outcome == "answered":
            self.citations.observe(len(answer.citations) > 0)
            self._m_observed.labels("citation_coverage").inc()

    def record_canary(self, alerts: list[Alert]) -> None:
        """Store the latest canary run's alerts for :meth:`alerts`."""
        self._canary_alerts = tuple(alerts)

    def check(self) -> list[DriftVerdict]:
        """Run every detector; updates the dashboard gauges."""
        verdicts = []
        for detector in (self.score, self.guardrail, self.citations):
            verdict = detector.check()
            verdicts.append(verdict)
            if verdict.psi is not None:
                self._g_psi.labels(verdict.signal).set(verdict.psi)
            if verdict.p_value is not None:
                self._g_ks_p.labels(verdict.signal).set(verdict.p_value)
            if isinstance(detector, RateDriftDetector) and verdict.reason != "warming_up":
                self._g_rate.labels(verdict.signal).set(
                    sum(detector._window) / len(detector._window)
                )
        return verdicts

    def alerts(self) -> list[Alert]:
        """Fired drift alerts plus the latest canary run's alerts."""
        fired = [
            Alert(
                rule=f"quality_drift_{verdict.signal}",
                severity=SEVERITY_CRITICAL,
                message=verdict.reason,
            )
            for verdict in self.check()
            if verdict.drifted
        ]
        fired.extend(self._canary_alerts)
        return fired


# -- canary probes -----------------------------------------------------------


@dataclass(frozen=True)
class CanaryProbe:
    """One canary question with its ground truth.

    Attributes:
        probe_id: unique identifier within the suite.
        question: the probed question.
        relevant_docs: ground-truth document ids.
        kind: the :mod:`repro.corpus.queries` kind the probe was drawn from.
        route: the agent route the probe exercises ("" for plain probes —
            the defaults keep pre-agents suites byte-identical).
        setup_question: a first turn played into the same session before
            *question* (follow-up dialogue probes only).
    """

    probe_id: str
    question: str
    relevant_docs: frozenset[str]
    kind: str
    route: str = ""
    setup_question: str = ""


@dataclass(frozen=True)
class CanarySuite:
    """A deterministic suite of canary probes."""

    probes: tuple[CanaryProbe, ...]

    def __len__(self) -> int:
        return len(self.probes)

    @classmethod
    def from_kb(
        cls, kb, size: int = 24, seed: int = 1789, include_route_probes: bool = False
    ) -> "CanarySuite":
        """Sample *size* probes with ground truth from the knowledge base.

        Three quarters are human-style questions, one quarter error-code
        lookups — the two query families with exact document-level ground
        truth.  The sample is fully determined by *seed*, so every canary
        run replays the identical suite.

        With ``include_route_probes`` the suite appends one probe per
        non-trivial agent route — a multi-hop comparison, a structured
        error-code lookup, and a two-turn follow-up dialogue — so an
        agents-enabled deployment's canary also watches the orchestrated
        paths for silent regressions.
        """
        from repro.corpus.queries import (
            HumanDatasetConfig,
            generate_error_code_queries,
            generate_follow_up_dialogues,
            generate_human_dataset,
            generate_multi_hop_queries,
        )

        if size < 4:
            raise ValueError("a canary suite needs at least 4 probes")
        human_n = size - size // 4
        human = generate_human_dataset(
            kb, HumanDatasetConfig(num_questions=human_n, seed=seed)
        )
        codes = generate_error_code_queries(kb, count=size - human_n, seed=seed + 1)
        probes = [
            CanaryProbe(
                probe_id=f"canary-{index:03d}",
                question=query.text,
                relevant_docs=query.relevant_docs,
                kind=query.kind,
            )
            for index, query in enumerate(list(human) + list(codes))
            if query.relevant_docs
        ]
        if include_route_probes:
            from repro.agents.routes import (
                ROUTE_FOLLOW_UP,
                ROUTE_MULTI_HOP,
                ROUTE_STRUCTURED,
            )

            multi_hop = generate_multi_hop_queries(kb, count=1, seed=seed + 2)[0]
            probes.append(
                CanaryProbe(
                    probe_id="canary-route-multi-hop",
                    question=multi_hop.text,
                    relevant_docs=multi_hop.relevant_docs,
                    kind=multi_hop.kind,
                    route=ROUTE_MULTI_HOP,
                )
            )
            structured = generate_error_code_queries(kb, count=1, seed=seed + 3)[0]
            probes.append(
                CanaryProbe(
                    probe_id="canary-route-structured",
                    question=structured.text,
                    relevant_docs=structured.relevant_docs,
                    kind=structured.kind,
                    route=ROUTE_STRUCTURED,
                )
            )
            dialogue = generate_follow_up_dialogues(kb, count=1, seed=seed + 4)[0]
            probes.append(
                CanaryProbe(
                    probe_id="canary-route-follow-up",
                    question=dialogue.follow_up.text,
                    relevant_docs=dialogue.follow_up.relevant_docs,
                    kind=dialogue.follow_up.kind,
                    route=ROUTE_FOLLOW_UP,
                    setup_question=dialogue.setup.text,
                )
            )
        if not probes:
            raise ValueError("the sampled suite has no probes with ground truth")
        return cls(probes=tuple(probes))


@dataclass(frozen=True)
class CanaryReport:
    """Aggregated outcome of one canary run.

    Attributes:
        probes_run: probes replayed.
        recall_at_4 / mrr / hit_at_4: document-granularity retrieval
            quality against the probes' ground truth.
        answered_fraction: fraction of probes that produced an accepted
            answer.
        guardrail_fire_rate: fraction of generated answers a guardrail
            invalidated.
        citation_coverage: fraction of accepted answers with ≥ 1 resolved
            citation.
        groundedness: mean groundedness score of accepted answers (0.0
            when no judge was configured).
        partial_results: probes served by a degraded cluster.
        started_at: simulated clock reading when the run started.
        work: aggregate deterministic work counts (``{kind: units}``)
            booked by the probes, when the runner records work — the
            pipeline is deterministic, so any movement against the
            baseline is real drift (index growth, config change, a
            regressed kernel), never noise.  None when not recorded.
    """

    probes_run: int
    recall_at_4: float
    mrr: float
    hit_at_4: float
    answered_fraction: float
    guardrail_fire_rate: float
    citation_coverage: float
    groundedness: float
    partial_results: int
    started_at: float
    work: dict[str, int] | None = None

    def to_dict(self) -> dict:
        """JSON-ready representation (CI artifacts)."""
        payload = {
            "probes_run": self.probes_run,
            "recall_at_4": self.recall_at_4,
            "mrr": self.mrr,
            "hit_at_4": self.hit_at_4,
            "answered_fraction": self.answered_fraction,
            "guardrail_fire_rate": self.guardrail_fire_rate,
            "citation_coverage": self.citation_coverage,
            "groundedness": self.groundedness,
            "partial_results": self.partial_results,
            "started_at": self.started_at,
        }
        if self.work is not None:
            payload["work"] = dict(self.work)
        return payload


# Degradation tolerances of the canary alerting: each is the maximum
# tolerated *absolute drop* (or rise, for the guardrail fire rate) against
# the frozen baseline run.
MAX_RECALL_DROP = 0.15
MAX_MRR_DROP = 0.15
MAX_GUARDRAIL_RISE = 0.20
MAX_CITATION_DROP = 0.25
MAX_GROUNDEDNESS_DROP = 0.25
#: Maximum tolerated *relative* movement (either direction) of a work
#: counter against the baseline run.  The pipeline is deterministic, so
#: 0.0 flags any change at all.
MAX_WORK_DRIFT = 0.0


class CanaryRunner:
    """Replays the canary suite through the live engine on a schedule.

    Probes run cache-bypassed (:data:`~repro.api.types.CACHE_BYPASS`), so
    they always measure the current pipeline — index, retrieval, LLM and
    guardrails — never a cached answer.  The first run freezes the
    baseline; each later run compares against it with the module's
    degradation tolerances and emits :class:`~repro.obs.slo.Alert` values,
    optionally handing them to a :class:`QualityMonitor` so they surface on
    the service alert route.

    Args:
        engine: the live :class:`~repro.core.engine.UniAskEngine`.
        suite: the deterministic probe suite.
        judge: optional groundedness judge for accepted answers.
        registry: metrics registry for the canary gauges.
        interval: simulated seconds between scheduled runs
            (:meth:`maybe_run`).
        baseline: explicit baseline report (otherwise the first run).
        monitor: quality monitor receiving each run's alerts.
        record_work: serve each probe with profiling enabled and record
            its deterministic work counts — per probe in
            :attr:`last_work`, aggregated on the report — so work drift
            (a silent capacity regression) alerts like quality drift.
    """

    def __init__(
        self,
        engine,
        suite: CanarySuite,
        judge=None,
        registry: MetricsRegistry | None = None,
        interval: float = 300.0,
        baseline: CanaryReport | None = None,
        monitor: QualityMonitor | None = None,
        record_work: bool = False,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._engine = engine
        self._suite = suite
        self._judge = judge
        self._interval = interval
        self.baseline = baseline
        self._monitor = monitor
        self._record_work = record_work
        self.last_report: CanaryReport | None = None
        self.last_alerts: tuple[Alert, ...] = ()
        #: Per-probe work counts of the latest run (``{probe_id: {kind: units}}``).
        self.last_work: dict[str, dict[str, int]] = {}
        self._next_due = 0.0
        registry = registry or NULL_REGISTRY
        self._m_runs = registry.counter(
            "uniask_canary_runs_total", "Canary suite runs completed."
        )
        self._g_metric = registry.gauge(
            "uniask_canary_metric",
            "Latest canary run's quality metrics, by metric name.",
            ("metric",),
        )
        self._g_alerts = registry.gauge(
            "uniask_canary_alerts", "Quality alerts raised by the latest canary run."
        )
        self._g_work = registry.gauge(
            "uniask_canary_work_units",
            "Aggregate deterministic work units of the latest canary run, by kind.",
            ("kind",),
        )

    def due(self, now: float) -> bool:
        """True when a scheduled run is due at simulated time *now*."""
        return now >= self._next_due

    def maybe_run(self, now: float) -> CanaryReport | None:
        """Run the suite if the schedule says so (None when not due)."""
        if not self.due(now):
            return None
        self._next_due = now + self._interval
        return self.run_once(now)

    def run_once(self, now: float = 0.0) -> CanaryReport:
        """Replay every probe and aggregate one :class:`CanaryReport`."""
        from repro.api.types import CACHE_BYPASS, AskOptions, AskRequest
        from repro.search.results import dedupe_by_document

        recalls: list[float] = []
        mrrs: list[float] = []
        hits: list[float] = []
        groundedness_scores: list[float] = []
        answered = 0
        generated = 0
        fired = 0
        cited = 0
        partial = 0
        work_totals: dict[str, int] = {}
        work_per_probe: dict[str, dict[str, int]] = {}
        from repro.eval.metrics import hit_rate_at, recall_at, reciprocal_rank

        for probe in self._suite.probes:
            session_id = ""
            if probe.setup_question:
                # Dialogue probes play their setup turn into a dedicated
                # session first, so the probed follow-up has a turn to
                # resolve against (a no-op on agents-off deployments).
                session_id = f"canary-session-{probe.probe_id}"
                self._engine.answer(
                    AskRequest(
                        probe.setup_question,
                        AskOptions(
                            cache=CACHE_BYPASS,
                            request_id=f"{probe.probe_id}-setup",
                            session_id=session_id,
                        ),
                    )
                )
            response = self._engine.answer(
                AskRequest(
                    probe.question,
                    AskOptions(
                        cache=CACHE_BYPASS,
                        request_id=probe.probe_id,
                        session_id=session_id,
                        profile=self._record_work,
                    ),
                )
            )
            answer = response.answer
            if self._record_work and response.work is not None:
                work_per_probe[probe.probe_id] = dict(response.work)
                for kind, units in response.work.items():
                    work_totals[kind] = work_totals.get(kind, 0) + units
            ranked = [
                chunk.doc_id for chunk in dedupe_by_document(list(answer.documents))
            ]
            recalls.append(recall_at(ranked, probe.relevant_docs, 4))
            mrrs.append(reciprocal_rank(ranked, probe.relevant_docs))
            hits.append(hit_rate_at(ranked, probe.relevant_docs, 4))
            if answer.partial_results:
                partial += 1
            outcome = answer.outcome
            if outcome == "answered" or outcome.startswith("guardrail_"):
                generated += 1
                if outcome != "answered":
                    fired += 1
            if outcome == "answered":
                answered += 1
                if answer.citations:
                    cited += 1
                if self._judge is not None:
                    verdict = self._judge.judge(
                        answer.answer_text, list(answer.context)
                    )
                    groundedness_scores.append(verdict.score)

        count = len(self._suite.probes)
        report = CanaryReport(
            probes_run=count,
            recall_at_4=sum(recalls) / count,
            mrr=sum(mrrs) / count,
            hit_at_4=sum(hits) / count,
            answered_fraction=answered / count,
            guardrail_fire_rate=(fired / generated) if generated else 0.0,
            citation_coverage=(cited / answered) if answered else 0.0,
            groundedness=(
                sum(groundedness_scores) / len(groundedness_scores)
                if groundedness_scores
                else 0.0
            ),
            partial_results=partial,
            started_at=now,
            work=dict(sorted(work_totals.items())) if self._record_work else None,
        )
        self.last_report = report
        self.last_work = work_per_probe
        self._m_runs.inc()
        for metric, value in report.to_dict().items():
            if metric in ("started_at", "work"):
                continue
            self._g_metric.labels(metric).set(float(value))
        if report.work:
            for kind, units in report.work.items():
                self._g_work.labels(kind).set(float(units))
        if self.baseline is None:
            self.baseline = report
        alerts = self.evaluate(report)
        self.last_alerts = tuple(alerts)
        self._g_alerts.set(float(len(alerts)))
        if self._monitor is not None:
            self._monitor.record_canary(alerts)
        return report

    def evaluate(self, report: CanaryReport) -> list[Alert]:
        """Degradation alerts of *report* against the frozen baseline."""
        baseline = self.baseline
        if baseline is None or baseline is report:
            return []
        alerts: list[Alert] = []

        def drop(name: str, current: float, reference: float, tolerance: float) -> None:
            if reference - current > tolerance:
                alerts.append(
                    Alert(
                        rule=f"quality_canary_{name}",
                        severity=SEVERITY_CRITICAL,
                        message=(
                            f"canary {name} dropped to {current:.3f} from baseline "
                            f"{reference:.3f} (tolerance {tolerance:g})"
                        ),
                    )
                )

        drop("recall_at_4", report.recall_at_4, baseline.recall_at_4, MAX_RECALL_DROP)
        drop("mrr", report.mrr, baseline.mrr, MAX_MRR_DROP)
        drop(
            "citation_coverage",
            report.citation_coverage,
            baseline.citation_coverage,
            MAX_CITATION_DROP,
        )
        if self._judge is not None:
            drop(
                "groundedness",
                report.groundedness,
                baseline.groundedness,
                MAX_GROUNDEDNESS_DROP,
            )
        if report.work is not None and baseline.work is not None:
            for kind in sorted(set(baseline.work) | set(report.work)):
                reference = baseline.work.get(kind, 0)
                current = report.work.get(kind, 0)
                if current == reference:
                    continue
                if abs(current - reference) / max(abs(reference), 1) > MAX_WORK_DRIFT:
                    alerts.append(
                        Alert(
                            rule=f"quality_canary_work_{kind}",
                            severity=SEVERITY_WARNING,
                            message=(
                                f"canary work {kind} moved to {current} from "
                                f"baseline {reference} (tolerance "
                                f"{MAX_WORK_DRIFT:.0%} relative)"
                            ),
                        )
                    )
        if report.guardrail_fire_rate - baseline.guardrail_fire_rate > MAX_GUARDRAIL_RISE:
            alerts.append(
                Alert(
                    rule="quality_canary_guardrail_fire_rate",
                    severity=SEVERITY_CRITICAL,
                    message=(
                        f"canary guardrail fire rate rose to "
                        f"{report.guardrail_fire_rate:.1%} from baseline "
                        f"{baseline.guardrail_fire_rate:.1%} "
                        f"(tolerance {MAX_GUARDRAIL_RISE:.0%})"
                    ),
                )
            )
        return alerts


def format_canary_report(report: CanaryReport, alerts: list[Alert]) -> str:
    """Render one canary run as the ``canary`` CLI output."""
    lines = [
        f"canary run @t={report.started_at:g}s: {report.probes_run} probes",
        f"  recall@4           : {report.recall_at_4:.3f}",
        f"  MRR                : {report.mrr:.3f}",
        f"  hit@4              : {report.hit_at_4:.3f}",
        f"  answered           : {report.answered_fraction:.1%}",
        f"  guardrail fire rate: {report.guardrail_fire_rate:.1%}",
        f"  citation coverage  : {report.citation_coverage:.1%}",
        f"  groundedness       : {report.groundedness:.3f}",
        f"  partial results    : {report.partial_results}",
    ]
    if alerts:
        for alert in alerts:
            lines.append(f"  QUALITY ALERT [{alert.severity}] {alert.rule}: {alert.message}")
    else:
        lines.append("  quality: no degradation against baseline")
    return "\n".join(lines)
