"""Online quality observability: canary probes with ground truth.

Section 6's deployment lesson is that the dangerous production failures are
*silent quality regressions*: an index refresh, a batch of near-duplicate
procedure docs, or jargon drift degrades retrieval and generation long
before users complain, and the paper's guardrail/groundedness evaluation
(Table 5) is offline-only.  This module closes the loop online with
**canary probes**: a deterministic suite of questions with ground truth
sampled from :mod:`repro.corpus.queries`, replayed through the live engine —
cache-bypassed, so they measure the pipeline and not the cache — and
recorded as recall@k / MRR / groundedness / guardrail-rate gauges in the
metrics registry.  The first run freezes the baseline; later runs alert on
degradation beyond per-metric tolerances.  With ``record_work=True`` each
probe is additionally served with profiling enabled and its deterministic
work counts recorded (per probe and in aggregate), so *work drift* — a
kernel suddenly scanning more postings, an index refresh doubling segments
touched — alerts through the same path as quality drift.

Alerts use the one :class:`~repro.obs.slo.Alert` shape, named
``quality_canary_<metric>``, the shape burn rates and threshold rules use.

Everything is pure python and deterministic: no scipy, no wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.slo import SEVERITY_CRITICAL, SEVERITY_WARNING, Alert

__all__ = [
    "CanaryProbe",
    "CanaryReport",
    "CanaryRunner",
    "CanarySuite",
    "format_canary_report",
]


# -- canary probes -----------------------------------------------------------


@dataclass(frozen=True)
class CanaryProbe:
    """One canary question with its ground truth.

    Attributes:
        probe_id: unique identifier within the suite.
        question: the probed question.
        relevant_docs: ground-truth document ids.
        kind: the :mod:`repro.corpus.queries` kind the probe was drawn from.
    """

    probe_id: str
    question: str
    relevant_docs: frozenset[str]
    kind: str


@dataclass(frozen=True)
class CanarySuite:
    """A deterministic suite of canary probes."""

    probes: tuple[CanaryProbe, ...]

    def __len__(self) -> int:
        return len(self.probes)

    @classmethod
    def from_kb(cls, kb, size: int = 24, seed: int = 1789) -> "CanarySuite":
        """Sample *size* probes with ground truth from the knowledge base.

        Three quarters are human-style questions, one quarter error-code
        lookups — the two query families with exact document-level ground
        truth.  The sample is fully determined by *seed*, so every canary
        run replays the identical suite.
        """
        from repro.corpus.queries import (
            HumanDatasetConfig,
            generate_error_code_queries,
            generate_human_dataset,
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
    """Replays the canary suite through the live engine.

    Probes run cache-bypassed (:data:`~repro.api.types.CACHE_BYPASS`), so
    they always measure the current pipeline — index, retrieval, LLM and
    guardrails — never a cached answer.  The first run freezes the
    baseline; each later run compares against it with the module's
    degradation tolerances and emits :class:`~repro.obs.slo.Alert` values
    (:attr:`last_alerts`).

    Args:
        engine: the live :class:`~repro.core.engine.UniAskEngine`.
        suite: the deterministic probe suite.
        judge: optional groundedness judge for accepted answers.
        registry: metrics registry for the canary gauges.
        baseline: explicit baseline report (otherwise the first run).
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
        baseline: CanaryReport | None = None,
        record_work: bool = False,
    ) -> None:
        self._engine = engine
        self._suite = suite
        self._judge = judge
        self.baseline = baseline
        self._record_work = record_work
        self.last_report: CanaryReport | None = None
        self.last_alerts: tuple[Alert, ...] = ()
        #: Per-probe work counts of the latest run (``{probe_id: {kind: units}}``).
        self.last_work: dict[str, dict[str, int]] = {}
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
            response = self._engine.answer(
                AskRequest(
                    probe.question,
                    AskOptions(
                        cache=CACHE_BYPASS,
                        request_id=probe.probe_id,
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
