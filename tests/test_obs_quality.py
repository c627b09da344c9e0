"""Online quality-drift observability: detectors, canaries, alert wiring.

The acceptance bar: an injected degradation (here: raising the simulated
LLM's off-context probability) must trip a quality alert within one
detection window, while the unperturbed seed corpus trips none.
"""

from __future__ import annotations

import pytest

from repro.api import AskRequest, create_engine
from repro.core.answer import AnswerContent, UniAskAnswer
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset
from repro.corpus.vocabulary import build_banking_lexicon
from repro.eval.groundedness import GroundednessJudge
from repro.obs.metrics import MetricsRegistry
from repro.obs.quality import (
    CanaryRunner,
    CanarySuite,
    QualityMonitor,
    RateDriftDetector,
    ScoreDriftDetector,
    ks_p_value,
    ks_statistic,
    population_stability_index,
    two_proportion_z,
)
from repro.obs.slo import Alert
from repro.search.results import RetrievedChunk
from repro.search.schema import ChunkRecord


@pytest.fixture(scope="module")
def quality_kb():
    return KbGenerator(KbGeneratorConfig(num_topics=14, error_families=2, seed=31)).generate()


@pytest.fixture(scope="module")
def quality_lexicon():
    return build_banking_lexicon()


def fresh_system(quality_kb, quality_lexicon):
    """A private deployment (tests mutate the LLM's failure knobs)."""
    return create_engine(quality_kb.store(), quality_lexicon, seed=31)


# -- the statistics, from scratch --------------------------------------------


class TestTwoSampleStatistics:
    def test_ks_statistic_bounds(self):
        same = [float(i) for i in range(50)]
        assert ks_statistic(same, list(same)) == 0.0
        low = [float(i) for i in range(50)]
        high = [float(i + 1000) for i in range(50)]
        assert ks_statistic(low, high) == 1.0

    def test_ks_statistic_known_value(self):
        # F_a steps to 1.0 by x=4 while F_b is still 0: D = max gap = 0.5
        # at the midpoint where half of b is below.
        a = [1.0, 2.0, 3.0, 4.0]
        b = [3.0, 4.0, 5.0, 6.0]
        assert ks_statistic(a, b) == pytest.approx(0.5)

    def test_ks_p_value_monotone_in_d(self):
        p_small = ks_p_value(0.05, 200, 100)
        p_large = ks_p_value(0.5, 200, 100)
        assert 0.0 <= p_large < p_small <= 1.0
        assert p_large < 0.001
        assert p_small > 0.5

    def test_psi_zero_for_identical_and_large_for_shifted(self):
        reference = [i / 100.0 for i in range(200)]
        assert population_stability_index(reference, list(reference)) == pytest.approx(
            0.0, abs=1e-6
        )
        shifted = [5.0 + i / 100.0 for i in range(200)]
        assert population_stability_index(reference, shifted) > 1.0

    def test_two_proportion_z_sign_and_magnitude(self):
        # Current rate collapsed vs reference: strongly negative z.
        z = two_proportion_z(20, 100, 180, 200)
        assert z < -3.0
        # No movement: z near zero.
        assert abs(two_proportion_z(90, 100, 180, 200)) < 0.5


class TestScoreDriftDetector:
    def feed(self, detector, values):
        for value in values:
            detector.observe(value)

    def test_warms_up_before_firing(self):
        detector = ScoreDriftDetector("s", reference_size=20, window_size=10)
        self.feed(detector, [1.0] * 25)
        verdict = detector.check()
        assert not verdict.drifted
        assert verdict.reason == "warming_up"

    def test_stable_distribution_stays_quiet(self):
        detector = ScoreDriftDetector("s", reference_size=40, window_size=20)
        stream = [(i % 17) / 17.0 for i in range(60)]
        self.feed(detector, stream)
        verdict = detector.check()
        assert not verdict.drifted
        assert verdict.p_value is not None and verdict.p_value > 0.01

    def test_shifted_distribution_fires_within_one_window(self):
        detector = ScoreDriftDetector("s", reference_size=40, window_size=20)
        self.feed(detector, [(i % 17) / 17.0 for i in range(40)])  # reference
        self.feed(detector, [5.0 + (i % 7) / 7.0 for i in range(20)])  # one window
        verdict = detector.check()
        assert verdict.drifted
        assert verdict.p_value < 0.01
        assert verdict.psi > 0.25


class TestRateDriftDetector:
    def feed(self, detector, values):
        for value in values:
            detector.observe(value)

    def test_drop_fires_but_rise_does_not(self):
        drop = RateDriftDetector("r", reference_size=40, window_size=20)
        self.feed(drop, [True] * 36 + [False] * 4)  # reference: 90% pass
        self.feed(drop, [False] * 16 + [True] * 4)  # window: 20% pass
        assert drop.check().drifted

        rise = RateDriftDetector("r", reference_size=40, window_size=20)
        self.feed(rise, [False] * 20 + [True] * 20)  # reference: 50%
        self.feed(rise, [True] * 20)  # window: 100% — an improvement
        assert not rise.check().drifted

    def test_small_moves_stay_quiet(self):
        detector = RateDriftDetector("r", reference_size=40, window_size=20)
        self.feed(detector, [True] * 36 + [False] * 4)  # 90%
        self.feed(detector, [True] * 17 + [False] * 3)  # 85% — within min_delta
        assert not detector.check().drifted


# -- the monitor --------------------------------------------------------------


def _answer(outcome: str, score: float = 1.0, cited: bool = True, cache_hit: str = "") -> UniAskAnswer:
    record = ChunkRecord(chunk_id="d#0", doc_id="d", title="t", content="c")
    citations = ()
    if cited and outcome == "answered":
        from repro.core.answer import Citation

        citations = (Citation(key="1", chunk_id="d#0", doc_id="d", title="t"),)
    content = AnswerContent(
        answer_text="a",
        raw_answer="a",
        outcome=outcome,
        citations=citations,
        documents=(RetrievedChunk(record=record, score=score),),
    )
    return UniAskAnswer(content, question="q", cache_hit=cache_hit)


class TestQualityMonitor:
    def test_cached_answers_carry_no_signal(self):
        monitor = QualityMonitor(reference_size=4, window_size=2)
        monitor.observe_answer(_answer("answered", cache_hit="exact"))
        assert monitor.score._reference == []

    def test_guardrail_collapse_raises_drift_alert(self):
        monitor = QualityMonitor(reference_size=40, window_size=20)
        for _ in range(40):
            monitor.observe_answer(_answer("answered", score=1.0))
        assert not monitor.alerts()
        for _ in range(20):
            monitor.observe_answer(_answer("guardrail_rouge", score=1.0))
        names = {alert.rule for alert in monitor.alerts()}
        assert "quality_drift_guardrail_pass" in names

    def test_gauges_land_in_the_registry(self):
        registry = MetricsRegistry()
        monitor = QualityMonitor(registry=registry, reference_size=4, window_size=2)
        for _ in range(6):
            monitor.observe_answer(_answer("answered"))
        monitor.check()
        exposition = registry.render()
        assert "uniask_quality_psi" in exposition
        assert "uniask_quality_observations_total" in exposition

    def test_alert_adaptation_to_service_shape(self):
        monitor = QualityMonitor(reference_size=4, window_size=2)
        canary = Alert(rule="quality_canary_mrr", severity="critical", message="m")
        monitor.record_canary([canary])
        # The monitor hands the service shape over itself: no adapter.
        assert monitor.alerts() == [canary]


# -- canaries -----------------------------------------------------------------


class TestCanarySuite:
    def test_deterministic_and_grounded(self, quality_kb):
        first = CanarySuite.from_kb(quality_kb, size=12, seed=99)
        second = CanarySuite.from_kb(quality_kb, size=12, seed=99)
        assert first == second
        assert len(first) > 0
        assert all(probe.relevant_docs for probe in first.probes)

    def test_too_small_suite_rejected(self, quality_kb):
        with pytest.raises(ValueError):
            CanarySuite.from_kb(quality_kb, size=2)


class TestCanaryRunner:
    @pytest.fixture(scope="class")
    def suite(self, quality_kb):
        return CanarySuite.from_kb(quality_kb, size=8, seed=17)

    def test_schedule_runs_on_interval(self, quality_kb, quality_lexicon, suite):
        system = fresh_system(quality_kb, quality_lexicon)
        runner = CanaryRunner(system.engine, suite, interval=300.0)
        assert runner.due(0.0)
        assert runner.maybe_run(0.0) is not None
        assert not runner.due(100.0)
        assert runner.maybe_run(100.0) is None
        assert runner.maybe_run(301.0) is not None

    def test_clean_corpus_trips_no_alert(self, quality_kb, quality_lexicon, suite):
        system = fresh_system(quality_kb, quality_lexicon)
        judge = GroundednessJudge(quality_lexicon)
        runner = CanaryRunner(
            system.engine, suite, judge=judge, registry=system.telemetry.registry
        )
        baseline = runner.run_once(now=0.0)
        assert baseline.recall_at_4 >= 0.3
        repeat = runner.run_once(now=300.0)
        assert runner.last_alerts == ()
        # Probes bypass the cacheless engine identically on both runs.
        assert repeat.recall_at_4 == baseline.recall_at_4

    def test_llm_degradation_trips_canary_within_one_run(
        self, quality_kb, quality_lexicon, suite
    ):
        system = fresh_system(quality_kb, quality_lexicon)
        monitor = QualityMonitor(reference_size=4, window_size=2)
        runner = CanaryRunner(
            system.engine,
            suite,
            judge=GroundednessJudge(quality_lexicon),
            monitor=monitor,
        )
        runner.run_once(now=0.0)  # freezes the healthy baseline
        system.llm._p_off_context = 0.97  # inject: answers drift off context
        runner.run_once(now=300.0)
        names = {alert.rule for alert in runner.last_alerts}
        assert names, "a degraded LLM must trip the canary"
        assert names <= {
            "quality_canary_recall_at_4",
            "quality_canary_mrr",
            "quality_canary_guardrail_fire_rate",
            "quality_canary_citation_coverage",
            "quality_canary_groundedness",
        }
        # The runner hands its alerts to the monitor, which feeds the
        # service alert surface.
        assert names <= {alert.rule for alert in monitor.alerts()}

    def test_canary_metrics_reach_the_registry(self, quality_kb, quality_lexicon, suite):
        system = fresh_system(quality_kb, quality_lexicon)
        runner = CanaryRunner(system.engine, suite, registry=system.telemetry.registry)
        runner.run_once(now=0.0)
        exposition = system.telemetry.registry.render()
        assert "uniask_canary_metric" in exposition
        assert "uniask_canary_runs_total" in exposition


# -- end-to-end drift on a live deployment ------------------------------------


class TestLiveDriftDetection:
    def test_injected_llm_degradation_fires_within_one_window(
        self, quality_kb, quality_lexicon
    ):
        system = fresh_system(quality_kb, quality_lexicon)
        monitor = QualityMonitor(reference_size=30, window_size=15)
        questions = [
            query.text
            for query in generate_human_dataset(
                quality_kb, HumanDatasetConfig(num_questions=45, seed=13)
            )
        ]
        for question in questions[:30]:  # healthy reference traffic
            monitor.observe_answer(system.engine.answer(AskRequest(question)).answer)
        assert not monitor.alerts(), "the unperturbed corpus must stay quiet"
        system.llm._p_off_context = 0.97
        for question in questions[30:45]:  # one detection window of bad traffic
            monitor.observe_answer(system.engine.answer(AskRequest(question)).answer)
        names = {alert.rule for alert in monitor.alerts()}
        assert "quality_drift_guardrail_pass" in names


class TestCanaryWorkRecording:
    """Satellite: canary probes record deterministic work counts, so work
    drift pages through the same surface as quality drift."""

    @pytest.fixture(scope="class")
    def suite(self, quality_kb):
        return CanarySuite.from_kb(quality_kb, size=8, seed=17)

    def test_work_recorded_per_probe_and_in_aggregate(
        self, quality_kb, quality_lexicon, suite
    ):
        system = fresh_system(quality_kb, quality_lexicon)
        runner = CanaryRunner(system.engine, suite, record_work=True)
        report = runner.run_once(now=0.0)
        assert report.work and report.work["llm_prompt_tokens"] > 0
        assert set(runner.last_work) == {probe.probe_id for probe in suite.probes}
        totals = {}
        for counts in runner.last_work.values():
            for kind, units in counts.items():
                totals[kind] = totals.get(kind, 0) + units
        assert totals == report.work
        assert "work" in report.to_dict()

    def test_repeat_runs_book_identical_work(self, quality_kb, quality_lexicon, suite):
        system = fresh_system(quality_kb, quality_lexicon)
        runner = CanaryRunner(system.engine, suite, record_work=True)
        baseline = runner.run_once(now=0.0)
        repeat = runner.run_once(now=300.0)
        assert repeat.work == baseline.work
        assert not [a for a in runner.last_alerts if a.rule.startswith("quality_canary_work_")]

    def test_work_drift_raises_an_alert(self, quality_kb, quality_lexicon, suite):
        system = fresh_system(quality_kb, quality_lexicon)
        runner = CanaryRunner(system.engine, suite, record_work=True)
        baseline = runner.run_once(now=0.0)
        drifted = replace_report_work(baseline, {"docs_scored": baseline.work["docs_scored"] * 2})
        alerts = runner.evaluate(drifted)
        names = {alert.rule for alert in alerts}
        assert "quality_canary_work_docs_scored" in names
        # Kinds present in the baseline but absent from the drifted run
        # also fire (a counter silently vanishing is itself drift).
        assert "quality_canary_work_llm_prompt_tokens" in names

    def test_work_gauge_lands_in_the_registry(self, quality_kb, quality_lexicon, suite):
        system = fresh_system(quality_kb, quality_lexicon)
        runner = CanaryRunner(
            system.engine, suite, record_work=True, registry=system.telemetry.registry
        )
        runner.run_once(now=0.0)
        exposition = system.telemetry.render_metrics()
        assert 'uniask_canary_work_units{kind="llm_prompt_tokens"}' in exposition

    def test_off_by_default(self, quality_kb, quality_lexicon, suite):
        system = fresh_system(quality_kb, quality_lexicon)
        runner = CanaryRunner(system.engine, suite)
        report = runner.run_once(now=0.0)
        assert report.work is None
        assert runner.last_work == {}
        assert "work" not in report.to_dict()


def replace_report_work(report: CanaryReport, work: dict) -> CanaryReport:
    """A copy of *report* with its work block replaced (drift injection)."""
    from dataclasses import replace

    return replace(report, work=work)
