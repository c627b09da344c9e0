"""Online quality observability: canary probes and their alerts.

The acceptance bar: an injected degradation (here: raising the simulated
LLM's off-context probability) must trip a canary alert within one run,
while the unperturbed seed corpus trips none.
"""

from __future__ import annotations

import pytest

from repro.api import create_engine
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon
from repro.eval.groundedness import GroundednessJudge
from repro.obs.quality import CanaryRunner, CanarySuite


@pytest.fixture(scope="module")
def quality_kb():
    return KbGenerator(KbGeneratorConfig(num_topics=14, error_families=2, seed=31)).generate()


@pytest.fixture(scope="module")
def quality_lexicon():
    return build_banking_lexicon()


def fresh_system(quality_kb, quality_lexicon):
    """A private deployment (tests mutate the LLM's failure knobs)."""
    return create_engine(quality_kb.store(), quality_lexicon, seed=31)


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
        runner = CanaryRunner(
            system.engine,
            suite,
            judge=GroundednessJudge(quality_lexicon),
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

    def test_canary_metrics_reach_the_registry(self, quality_kb, quality_lexicon, suite):
        system = fresh_system(quality_kb, quality_lexicon)
        runner = CanaryRunner(system.engine, suite, registry=system.telemetry.registry)
        runner.run_once(now=0.0)
        exposition = system.telemetry.registry.render()
        assert "uniask_canary_metric" in exposition
        assert "uniask_canary_runs_total" in exposition


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
