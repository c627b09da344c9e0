"""Unit tests for metrics, splits, harness, reporting and groundedness."""

from __future__ import annotations

import pytest

from repro.corpus.queries import LabeledQuery
from repro.eval.groundedness import GroundednessJudge
from repro.eval.harness import EvaluationResult, RetrievalEvaluator
from repro.eval.metrics import (
    RetrievalMetrics,
    average_metrics,
    compute_query_metrics,
    hit_rate_at,
    percent_variation,
    precision_at,
    recall_at,
    reciprocal_rank,
)
from repro.eval.reporting import format_comparison_table, format_variation_table, variation_grid
from repro.eval.splits import split_dataset
from repro.search.results import RetrievedChunk
from repro.search.schema import ChunkRecord

RANKED = ["a", "b", "c", "d", "e"]
RELEVANT = frozenset({"b", "e", "x"})


class TestMetrics:
    def test_precision(self):
        assert precision_at(RANKED, RELEVANT, 1) == 0.0
        assert precision_at(RANKED, RELEVANT, 2) == 0.5
        assert precision_at(RANKED, RELEVANT, 5) == pytest.approx(2 / 5)

    def test_precision_penalizes_short_result_lists(self):
        assert precision_at(["b"], RELEVANT, 4) == pytest.approx(1 / 4)

    def test_recall(self):
        assert recall_at(RANKED, RELEVANT, 2) == pytest.approx(1 / 3)
        assert recall_at(RANKED, RELEVANT, 5) == pytest.approx(2 / 3)

    def test_recall_empty_relevant(self):
        assert recall_at(RANKED, frozenset(), 5) == 0.0

    def test_hit_rate(self):
        assert hit_rate_at(RANKED, RELEVANT, 1) == 0.0
        assert hit_rate_at(RANKED, RELEVANT, 2) == 1.0

    def test_reciprocal_rank(self):
        assert reciprocal_rank(RANKED, RELEVANT) == pytest.approx(0.5)
        assert reciprocal_rank(["x"], frozenset({"y"})) == 0.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            precision_at(RANKED, RELEVANT, 0)

    def test_compute_query_metrics_consistency(self):
        metrics = compute_query_metrics(RANKED, RELEVANT)
        assert metrics.p_at_1 == metrics.hit_at_1  # identical at n=1 by definition
        assert metrics.mrr == pytest.approx(0.5)

    def test_average(self):
        a = compute_query_metrics(["r"], frozenset({"r"}))
        b = compute_query_metrics(["w"], frozenset({"r"}))
        mean = average_metrics([a, b])
        assert mean.p_at_1 == pytest.approx(0.5)
        assert mean.mrr == pytest.approx(0.5)

    def test_average_empty(self):
        assert average_metrics([]).mrr == 0.0

    def test_percent_variation(self):
        assert percent_variation(1.1, 1.0) == pytest.approx(10.0)
        assert percent_variation(0.5, 1.0) == pytest.approx(-50.0)
        assert percent_variation(0.0, 0.0) == 0.0


class TestSplits:
    def _dataset(self, n: int):
        return [
            LabeledQuery(query_id=f"q{i}", text=f"testo {i}", kind="human") for i in range(n)
        ]

    def test_two_thirds_split(self):
        split = split_dataset(self._dataset(300))
        assert len(split.validation) == 200
        assert len(split.test) == 100

    def test_partition_complete_and_disjoint(self):
        dataset = self._dataset(90)
        split = split_dataset(dataset)
        ids = {q.query_id for q in split.validation} | {q.query_id for q in split.test}
        assert len(ids) == 90
        assert not {q.query_id for q in split.validation} & {q.query_id for q in split.test}

    def test_deterministic(self):
        dataset = self._dataset(50)
        a = split_dataset(dataset, seed=9)
        b = split_dataset(dataset, seed=9)
        assert [q.query_id for q in a.test] == [q.query_id for q in b.test]

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            split_dataset(self._dataset(10), validation_fraction=1.0)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_fraction_outside_the_open_interval_rejected(self, fraction):
        with pytest.raises(ValueError):
            split_dataset(self._dataset(10), validation_fraction=fraction)

    def test_seed_changes_the_partition(self):
        dataset = self._dataset(50)
        a = split_dataset(dataset, seed=9)
        b = split_dataset(dataset, seed=10)
        assert [q.query_id for q in a.test] != [q.query_id for q in b.test]
        assert len(a.test) == len(b.test)


class TestHarness:
    def _dataset(self):
        return [
            LabeledQuery(query_id="q1", text="trova a", kind="human", relevant_docs=frozenset({"a"})),
            LabeledQuery(query_id="q2", text="trova b", kind="human", relevant_docs=frozenset({"b"})),
            LabeledQuery(query_id="q3", text="vuoto", kind="human", relevant_docs=frozenset({"c"})),
        ]

    def test_answered_only_averaging(self):
        """The paper averages over queries with non-empty result lists."""

        def retriever(query: str) -> list[str]:
            if "vuoto" in query:
                return []
            return ["a"]

        result = RetrievalEvaluator().evaluate(retriever, self._dataset())
        assert result.total == 3
        assert result.answered == 2
        assert result.answered_fraction == pytest.approx(2 / 3)
        assert result.metrics.p_at_1 == pytest.approx(0.5)  # q1 hit, q2 miss, q3 excluded

    def test_outcomes_recorded_per_query(self):
        result = RetrievalEvaluator().evaluate(lambda q: ["a"], self._dataset())
        assert len(result.outcomes) == 3
        assert result.outcomes[0].metrics.p_at_1 == 1.0


class TestReporting:
    def _result(self, value: float) -> EvaluationResult:
        metrics = RetrievalMetrics(**{name: value for name in RetrievalMetrics.FIELDS})
        return EvaluationResult(metrics=metrics, answered=10, total=10)

    def test_comparison_table_contains_all_rows(self):
        table = format_comparison_table("Prev", self._result(0.5), "UniAsk", self._result(0.6))
        for label in RetrievalMetrics.LABELS:
            assert label in table
        assert "20.0" in table  # +20% variation

    def test_variation_table(self):
        table = format_variation_table(
            self._result(0.5), {"Text": self._result(0.25), "Vector": self._result(0.4)}
        )
        assert "-50.0" in table
        assert "-20.0" in table

    def test_variation_grid_machine_readable(self):
        grid = variation_grid(self._result(0.5), {"X": self._result(0.75)})
        assert grid["X"]["mrr"] == pytest.approx(50.0)


class TestGroundedness:
    def _context(self, text: str):
        record = ChunkRecord(chunk_id="a#0", doc_id="a", title="t", content=text)
        return [RetrievedChunk(record=record, score=1.0)]

    def test_grounded_answer_high_score(self, lexicon):
        judge = GroundednessJudge(lexicon)
        context = self._context("Per attivare la carta di credito usare GestCarte.")
        verdict = judge.judge("Per attivare la carta di credito si usa GestCarte.", context)
        assert verdict.score >= 0.8
        assert verdict.meaningful

    def test_ungrounded_answer_low_score(self, lexicon):
        judge = GroundednessJudge(lexicon)
        context = self._context("La quadratura di cassa avviene ogni sera.")
        verdict = judge.judge("Il mutuo ipotecario si rinnova tramite PratiCredito.", context)
        assert verdict.score <= 0.2

    def test_ambiguous_not_meaningful(self, lexicon):
        """Mid-band scores are flagged unreliable, as the paper observed."""
        judge = GroundednessJudge(lexicon)
        context = self._context("Per attivare la carta di credito usare GestCarte.")
        answer = (
            "Per attivare la carta di credito si usa GestCarte. "
            "Il mutuo ipotecario invece richiede il notaio."
        )
        verdict = judge.judge(answer, context)
        assert not verdict.meaningful

    def test_empty_inputs(self, lexicon):
        judge = GroundednessJudge(lexicon)
        assert judge.judge("", []).score == 0.0

    def test_band_validation(self, lexicon):
        with pytest.raises(ValueError):
            GroundednessJudge(lexicon, confident_low=0.9, confident_high=0.1)
