"""Tests of the benchmark harness itself (plain pytest, outside tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q

The smoke size (40 topics, ~30 asks, 3 ingest rounds) drives every workload
both untraced and traced in well under a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from probe import REF_PROBE_S, Normaliser, reference_factor  # noqa: E402
from stats import percentile, quartile_distance  # noqa: E402
from tracing import Tracer, install_layer_wrappers, layer_self_seconds, self_times  # noqa: E402
from workloads import SMOKE, WORKLOADS, marker_token  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())

#: ``--seconds`` that gives ~30 asks (3 rounds on ``ingest_live``) at smoke size.
SMOKE_SECONDS = {"ask_human": 1.4, "ask_zipf_cached": 1.4, "ask_cluster_obs": 1.4, "ingest_live": 2.0}


# -- BENCHMARK.json agrees with the harness -------------------------------------


def test_benchmark_json_lists_what_the_harness_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


# -- smoke runs -----------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_untraced_reports_every_end_to_end_metric(name):
    document = run.run_workload(name, seed=11, seconds=SMOKE_SECONDS[name], trace=False, size=SMOKE)
    assert document["correct"] and document["failed"] == 0 and document["attempted"] >= 1
    assert list(document["metrics"]) == list(run.END_TO_END_UNITS)
    for metric, entry in document["metrics"].items():
        assert entry["unit"] == run.END_TO_END_UNITS[metric]
        assert entry["value"] > 0 and entry["raw"] > 0, metric
    for key in ("schema", "workload", "seed", "seconds", "trace", "environment", "probe",
                "fail_share", "answers_digest", "documents", "asks"):
        assert key in document
    assert set(document["environment"]) == {
        "python", "numpy", "platform", "nproc", "git_commit", "seed", "ref_probe_s"
    }
    assert set(document["probe"]) >= {"min_s", "median_s", "max_s", "spread", "disturbed"}
    if name == "ingest_live":
        assert document["refreshes"] == 3
    if name == "ask_zipf_cached":
        assert document["cache_hit_share"] > 0.3


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced_reports_every_per_layer_metric_and_removes_wrappers(name):
    from repro.search.reranker import SemanticReranker
    from repro.service.backend import BackendService
    from repro.text.analyzer import ItalianAnalyzer

    originals = (BackendService.serve, SemanticReranker.rerank, ItalianAnalyzer.analyze)
    document = run.run_workload(name, seed=11, seconds=SMOKE_SECONDS[name], trace=True, size=SMOKE)
    assert (BackendService.serve, SemanticReranker.rerank, ItalianAnalyzer.analyze) == originals
    assert document["correct"]
    assert list(document["metrics"]) == list(run.PER_LAYER_UNITS)
    values = {metric: entry["value"] for metric, entry in document["metrics"].items()}
    assert values["backend.self_ms"] > 0 and values["engine.self_ms"] > 0
    assert values["trace.unattributed_pct"] < 15
    if name == "ask_zipf_cached":
        assert values["cache.lookup_ms"] > 0 and values["cache.exact_hits"] > 0
    else:
        assert values["reranker.busy_ms"] == max(
            value for metric, value in values.items() if metric.endswith("_ms")
        )
    if name == "ask_cluster_obs":
        assert values["router.self_ms"] > 0 and values["router.scatter_legs"] > 0
    if name == "ingest_live":
        for metric in ("hnsw.add_ms", "index.add_self_ms", "index.delete_ms", "htmlproc.busy_ms",
                       "ingestion.poll_ms", "indexing.self_ms", "indexing.build_records_ms"):
            assert values[metric] > 0, metric
    # The layer rows add up to the traced mean latency (plus, on
    # ingest_live, the mean refresh time per document).
    per_layer, per_op_root = layer_self_seconds(document["spans"])
    assert sum(per_layer.values()) == pytest.approx(sum(per_op_root.values()), rel=1e-4)


def test_same_seed_gives_the_same_answers_and_counts():
    first = run.run_workload("ask_zipf_cached", 5, SMOKE_SECONDS["ask_zipf_cached"], True, SMOKE)
    second = run.run_workload("ask_zipf_cached", 5, SMOKE_SECONDS["ask_zipf_cached"], True, SMOKE)
    assert first["answers_digest"] == second["answers_digest"]
    for metric, unit in run.PER_LAYER_UNITS.items():
        if unit == "count":
            assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric


# -- tracing --------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  second root [20, 21]
    spans = [
        ["root", 0.0, 10.0, -1, 7],
        ["a", 1.0, 4.0, 0, 7],
        ["a", 2.0, 3.0, 1, 7],
        ["b", 5.0, 9.0, 0, 7],
        ["root", 20.0, 21.0, -1, 8],
        ["check", 30.0, 31.0, -1, -1],  # outside any timed operation
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0, 1.0]
    per_layer, per_op_root = layer_self_seconds(spans)
    assert per_layer == {("root", 7): 3.0, ("a", 7): 3.0, ("b", 7): 4.0, ("root", 8): 1.0}
    assert per_op_root == {7: 10.0, 8: 1.0}


def test_wrappers_record_nesting_and_are_removed():
    class Inner:
        def work(self, items):
            return len(items)

    class Outer:
        def __init__(self):
            self.inner = Inner()

        def call(self):
            return self.inner.work([1, 2, 3]) + self.inner.work([4])

    tracer = Tracer()
    original_call, original_work = Outer.call, Inner.work
    tracer.wrap_span(Outer, "call", "outer")
    tracer.wrap_span(Inner, "work", "inner", count=lambda args, result: result)
    assert tracer.installed == 2
    tracer.op = 3
    assert Outer().call() == 4
    tracer.remove()
    assert tracer.installed == 0
    assert Outer.call is original_call and Inner.work is original_work
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("outer", -1, 3), ("inner", 0, 3), ("inner", 0, 3)]
    assert tracer.counts == {"inner": 4}
    assert Outer().call() == 4 and len(tracer.spans) == 3


def test_layer_wrappers_leave_no_attribute_behind():
    import repro.pipeline.indexing as indexing_module
    from repro.ann.hnsw import HnswIndex

    before = (indexing_module.parse_html, HnswIndex.add, HnswIndex.search)
    tracer = Tracer()
    install_layer_wrappers(tracer)
    assert indexing_module.parse_html is not before[0]
    tracer.remove()
    assert (indexing_module.parse_html, HnswIndex.add, HnswIndex.search) == before


# -- statistics -----------------------------------------------------------------


def test_percentile_refuses_a_tail_with_too_few_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 90) == 90.0
    assert percentile(values, 50) == 50.0
    with pytest.raises(ValueError, match="beyond"):
        percentile(values, 95)
    with pytest.raises(ValueError, match="beyond"):
        percentile(values[:99], 90.5)
    assert percentile(values, 95, min_beyond=5) == 95.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartile_distance_matches_the_acceptance_rule():
    import statistics

    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    first, _, third = statistics.quantiles(values, n=4)
    assert quartile_distance(values) == pytest.approx(third - first)
    assert quartile_distance([5.0]) == 0.0
    assert quartile_distance([4.0, 6.0]) == pytest.approx(2.0)


# -- normaliser -----------------------------------------------------------------


def test_reference_factor_on_synthetic_durations():
    # A machine running at half speed (probe twice the reference) halves.
    assert reference_factor(2 * REF_PROBE_S, 2 * REF_PROBE_S) == pytest.approx(0.5)
    assert reference_factor(REF_PROBE_S, REF_PROBE_S) == pytest.approx(1.0)
    # A speed change inside the bracket takes the mean of both probes.
    assert reference_factor(REF_PROBE_S, 3 * REF_PROBE_S) == pytest.approx(0.5)


def test_normaliser_brackets_every_duration():
    timer = Normaliser(interval_s=0.0)
    with pytest.raises(RuntimeError):
        with timer.timed("early"):
            pass
    timer.start()
    for label in ("a", "b", "a"):
        with timer.timed(label):
            sum(range(1000))
    timer.finish()
    assert len(timer) == 3 and timer.indices("a") == [0, 2]
    assert len(timer.probes) == 5  # opening, one after each block, closing
    for index in range(3):
        expected = reference_factor(timer.probes[index], timer.probes[index + 1])
        assert timer.factor(index) == pytest.approx(expected)
        assert timer.reference(index) == pytest.approx(timer.raw(index) * expected)
    summary = timer.summary()
    assert summary["spread"] == pytest.approx(summary["max_s"] / summary["min_s"])
    assert summary["disturbed"] == (summary["spread"] > 2.0)


# -- inputs and comparison ------------------------------------------------------


def test_marker_tokens_are_alphabetic_and_distinct():
    tokens = {marker_token(n) for n in range(5000)}
    assert len(tokens) == 5000 and all(token.isalpha() for token in tokens)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.1)[0] == "ok"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)[0] == "worse"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "lower", 0.1)[0] == "better"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "higher", 0.1)[0] == "worse"
    # Seeds differ a lot from each other, but each moved by the same 5 %.
    seeds = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert compare.verdict(seeds, [v * 1.05 for v in seeds], "lower", 0.1) == ("ok", pytest.approx(0.05))
    # The change itself is all over the place: the median cannot settle it.
    scattered = [v * f for v, f in zip(seeds, (1.3, 0.8, 1.25, 0.75, 1.02))]
    assert compare.verdict(seeds, scattered, "lower", 0.1)[0] == "unresolved"
    # Better on every one of four or more seeds: better despite the scatter.
    assert compare.verdict(seeds, [v * f for v, f in zip(seeds, (0.5, 0.9, 0.6, 0.95, 0.7))], "lower", 0.1)[0] == "better"
    assert compare.verdict([100.0, 100.0], [99.0, 98.0], "lower", 0.1)[0] == "ok"
    assert compare.verdict([100.0], [104.0], "lower", 0.05) == ("ok", pytest.approx(0.04))
    with pytest.raises(ValueError):
        compare.verdict([100.0, 100.0], [100.0], "lower", 0.1)
