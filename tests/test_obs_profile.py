"""Unit tests for the continuous profiler, the deterministic work counters,
and the saturation/capacity monitor (``repro.obs.profile`` /
``repro.obs.work`` / ``repro.obs.capacity``)."""

from __future__ import annotations

import json

import pytest

from repro.obs.capacity import CapacityMonitor, format_saturation
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ContinuousProfiler
from repro.obs.trace import Trace
from repro.obs.work import (
    ALL_WORK_KINDS,
    WORK_DOCS_SCORED,
    WORK_POSTINGS_SCANNED,
    WorkCounters,
)
from repro.pipeline.clock import SimulatedClock


class TestWorkCounters:
    def test_add_get_total(self):
        work = WorkCounters()
        work.add(WORK_POSTINGS_SCANNED, 10)
        work.add(WORK_POSTINGS_SCANNED, 5)
        work.add(WORK_DOCS_SCORED)
        assert work.get(WORK_POSTINGS_SCANNED) == 15
        assert work.get(WORK_DOCS_SCORED) == 1
        assert work.get("never_booked") == 0
        assert work.total == 16

    def test_snapshot_is_a_sorted_independent_copy(self):
        work = WorkCounters()
        work.add("b_kind", 2)
        work.add("a_kind", 1)
        snap = work.snapshot()
        assert list(snap) == ["a_kind", "b_kind"]
        work.add("a_kind", 100)
        assert snap["a_kind"] == 1

    def test_delta_reports_only_changes(self):
        work = WorkCounters()
        work.add("alpha", 3)
        mark = work.snapshot()
        work.add("alpha", 2)
        work.add("beta", 7)
        assert work.delta(mark) == {"alpha": 2, "beta": 7}
        assert work.delta(work.snapshot()) == {}

    def test_equality_against_counters_and_dicts(self):
        a = WorkCounters()
        b = WorkCounters()
        a.add("k", 4)
        b.add("k", 4)
        assert a == b
        assert a == {"k": 4}
        b.add("k", 1)
        assert a != b

    def test_merge_and_bool(self):
        a = WorkCounters()
        assert not a
        b = WorkCounters()
        b.add("k", 2)
        a.merge(b)
        assert a and a.get("k") == 2

    def test_kind_taxonomy_is_unique(self):
        assert len(set(ALL_WORK_KINDS)) == len(ALL_WORK_KINDS) == 14


def _traced_request(clock, retrieval_s=1.0, llm_s=2.0, postings=100):
    """One synthetic request trace: ask -> {retrieval -> fulltext, llm}."""
    trace = Trace(clock=clock)
    with trace.span("ask"):
        with trace.span("retrieval"):
            with trace.span("fulltext") as span:
                clock.advance(retrieval_s)
                span.set("work_postings_scanned", postings)
        with trace.span("llm"):
            clock.advance(llm_s)
    return trace


class TestContinuousProfiler:
    def test_paths_calls_and_self_time(self):
        clock = SimulatedClock()
        profiler = ContinuousProfiler()
        profiler.record(_traced_request(clock), now=0.0)
        profiler.record(_traced_request(clock), now=1.0)
        nodes = profiler.aggregate()
        assert set(nodes) == {
            "ask",
            "ask/retrieval",
            "ask/retrieval/fulltext",
            "ask/llm",
        }
        fulltext = nodes["ask/retrieval/fulltext"]
        assert fulltext.calls == 2
        assert fulltext.self_s == pytest.approx(2.0)
        assert fulltext.work == {"postings_scanned": 200}
        # Self time of the parents excludes nested children entirely.
        assert nodes["ask/retrieval"].self_s == pytest.approx(0.0)
        assert nodes["ask"].self_s == pytest.approx(0.0)
        assert nodes["ask"].cumulative_s == pytest.approx(6.0)

    def test_open_spans_are_skipped(self):
        clock = SimulatedClock()
        trace = Trace(clock=clock)
        with trace.span("ask"):
            scope = trace.span("stuck")
            scope.__enter__()  # never exited: a truncated trace
            clock.advance(1.0)
        profiler = ContinuousProfiler()
        profiler.record(trace)
        assert "ask/stuck" not in profiler.aggregate()

    def test_window_ring_bounds_memory(self):
        clock = SimulatedClock()
        profiler = ContinuousProfiler(window_seconds=10.0, max_windows=2)
        for i in range(5):
            profiler.record(_traced_request(clock), now=i * 10.0)
        # Only the last two windows survive: 2 of the 5 traces remain.
        assert profiler.aggregate()["ask"].calls == 2
        assert profiler.traces_recorded == 5

    def test_error_spans_are_counted(self):
        clock = SimulatedClock()
        trace = Trace(clock=clock)
        with pytest.raises(RuntimeError):
            with trace.span("ask"):
                with trace.span("llm"):
                    raise RuntimeError("boom")
        profiler = ContinuousProfiler()
        profiler.record(trace)
        nodes = profiler.aggregate()
        assert nodes["ask/llm"].errors == 1
        assert "errors=1" in profiler.format_top()

    def test_format_top_orders_by_self_time_and_shows_work(self):
        clock = SimulatedClock()
        profiler = ContinuousProfiler()
        profiler.record(_traced_request(clock, retrieval_s=1.0, llm_s=9.0))
        top = profiler.format_top(limit=2)
        lines = top.splitlines()
        assert "path" in lines[1]
        assert "ask/llm" in lines[3]  # hottest path right under the rule
        assert "... 2 more path(s)" in top
        full = profiler.format_top()
        assert "postings_scanned=100" in full

    def test_folded_stacks_are_flamegraph_lines(self):
        clock = SimulatedClock()
        profiler = ContinuousProfiler()
        profiler.record(_traced_request(clock))
        folded = profiler.folded_stacks()
        assert "ask;retrieval;fulltext 1000000" in folded.splitlines()
        for line in folded.splitlines():
            frames, value = line.rsplit(" ", 1)
            assert frames and int(value) >= 0

    def test_speedscope_document_is_valid_json_with_weights(self):
        clock = SimulatedClock()
        profiler = ContinuousProfiler()
        profiler.record(_traced_request(clock))
        doc = profiler.speedscope_json()
        json.dumps(doc)  # must be serialisable
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"]) == 4
        frames = doc["shared"]["frames"]
        for stack in profile["samples"]:
            assert all(0 <= index < len(frames) for index in stack)
        assert profile["endValue"] == pytest.approx(3.0)

    def test_disabled_traces_are_ignored(self):
        from repro.obs.trace import NULL_TRACE

        profiler = ContinuousProfiler()
        profiler.record(NULL_TRACE)
        assert profiler.traces_recorded == 0

    def test_to_dict_shape(self):
        clock = SimulatedClock()
        profiler = ContinuousProfiler()
        profiler.record(_traced_request(clock))
        doc = profiler.to_dict()
        assert doc["traces_recorded"] == 1
        assert doc["windows_retained"] == 1
        assert doc["nodes"][0]["path"] == "ask/llm"  # hottest first


class TestCapacityMonitor:
    def test_concurrency_high_water_tracks_overlap(self):
        monitor = CapacityMonitor()
        # Three flights: the first two overlap, the third starts after both.
        monitor.observe("backend", 0.0, 2.0)
        monitor.observe("backend", 1.0, 2.0)
        monitor.observe("backend", 10.0, 1.0)
        (sample,) = monitor.snapshot()
        assert sample.resource == "backend"
        assert sample.arrivals == 3
        assert sample.concurrency_high_water == 2
        assert sample.queue_high_water == 1
        assert sample.in_flight == 1  # only the third is open at t=10

    def test_errors_counted(self):
        monitor = CapacityMonitor()
        monitor.observe("shard_0", 0.0, 1.0, failed=True)
        monitor.observe("shard_0", 2.0, 1.0)
        (sample,) = monitor.snapshot()
        assert sample.errors == 1

    def test_littles_law_on_a_steady_stream(self):
        monitor = CapacityMonitor(window_seconds=100.0)
        # lambda = 1/s, W = 0.5s => L = 0.5, utilization = 0.5.
        for i in range(50):
            monitor.observe("backend", float(i), 0.5)
        (sample,) = monitor.snapshot()
        assert sample.arrival_rate == pytest.approx(1.0, rel=0.05)
        assert sample.mean_response_s == pytest.approx(0.5)
        assert sample.littles_load == pytest.approx(0.5, rel=0.05)
        assert sample.utilization == pytest.approx(0.5, rel=0.05)

    def test_snapshot_sorted_by_resource(self):
        monitor = CapacityMonitor()
        monitor.observe("replica_b", 0.0, 1.0)
        monitor.observe("replica_a", 1.0, 1.0)
        assert [s.resource for s in monitor.snapshot()] == ["replica_a", "replica_b"]

    def test_gauges_registered_and_refreshed(self):
        registry = MetricsRegistry()
        monitor = CapacityMonitor(registry=registry)
        monitor.observe("backend", 0.0, 1.0)
        monitor.snapshot()
        exposition = registry.render()
        assert 'uniask_saturation_in_flight{resource="backend"}' in exposition
        assert 'uniask_saturation_utilization{resource="backend"}' in exposition
        assert 'uniask_saturation_littles_load{resource="backend"}' in exposition

    def test_no_registry_means_no_instruments(self):
        monitor = CapacityMonitor()
        monitor.observe("backend", 0.0, 1.0)
        assert monitor.snapshot()  # works without a registry

    def test_format_saturation_renders_every_resource(self):
        monitor = CapacityMonitor()
        monitor.observe("backend", 0.0, 1.0)
        monitor.observe("replica_r1", 0.0, 0.5)
        text = format_saturation(monitor.snapshot())
        assert "resource" in text and "util" in text
        assert "backend" in text and "replica_r1" in text

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            CapacityMonitor(window_seconds=0.0)
