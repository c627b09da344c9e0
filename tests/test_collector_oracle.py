"""The collector's aggregates against the query log they replace.

``MetricsCollector`` keeps no log: per-minute accumulators, an SLO tail
pruned to the longest burn window behind the newest arrival, and the
newest ``PERCENTILE_WINDOW`` samples of each latency series.  Over random
logs that step back the way a coalescing backend's does (requests are
logged in arrival order and stamped ``arrival + response_time``, so a fast
request lands behind a slow one logged before it), each aggregate equals
what the whole log gives:

* the burn-rate alerts from ``events_since`` at any ``now`` at or after the
  newest arrival equal ``evaluate_slo_alerts`` over the whole reference log;
* the per-minute series equal re-bucketing the log, bit for bit;
* every percentile equals ``percentile()`` over the last 1 024 samples.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answer import OUTCOME_ANSWERED, OUTCOME_GENERATION_ERROR
from repro.obs.incident import PAGE_BURN_WINDOWS
from repro.obs.slo import DEFAULT_BURN_WINDOWS
from repro.service.alerting import evaluate_slo_alerts
from repro.service.monitoring import (
    BUCKET_SECONDS,
    PERCENTILE_WINDOW,
    MetricsCollector,
    QueryEvent,
    percentile,
)

OUTCOMES = (OUTCOME_ANSWERED, OUTCOME_ANSWERED, OUTCOME_GENERATION_ERROR, "guardrail_citation")

#: Requests in arrival order: gap since the previous arrival, response time,
#: outcome, partial.  Gaps up to half an hour over up to 80 requests reach
#: well past the 6 h horizon, so the tail prunes.
REQUESTS = st.lists(
    st.tuples(
        st.one_of(st.sampled_from((0.0, BUCKET_SECONDS)), st.floats(0.0, 1800.0)),
        st.floats(0.0, 30.0),
        st.sampled_from(OUTCOMES),
        st.booleans(),
    ),
    max_size=80,
)


def _rebucketed(log: list[QueryEvent]) -> tuple[list[int], list[int], list[float]]:
    """The whole-log re-bucketing the online series replace."""
    if not log:
        return [], [], []
    buckets = int(max(event.timestamp for event in log) // BUCKET_SECONDS) + 1
    queries = [0] * buckets
    failures = [0] * buckets
    rt_sums = [0.0] * buckets
    rt_counts = [0] * buckets
    for event in log:
        bucket = int(event.timestamp // BUCKET_SECONDS)
        queries[bucket] += 1
        if event.failed:
            failures[bucket] += 1
        else:
            rt_sums[bucket] += event.response_time
            rt_counts[bucket] += 1
    return queries, failures, [
        rt_sums[i] / rt_counts[i] if rt_counts[i] else 0.0 for i in range(buckets)
    ]


@given(
    requests=REQUESTS,
    offsets=st.lists(st.floats(0.0, 8 * 3600.0), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_the_aggregates_equal_the_whole_log(requests, offsets):
    collector = MetricsCollector()
    log: list[QueryEvent] = []
    arrival = 0.0
    for gap, response_time, outcome, partial in requests:
        arrival += gap
        timestamp = arrival + response_time
        collector.record_query(
            timestamp, "u", outcome, response_time, stages={"llm": response_time}, partial=partial
        )
        log.append(
            QueryEvent(timestamp, outcome, response_time, outcome == OUTCOME_GENERATION_ERROR, partial)
        )

    snapshot = collector.snapshot()
    assert (
        snapshot.queries_per_bucket,
        snapshot.failures_per_bucket,
        snapshot.response_time_per_bucket,
    ) == _rebucketed(log)
    if log:
        samples = [event.response_time for event in log][-PERCENTILE_WINDOW:]
        assert snapshot.stage_p50["llm"] == percentile(samples, 50.0)
        assert snapshot.stage_p95["llm"] == percentile(samples, 95.0)
        assert snapshot.stage_counts["llm"] == len(log)

    latest_arrival = max((event.timestamp - event.response_time for event in log), default=0.0)
    in_order = sorted(log, key=lambda event: event.timestamp)  # stable: ties keep log order
    for offset in offsets:
        now = latest_arrival + offset
        for windows in (DEFAULT_BURN_WINDOWS, PAGE_BURN_WINDOWS):
            horizon = now - max(window.long_seconds for window in windows)
            tail = collector.events_since(horizon)
            assert tail == [event for event in in_order if event.timestamp >= horizon]
            assert evaluate_slo_alerts(tail, now, windows=windows) == evaluate_slo_alerts(
                log, now, windows=windows
            )


@given(
    sizes=st.lists(st.integers(0, 3 * PERCENTILE_WINDOW), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_percentiles_cover_the_newest_window(sizes, seed):
    rng = random.Random(seed)
    collector = MetricsCollector()
    stages: dict[str, list[float]] = {}
    shards: dict[str, list[float]] = {}
    for series, size in enumerate(sizes):
        for step in range(size):
            latency = round(rng.expovariate(50.0), 3)  # ties at the rank cut
            collector.record_shard_probe(series, f"s{series}/r0", latency, ok=True)
            shards.setdefault(f"shard-{series}", []).append(latency)
            collector.record_query(
                float(step), "u", OUTCOME_ANSWERED, 1.0, stages={f"stage-{series}": latency}
            )
            stages.setdefault(f"stage-{series}", []).append(latency)

    snapshot = collector.snapshot()
    for reference, p50, p95, counts in (
        (stages, snapshot.stage_p50, snapshot.stage_p95, snapshot.stage_counts),
        (shards, snapshot.shard_p50, snapshot.shard_p95, snapshot.shard_counts),
    ):
        assert counts == {key: len(values) for key, values in reference.items()}
        for key, values in reference.items():
            window = values[-PERCENTILE_WINDOW:]
            assert p50[key] == percentile(window, 50.0)
            assert p95[key] == percentile(window, 95.0)
