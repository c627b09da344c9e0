"""What a served request leaves behind in ``BackendService._records``.

``serve()`` returns the full :class:`QueryRecord` — answer, 50-candidate
ranking, a provenance dict per candidate, the span tree — and that is the
caller's to keep or drop.  The backend itself keeps only what ``feedback``,
``ops("explain", query_id=…)`` and ``ops("diagnose", …)`` read.  Held here
by bytes (a differential ``tracemalloc`` measurement), by reachability (a
``gc.get_referents`` walk from the store) and by the readers' payloads.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
import types

import pytest

from repro.api import AskOptions, AskRequest, create_backend
from repro.cache.config import CacheConfig
from repro.core.answer import UniAskAnswer
from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset
from repro.obs.incident import MIN_BASELINE, IncidentConfig
from repro.obs.trace import Span, Trace
from repro.search.results import RetrievedChunk
from repro.search.schema import ChunkRecord
from repro.service.backend import ROLE_OPS
from repro.service.feedback import GranularFeedback
from repro.service.monitoring import MetricsCollector
from tests.differential import build

#: Ceiling on what one stored record may add to the process, in bytes.
BYTES_PER_RECORD = 2048
STORED = 60

#: name → (``build`` keywords that configure the deployment, backend keywords).
DEPLOYMENTS = {
    "default": ({}, {"tracing": False}),
    "traced_profiled": ({}, {"tracing": True, "profiling": True}),
    "three_shards_incidents": (
        {"shards": 3, "incident": IncidentConfig(enabled=True)},
        {"tracing": True, "profiling": True, "capacity": True},
    ),
}


@pytest.fixture(scope="module")
def questions(tiny_kb) -> list[str]:
    """Sixty distinct human questions over the tiny corpus."""
    dataset = generate_human_dataset(tiny_kb, HumanDatasetConfig(num_questions=240, seed=5))
    distinct = list(dict.fromkeys(query.text for query in dataset))[:STORED]
    assert len(distinct) == STORED
    return distinct


def _reachable(root) -> dict[int, object]:
    """``id`` → object for everything reachable from *root* through instance
    data (types, modules and code are not data: a class would lead to the
    whole program)."""
    opaque = (type, types.ModuleType, types.FunctionType, types.MethodType)
    seen = {id(root): root}
    frontier = [root]
    while frontier:
        for referent in gc.get_referents(frontier.pop()):
            if id(referent) not in seen and not isinstance(referent, opaque):
                seen[id(referent)] = referent
                frontier.append(referent)
    return seen


class TestBytesPerStoredRecord:
    @pytest.mark.parametrize("name", DEPLOYMENTS)
    def test_a_stored_record_costs_under_two_kilobytes(
        self, tiny_kb, banking_lexicon, questions, name
    ):
        blocks, backend_kwargs = DEPLOYMENTS[name]
        system, _ = build(tiny_kb, banking_lexicon, **blocks, **backend_kwargs)

        def growth(record_capacity: int) -> int:
            backend = create_backend(system, record_capacity=record_capacity, **backend_kwargs)
            token = backend.login("u")
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for question in questions:
                backend.serve(token, question)
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before

        growth(1)  # untraced warm-up: the engine's caches fill once, for both passes
        tracemalloc.start()
        try:
            per_record = (growth(STORED) - growth(1)) / (STORED - 1)
        finally:
            tracemalloc.stop()
        assert per_record <= BYTES_PER_RECORD, f"{per_record:.0f} B per stored record"


class TestNothingOfTheResponseIsReachable:
    @pytest.mark.parametrize("explain", [False, True])
    def test_the_store_reaches_no_answer_chunk_or_span(
        self, tiny_kb, banking_lexicon, questions, explain
    ):
        blocks, backend_kwargs = DEPLOYMENTS["three_shards_incidents"]
        _, backend = build(tiny_kb, banking_lexicon, **blocks, **backend_kwargs)
        token = backend.login("u")
        records = [
            backend.serve(
                token, AskRequest(question, AskOptions(explain=explain and position % 3 == 0))
            )
            for position, question in enumerate(questions[:12])
        ]
        assert records[0].answer.documents and records[0].trace is not None
        assert (records[0].answer.explain_report is not None) == explain

        found = _reachable(backend._records)
        # The walk is not vacuous: it went through every stored entry.
        assert all(id(record.query_id) in found for record in records)
        forbidden = (UniAskAnswer, RetrievedChunk, ChunkRecord, Trace, Span)
        assert {type(item).__name__ for item in found.values() if isinstance(item, forbidden)} == set()


def _ops(backend, route: str, **params):
    return backend.ops(route, backend.login("sre", role=ROLE_OPS), **params)


class TestReadersSeeWhatServeReturned:
    @pytest.fixture(scope="class")
    def served(self, tiny_kb, banking_lexicon, questions):
        """One run through every kind of stored request."""
        system, backend = build(
            tiny_kb,
            banking_lexicon,
            shards=3,
            cache=CacheConfig(enabled=True),
            incident=IncidentConfig(enabled=True),
            profiling=True,
            capacity=True,
        )
        token = backend.login("u")
        kinds: dict[str, object] = {}

        def serve(kind: str, question: str, **options):
            kinds[kind] = backend.serve(token, AskRequest(question, AskOptions(**options)))
            system.clock.advance(30.0)  # past every flight window

        for position in range(MIN_BASELINE + 2):  # a baseline diagnose trusts
            serve(f"plain-{position}", questions[position])
        leader = backend.serve(token, questions[20])
        kinds["coalesced"] = backend.serve(token, questions[20])  # same instant: joins
        system.clock.advance(30.0)
        kinds["leader"] = leader
        serve("cache-hit", questions[20])
        serve("explained", questions[21], explain=True)
        for replica in system.cluster.replicas(0):
            replica.kill()
        serve("partial", questions[23])
        return backend, kinds

    def test_the_run_covers_every_kind(self, served):
        _, kinds = served
        assert kinds["coalesced"].answer.cache_hit == "coalesced"
        assert kinds["cache-hit"].answer.cache_hit == "exact"
        assert kinds["explained"].answer.explain_report is not None
        assert kinds["partial"].answer.partial_results

    def test_explain_by_id_is_the_report_serve_returned(self, served):
        backend, kinds = served
        for kind, record in kinds.items():
            stored = _ops(backend, "explain", query_id=record.query_id)
            assert stored == record.answer.explain_report, kind

    def test_diagnose_reports_the_returned_record(self, served):
        backend, kinds = served
        verdicts = {}
        for kind, record in kinds.items():
            answer = record.answer
            payload = _ops(backend, "diagnose", query_id=record.query_id)
            stages = record.trace.stage_durations() if record.trace is not None else {}
            assert {
                key: payload[key]
                for key in (
                    "query_id", "served_at", "response_time", "outcome",
                    "cache_hit", "partial", "work",
                )
            } == {
                "query_id": record.query_id,
                "served_at": record.served_at,
                "response_time": answer.response_time,
                "outcome": answer.outcome,
                "cache_hit": answer.cache_hit,
                "partial": answer.partial_results,
                "work": dict(answer.work) if answer.work else {},
            }, kind
            verdicts[kind] = payload["verdict"]
            assert payload["baseline_n"] >= MIN_BASELINE
            assert {row["stage"]: row["duration"] for row in payload["stage_deltas"]} == {
                stage: round(duration, 6) for stage, duration in stages.items()
            }, kind
        assert verdicts["partial"] == "degraded"
        assert kinds["coalesced"].trace is None and kinds["leader"].trace is not None


class TestCollectorRetention:
    def test_hours_six_to_twelve_add_under_one_percent(self):
        """By hour 6 the SLO tail spans its whole horizon and every
        percentile window is full, so six more hours of traced-shaped
        traffic only lengthen the per-minute series — a few bytes a minute.
        A collector keeping every request would double here."""
        rng = random.Random(3)
        stages = ("content_filter", "bm25", "vector", "rerank", "llm", "guardrails")
        step_seconds = 0.5

        def log(collector: MetricsCollector, start_hour: int, end_hour: int) -> None:
            for step in range(int(start_hour * 3600 / step_seconds), int(end_hour * 3600 / step_seconds)):
                response_time = rng.uniform(0.5, 4.0)
                collector.record_query(
                    step * step_seconds + response_time,
                    f"u{step % 40}",
                    "generation_error" if step % 50 == 0 else "answered",
                    response_time,
                    stages={stage: rng.uniform(0.001, 1.0) for stage in stages},
                )

        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            collector = MetricsCollector()
            log(collector, 0, 6)
            gc.collect()
            at_six = tracemalloc.get_traced_memory()[0] - before
            log(collector, 6, 12)
            gc.collect()
            at_twelve = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert at_twelve - at_six <= 0.01 * at_six, f"{at_six} B at hour 6, {at_twelve} B at hour 12"


def _form(query_id: str) -> GranularFeedback:
    return GranularFeedback(query_id, "u", helpful=True, retrieved_relevant=True, rating=5)


class TestEvictedIds:
    def test_an_evicted_id_is_one_error_for_every_reader(self, tiny_kb, banking_lexicon):
        _, backend = build(
            tiny_kb, banking_lexicon, incident=IncidentConfig(enabled=True), record_capacity=2
        )
        token = backend.login("u")
        first, second, third = (
            backend.serve(token, question).query_id
            for question in ("limiti prelievo bancomat", "bonifico estero", "carta bloccata")
        )
        message = f"unknown or evicted query id {first!r}"
        with pytest.raises(KeyError, match=message):
            backend.feedback(token, _form(first))
        with pytest.raises(KeyError, match=message):
            _ops(backend, "explain", query_id=first)
        with pytest.raises(KeyError, match=message):
            _ops(backend, "diagnose", query_id=first)
        for resident in (second, third):
            backend.feedback(token, _form(resident))
            assert _ops(backend, "explain", query_id=resident) is None
            assert _ops(backend, "diagnose", query_id=resident)["query_id"] == resident
