"""Single-flight request coalescing in the backend.

Concurrent identical questions (same question, same filters, arriving
while the leader's flight window is still open on the simulated clock)
must execute the pipeline exactly once; everyone else shares the leader's
answer, marked ``cache_hit="coalesced"``, and is charged only the
remaining wait.
"""

from __future__ import annotations

import pytest

from repro.api import AskOptions, AskRequest, CacheConfig, create_backend, create_engine
from repro.cluster.config import ClusterConfig
from repro.core.config import UniAskConfig
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon

QUESTION = "come sbloccare la carta di credito"


@pytest.fixture(scope="module")
def tiny_kb():
    return KbGenerator(KbGeneratorConfig(num_topics=12, error_families=2, seed=19)).generate()


@pytest.fixture(scope="module")
def banking_lexicon():
    return build_banking_lexicon()


def build_backend(tiny_kb, banking_lexicon, shards: int = 1, cache: bool = True):
    config = UniAskConfig(
        cache=CacheConfig(enabled=cache),
        cluster=ClusterConfig(shards=shards),
    )
    system = create_engine(tiny_kb.store(), banking_lexicon, config=config, seed=19)
    backend = create_backend(system)
    return system, backend


def count_pipeline_runs(system, monkeypatch) -> list:
    """Instrument the engine so every real pipeline execution is recorded."""
    runs: list = []
    original = system.engine._ask_staged

    def counting(*args, **kwargs):
        runs.append(args[0] if args else kwargs.get("question"))
        return original(*args, **kwargs)

    monkeypatch.setattr(system.engine, "_ask_staged", counting)
    return runs


class TestCoalescing:
    def test_same_instant_request_joins_the_flight(self, tiny_kb, banking_lexicon):
        system, backend = build_backend(tiny_kb, banking_lexicon)
        token = backend.login("user-a")
        leader = backend.serve(token, QUESTION)
        follower = backend.serve(token, QUESTION)
        assert leader.answer.cache_hit == ""
        assert follower.answer.cache_hit == "coalesced"
        assert follower.answer.answer_text == leader.answer.answer_text
        # Same arrival instant: the follower waits the whole window.
        assert follower.answer.response_time == pytest.approx(
            leader.answer.response_time
        )
        assert follower.served_at == leader.served_at

    def test_exactly_once_execution(self, tiny_kb, banking_lexicon, monkeypatch):
        system, backend = build_backend(tiny_kb, banking_lexicon)
        runs = count_pipeline_runs(system, monkeypatch)
        token = backend.login("user-a")
        for _ in range(5):
            backend.serve(token, QUESTION)
        assert len(runs) == 1
        assert backend.single_flight.stats.flights == 1
        assert backend.single_flight.stats.coalesced_waits == 4

    def test_partial_wait_is_charged_to_a_late_joiner(self, tiny_kb, banking_lexicon):
        system, backend = build_backend(tiny_kb, banking_lexicon)
        token = backend.login("user-a")
        leader = backend.serve(token, QUESTION)
        delay = leader.answer.response_time / 2
        system.clock.advance(delay)
        joiner = backend.serve(token, QUESTION)
        assert joiner.answer.cache_hit == "coalesced"
        assert joiner.answer.response_time == pytest.approx(
            leader.answer.response_time - delay
        )
        assert joiner.served_at == leader.served_at

    def test_straggler_after_completion_hits_the_cache(self, tiny_kb, banking_lexicon):
        system, backend = build_backend(tiny_kb, banking_lexicon)
        token = backend.login("user-a")
        leader = backend.serve(token, QUESTION)
        system.clock.advance(leader.answer.response_time + 1.0)
        straggler = backend.serve(token, QUESTION)
        assert straggler.answer.cache_hit == "exact"
        assert len(backend.single_flight) == 0  # the completed flight was dropped

    def test_different_filters_do_not_coalesce(self, tiny_kb, banking_lexicon, monkeypatch):
        system, backend = build_backend(tiny_kb, banking_lexicon)
        runs = count_pipeline_runs(system, monkeypatch)
        token = backend.login("user-a")
        backend.serve(token, QUESTION)
        backend.serve(token, AskRequest(QUESTION, AskOptions(filters={"domain": "altro"})))
        assert len(runs) == 2

    def test_bypass_policy_never_joins(self, tiny_kb, banking_lexicon, monkeypatch):
        system, backend = build_backend(tiny_kb, banking_lexicon)
        runs = count_pipeline_runs(system, monkeypatch)
        token = backend.login("user-a")
        backend.serve(token, QUESTION)
        bypassed = backend.serve(token, AskRequest(QUESTION, AskOptions(cache="bypass")))
        assert bypassed.answer.cache_hit == ""
        assert len(runs) == 2
        assert backend.single_flight.stats.coalesced_waits == 0

    def test_coalescing_disabled_runs_every_request(self, tiny_kb, banking_lexicon, monkeypatch):
        system, backend = build_backend(tiny_kb, banking_lexicon, cache=False)
        runs = count_pipeline_runs(system, monkeypatch)
        assert backend.single_flight is None
        token = backend.login("user-a")
        backend.serve(token, QUESTION)
        backend.serve(token, QUESTION)
        assert len(runs) == 2


class TestCoalescingUnderClusterLoad:
    def test_burst_against_a_sharded_cluster(self, tiny_kb, banking_lexicon, monkeypatch):
        system, backend = build_backend(tiny_kb, banking_lexicon, shards=3)
        runs = count_pipeline_runs(system, monkeypatch)
        tokens = [backend.login(f"user-{n}") for n in range(4)]
        questions = [QUESTION, QUESTION, "bonifico estero commissioni", QUESTION]

        records = [backend.serve(tokens[n], q) for n, q in enumerate(questions)]

        # Two unique questions in flight: two pipeline executions, the
        # two duplicate arrivals coalesced onto the first flight.
        assert len(runs) == 2
        kinds = [r.answer.cache_hit for r in records]
        assert kinds == ["", "coalesced", "", "coalesced"]
        assert backend.single_flight.stats.coalesced_waits == 2
        # Every coalesced answer is byte-for-byte the leader's text.
        assert records[1].answer.answer_text == records[0].answer.answer_text
        assert records[3].answer.answer_text == records[0].answer.answer_text

    def test_coalesced_requests_feed_the_dashboard(self, tiny_kb, banking_lexicon):
        system, backend = build_backend(tiny_kb, banking_lexicon, shards=2)
        token = backend.login("user-a")
        backend.serve(token, QUESTION)
        backend.serve(token, QUESTION)
        snapshot = backend.metrics.snapshot()
        assert snapshot.cache_served == 1
        assert snapshot.cache_breakdown == {"coalesced": 1}


class TestFlightTableBound:
    def test_completed_flights_are_pruned_past_the_threshold(self):
        """``_prune`` is the only bound on the flight table: keys never asked
        again are dropped once the table passes the threshold, live flights
        stay joinable."""
        from repro.cache.coalescing import _PRUNE_THRESHOLD, SingleFlight

        table = SingleFlight()
        for i in range(_PRUNE_THRESHOLD):  # one-second windows, long elapsed
            table.register((f"q{i}",), f"r{i}", float(i), float(i) + 1.0, answer=None)
        assert len(table) == _PRUNE_THRESHOLD  # at the bound: nothing pruned yet
        now = float(_PRUNE_THRESHOLD) + 10.0
        table.register(("live",), "r-live", now - 0.5, now + 5.0, answer=None)
        table.register(("newest",), "r-newest", now, now + 5.0, answer=None)
        assert len(table) == 2
        assert table.join(("live",), now).request_id == "r-live"
        assert table.join(("q0",), now) is None
