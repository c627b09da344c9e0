"""The autoscaling control loop: scale-up/down, rebalance, hedging, loadgen.

Complements ``test_autoscale_differential.py`` (off-by-default byte
identity, the shed ladder) with the *acting* side: the autoscaler's
decisions against a real sharded cluster, the ring rebalance's minimal
movement, the replica-group grow/shrink surface, and the chaos-capable
diurnal load generator end to end.
"""

from __future__ import annotations

import pytest

from repro.api import (
    AskOptions,
    AskRequest,
    create_backend,
    create_engine,
)
from repro.autoscale import AdaptiveHedgeBudget, AdmissionConfig, AutoscaleConfig, admission
from repro.autoscale import autoscaler as loop
from repro.autoscale.autoscaler import EVALUATE_INTERVAL, Autoscaler
from repro.autoscale.loadgen import (
    ChaosEvent,
    DiurnalLoadConfig,
    ZipfSampler,
    diurnal_arrivals,
    diurnal_rate,
    run_diurnal_load,
)
from repro.cache.config import CacheConfig
from repro.cluster.config import ClusterConfig
from repro.core.config import UniAskConfig
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset

QUESTIONS = [
    "come sbloccare la carta di credito",
    "bonifico estero commissioni",
    "limiti prelievo bancomat",
    "apertura conto online",
    "quadratura di cassa",
    "errore T24 in fase di bonifico",
]


def _cluster(tiny_kb, banking_lexicon, shards=2, replicas=1, autoscale=None, cache=None):
    config = UniAskConfig(
        cluster=ClusterConfig(shards=shards, replicas=replicas),
        autoscale=autoscale or AutoscaleConfig(enabled=True),
        cache=cache or CacheConfig(),
    )
    return create_engine(tiny_kb.store(), banking_lexicon, config=config, seed=23)


def _feed(scaler: Autoscaler, rate: float, service: float, start: float, duration: float) -> float:
    """Feed a constant-rate request stream; returns the end instant."""
    t = start
    end = start + duration
    while t < end:
        scaler.note_request(t, service)
        t += 1.0 / rate
    return end


class TestAutoscalerScaling:
    def test_utilization_overload_adds_replica_to_hottest_shard(
        self, tiny_kb, banking_lexicon
    ):
        system = _cluster(tiny_kb, banking_lexicon)
        scaler = system.autoscaler
        # Offered load ~4 erlangs over 2 replicas: utilization 2.0 >> 0.7.
        end = _feed(scaler, rate=2.0, service=2.0, start=0.0, duration=60.0)
        decisions = scaler.evaluate(end)
        assert [d.action for d in decisions] == ["add_replica"]
        decision = decisions[0]
        assert decision.reason == "utilization"
        hottest = max(
            system.cluster.status().shards,
            key=lambda s: s.chunks,
        ).shard_id
        assert decision.shard_id == hottest
        assert any(
            r.replica_id == decision.detail
            for r in system.cluster.replicas(decision.shard_id)
        )

    def test_burn_rate_triggers_scale_up(self, tiny_kb, banking_lexicon):
        system = _cluster(tiny_kb, banking_lexicon)
        scaler = system.autoscaler
        # Low load, but every response breaches the latency SLO: both burn
        # windows trip while utilization stays under target.
        t = 0.0
        while t < 360.0:
            scaler.note_request(t, loop.LATENCY_SLO_SECONDS + 5.0)
            t += 4.0
        decisions = scaler.evaluate(360.0)
        assert decisions and decisions[0].reason == "burn_rate"

    def test_scale_up_respects_cooldown_and_max(self, tiny_kb, banking_lexicon, monkeypatch):
        monkeypatch.setattr(loop, "MAX_REPLICAS", 2)
        monkeypatch.setattr(loop, "SCALE_UP_COOLDOWN", 30.0)
        system = _cluster(tiny_kb, banking_lexicon)
        scaler = system.autoscaler
        end = _feed(scaler, rate=2.0, service=4.0, start=0.0, duration=60.0)
        first = scaler.evaluate(end)
        assert [d.action for d in first] == ["add_replica"]
        # Inside the cooldown: nothing, despite continued overload.
        assert scaler.evaluate(end + 10.0) == []
        # Past the cooldown but both shards at max_replicas: nothing.
        end2 = _feed(scaler, rate=2.0, service=4.0, start=end + 0.5, duration=60.0)
        second = scaler.evaluate(end2)
        assert [d.action for d in second] == ["add_replica"]
        end3 = _feed(scaler, rate=2.0, service=4.0, start=end2 + 0.5, duration=60.0)
        assert all(d.action != "add_replica" for d in scaler.evaluate(end3))

    def test_idle_cluster_scales_down_but_never_below_min(
        self, tiny_kb, banking_lexicon, monkeypatch
    ):
        monkeypatch.setattr(loop, "MIN_REPLICAS", 1)
        monkeypatch.setattr(loop, "SCALE_DOWN_COOLDOWN", 50.0)
        system = _cluster(tiny_kb, banking_lexicon, replicas=2)
        scaler = Autoscaler(system.cluster, system.clock)
        # A trickle of fast requests: utilization ~0.
        end = _feed(scaler, rate=0.2, service=0.05, start=0.0, duration=120.0)
        first = scaler.evaluate(end)
        assert [d.action for d in first] == ["remove_replica"]
        assert first[0].reason == "idle"
        # Drain to min_replicas everywhere, then verify it stops.
        at = end
        for _ in range(8):
            at += 60.0
            scaler.evaluate(at)
        status = system.cluster.status()
        for shard in status.shards:
            assert sum(1 for r in shard.replicas if r.alive) >= 1
        assert sum(
            1 for d in scaler.decisions if d.action == "remove_replica"
        ) == 2  # started with 2+2, floor is 1+1

    def test_dead_shard_is_healed_bypassing_the_cooldown(
        self, tiny_kb, banking_lexicon
    ):
        system = _cluster(tiny_kb, banking_lexicon)
        scaler = system.autoscaler
        # Burn the scale-up cooldown with a regular utilization scale-up.
        end = _feed(scaler, rate=2.0, service=2.0, start=0.0, duration=60.0)
        assert [d.action for d in scaler.evaluate(end)] == ["add_replica"]
        # Kill every replica of shard 0 inside the cooldown window: the
        # repair must not wait it out.
        for replica in system.cluster.replicas(0):
            if replica.alive:
                replica.kill()
        decisions = scaler.evaluate(end + 1.0)
        assert [d.reason for d in decisions] == ["dead_shard"]
        assert decisions[0].shard_id == 0
        assert any(r.alive for r in system.cluster.replicas(0))

    def test_maybe_evaluate_honours_interval(self, tiny_kb, banking_lexicon):
        system = _cluster(tiny_kb, banking_lexicon)
        scaler = system.autoscaler
        interval = EVALUATE_INTERVAL
        assert scaler.maybe_evaluate(0.0) == []  # first call evaluates, no action
        before = scaler._last_evaluate
        scaler.maybe_evaluate(interval / 2.0)  # inside the interval: no-op
        assert scaler._last_evaluate == before
        scaler.maybe_evaluate(interval + 1.0)
        assert scaler._last_evaluate == interval + 1.0

    def test_status_payload_shape(self, tiny_kb, banking_lexicon):
        system = _cluster(tiny_kb, banking_lexicon)
        scaler = system.autoscaler
        end = _feed(scaler, rate=2.0, service=2.0, start=0.0, duration=60.0)
        scaler.evaluate(end)
        status = scaler.status()
        assert status["enabled"] is True
        assert status["total_replicas"] == sum(status["replicas"].values())
        assert status["decision_count"] == len(scaler.decisions)
        assert status["decisions"][-1]["action"] == "add_replica"
        assert "hedging" in status  # adaptive hedging is on by default

    def test_actions_counter_and_replica_gauge_exposed(self, tiny_kb, banking_lexicon):
        system = _cluster(tiny_kb, banking_lexicon)
        scaler = system.autoscaler
        end = _feed(scaler, rate=2.0, service=2.0, start=0.0, duration=60.0)
        scaler.evaluate(end)
        exposition = system.telemetry.render_metrics()
        assert 'uniask_autoscale_actions_total{action="add_replica"} 1' in exposition
        assert 'uniask_autoscale_replicas{shard="0"}' in exposition


class TestHotShardRebalance:
    def test_skewed_shard_rebalances_to_coldest(self, tiny_kb, banking_lexicon):
        system = _cluster(tiny_kb, banking_lexicon, shards=3)
        index = system.index
        chunks = {sid: len(index.shard_index(sid)) for sid in index.shard_ids}
        hottest = max(chunks, key=chunks.get)
        coldest = min(chunks, key=chunks.get)
        before_total = len(index)
        generation = index.generation
        moved = index.rebalance_shard(hottest, coldest, fraction=0.25)
        assert moved > 0
        assert len(index) == before_total  # nothing lost, nothing duplicated
        assert index.generation == generation + 1  # caches re-epoch
        after = {sid: len(index.shard_index(sid)) for sid in index.shard_ids}
        assert after[hottest] < chunks[hottest]
        assert after[coldest] > chunks[coldest]
        # Minimal movement: every shard not involved is untouched.
        for sid in index.shard_ids:
            if sid not in (hottest, coldest):
                assert after[sid] == chunks[sid]

    def test_rebalance_validates_arguments(self, tiny_kb, banking_lexicon):
        system = _cluster(tiny_kb, banking_lexicon, shards=2)
        index = system.index
        with pytest.raises(KeyError):
            index.rebalance_shard(99, 0)
        with pytest.raises(ValueError):
            index.rebalance_shard(0, 0)
        with pytest.raises(ValueError):
            index.rebalance_shard(0, 1, fraction=0.0)

    def test_search_results_survive_a_rebalance(self, tiny_kb, banking_lexicon):
        system = _cluster(tiny_kb, banking_lexicon, shards=3)
        before = [r.record.chunk_id for r in system.cluster.search(QUESTIONS[0])]
        chunks = {
            sid: len(system.index.shard_index(sid)) for sid in system.index.shard_ids
        }
        hottest = max(chunks, key=chunks.get)
        coldest = min(chunks, key=chunks.get)
        system.index.rebalance_shard(hottest, coldest, fraction=0.5)
        after = [r.record.chunk_id for r in system.cluster.search(QUESTIONS[0])]
        assert set(before) == set(after)

    def test_autoscaler_emits_rebalance_on_doc_skew(self, tiny_kb, banking_lexicon, monkeypatch):
        monkeypatch.setattr(loop, "REBALANCE_SKEW", 1.05)
        system = _cluster(tiny_kb, banking_lexicon, shards=3)
        scaler = system.autoscaler
        decisions = scaler.evaluate(0.0)
        rebalances = [d for d in decisions if d.action == "rebalance"]
        assert rebalances and rebalances[0].reason == "doc_skew"
        assert rebalances[0].detail.startswith("moved=")


class TestReplicaGroupScaling:
    def test_add_replica_ids_are_monotonic_and_never_reused(
        self, tiny_kb, banking_lexicon
    ):
        system = _cluster(tiny_kb, banking_lexicon, replicas=2)
        cluster = system.cluster
        first = cluster.add_replica(0)
        assert first == "s0/r2"
        removed = cluster.remove_replica(0)
        assert removed == first  # newest alive goes first
        second = cluster.add_replica(0)
        assert second == "s0/r3"  # the freed index is not recycled

    def test_remove_replica_prefers_dead_and_keeps_one_alive(
        self, tiny_kb, banking_lexicon
    ):
        system = _cluster(tiny_kb, banking_lexicon, replicas=2)
        cluster = system.cluster
        replicas = cluster.replicas(0)
        replicas[0].kill()
        assert cluster.remove_replica(0) == replicas[0].replica_id
        with pytest.raises(ValueError):
            cluster.remove_replica(0)  # one alive replica must remain


class TestAdaptiveHedgingInRouter:
    def test_enabled_cluster_gets_a_budget(self, tiny_kb, banking_lexicon):
        system = _cluster(tiny_kb, banking_lexicon)
        assert isinstance(system.cluster.hedge_budget, AdaptiveHedgeBudget)
        assert system.autoscaler.hedge_budget is system.cluster.hedge_budget

    def test_evaluate_feeds_utilization_to_the_budget(self, tiny_kb, banking_lexicon):
        system = _cluster(tiny_kb, banking_lexicon)
        scaler = system.autoscaler
        budget = system.cluster.hedge_budget
        assert budget.allowed_fraction() > 0.0
        end = _feed(scaler, rate=2.0, service=4.0, start=0.0, duration=60.0)
        scaler.evaluate(end)
        assert budget.allowed_fraction() == 0.0  # saturated: hedging off


class TestDiurnalLoadGenerator:
    def test_arrivals_are_deterministic_and_follow_the_rate(self):
        config = DiurnalLoadConfig(
            duration_seconds=1200.0, base_rate=1.0, period_seconds=1200.0
        )
        first = diurnal_arrivals(config)
        second = diurnal_arrivals(config)
        assert first == second
        assert first == sorted(first)
        assert abs(len(first) - config.base_rate * config.duration_seconds) <= 2
        # Peak-half arrivals outnumber trough-half (the diurnal shape).
        half = config.duration_seconds / 2.0
        trough = sum(1 for t in first if t < half)
        peak = len(first) - trough
        assert peak > trough
        assert diurnal_rate(config, 0.0) < diurnal_rate(config, half)

    def test_zipf_sampler_skews_to_the_head(self):
        import random

        sampler = ZipfSampler([f"q{i}" for i in range(20)], 1.1, random.Random(3))
        counts: dict[str, int] = {}
        for _ in range(2000):
            question = sampler.sample()
            counts[question] = counts.get(question, 0) + 1
        assert counts["q0"] > counts.get("q19", 0)

    def test_chaos_event_validation(self):
        with pytest.raises(ValueError):
            ChaosEvent(at=-1.0, kind="kill")
        with pytest.raises(ValueError):
            ChaosEvent(at=0.0, kind="explode")

    def test_requires_coalescing_backend(self, tiny_kb, banking_lexicon):
        system = _cluster(tiny_kb, banking_lexicon)
        backend = create_backend(system)  # default cache config: no coalescing
        with pytest.raises(ValueError, match="coalescing"):
            run_diurnal_load(
                backend, system.cluster, system.clock, "t", QUESTIONS,
                DiurnalLoadConfig(duration_seconds=60.0),
            )

    def test_chaos_run_reports_churn_and_stays_graceful(
        self, tiny_kb, banking_lexicon, monkeypatch
    ):
        monkeypatch.setattr(admission, "TARGET_LOAD", 2.0)
        system = _cluster(
            tiny_kb,
            banking_lexicon,
            replicas=2,
            autoscale=AutoscaleConfig(enabled=True, admission=AdmissionConfig(enabled=True)),
            cache=CacheConfig(enabled=True),
        )
        backend = create_backend(system, seed=7)
        token = backend.login("load-user")
        report = run_diurnal_load(
            backend,
            system.cluster,
            system.clock,
            token,
            QUESTIONS,
            DiurnalLoadConfig(
                duration_seconds=600.0,
                base_rate=1.0,
                period_seconds=600.0,
                chaos=(
                    ChaosEvent(at=120.0, kind="kill", shard_id=0),
                    ChaosEvent(at=240.0, kind="revive", shard_id=0),
                    ChaosEvent(at=300.0, kind="epoch_flip"),
                ),
            ),
        )
        assert report.unhandled_errors == ()
        assert report.total_requests > 0
        assert report.served + report.rejected == report.total_requests
        assert report.replica_kills == 1
        assert report.epoch_flips == 1
        assert report.min_pool < report.max_pool or report.min_pool == report.max_pool
        assert 0.0 <= report.shed_rate <= 1.0
        assert report.latency_p50 <= report.latency_p95 <= report.latency_p99

    def test_chaos_day_holds_the_slo_only_with_the_control_loop(
        self, banking_lexicon, monkeypatch
    ):
        """The gate: same chaos day, autoscaler + admission ON vs the fixed pool.

        ON must keep p99 within the latency SLO the loop defends by adding
        replicas and shedding; OFF (same arrivals, same chaos) must breach
        it, or the day proves nothing.  All simulated time — deterministic.
        """
        seed, slo, day = 2025, 8.0, 1800.0
        monkeypatch.setattr(loop, "LATENCY_SLO_SECONDS", slo)
        monkeypatch.setattr(admission, "TARGET_LOAD", 0.9)
        kb = KbGenerator(
            KbGeneratorConfig(num_topics=36, error_families=3, seed=seed)
        ).generate()
        questions = [
            q.text
            for q in generate_human_dataset(
                kb, HumanDatasetConfig(num_questions=60, seed=seed)
            )
        ]
        load = DiurnalLoadConfig(
            duration_seconds=day,
            base_rate=1.4,
            amplitude=0.8,
            period_seconds=day,
            seed=seed,
            chaos=(
                ChaosEvent(at=0.35 * day, kind="kill", shard_id=0),  # ramp to peak
                ChaosEvent(at=0.46 * day, kind="kill", shard_id=0),  # correlated:
                ChaosEvent(at=0.48 * day, kind="kill", shard_id=1),  # both shards hit
                ChaosEvent(at=0.50 * day, kind="epoch_flip"),  # herd lands at peak
                ChaosEvent(at=0.60 * day, kind="revive", shard_id=0),
                ChaosEvent(at=0.62 * day, kind="revive", shard_id=1),
                ChaosEvent(at=0.75 * day, kind="epoch_flip"),  # herd on the way down
            ),
        )

        def play(enabled: bool):
            config = UniAskConfig(
                cluster=ClusterConfig(shards=2, replicas=1),
                cache=CacheConfig(enabled=True),  # the loadgen drives the clock
                autoscale=AutoscaleConfig(
                    enabled=enabled, admission=AdmissionConfig(enabled=enabled)
                ),
            )
            system = create_engine(kb.store(), banking_lexicon, config=config, seed=seed)
            backend = create_backend(system, seed=seed)
            report = run_diurnal_load(
                backend, system.cluster, system.clock, backend.login("load-user"),
                questions, load,
            )
            return system, report

        on_system, on = play(enabled=True)
        _, off = play(enabled=False)
        assert on.unhandled_errors == () and off.unhandled_errors == ()
        assert on.latency_p99 <= slo < off.latency_p99
        assert any(d.action == "add_replica" for d in on_system.autoscaler.decisions)
        assert on.rejected + on.degraded_cached + on.degraded_bm25 > 0
        assert off.rejected == 0
