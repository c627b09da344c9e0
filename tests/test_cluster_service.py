"""Service-layer integration of the sharded cluster.

Covers the factory wiring, the backend endpoints (probes into the
dashboard, the ops-only ``cluster_status``), the hardened session tokens,
fault injection through the diurnal load driver, and the CLI surface.
"""

from __future__ import annotations

import re

import pytest

from repro.__main__ import main
from repro.api import create_backend
from repro.cache.config import CacheConfig
from repro.cluster import ClusterConfig, ClusterStatus
from repro.core.config import UniAskConfig
from repro.core.factory import build_uniask_system
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.service.backend import AuthorizationError, BackendService, ROLE_OPS
from repro.service.loadtest import (
    ChaosEvent,
    DiurnalLoadConfig,
    ZipfSampler,
    diurnal_arrivals,
    diurnal_rate,
    run_diurnal_load,
)
from repro.service.monitoring import format_dashboard

TOKEN_PATTERN = re.compile(r"session-[0-9a-f]{32,}")

LOAD_QUESTIONS = ["carta di credito", "bonifico estero", "quadratura di cassa"]


def _cluster_system(lexicon, shards=2, replicas=2, **config):
    kb = KbGenerator(KbGeneratorConfig(num_topics=10, error_families=1, seed=11)).generate()
    config = UniAskConfig(cluster=ClusterConfig(shards=shards, replicas=replicas), **config)
    return build_uniask_system(kb.store(), lexicon, config=config, seed=3)


def _coalescing_backend(system) -> BackendService:
    return BackendService(
        system.engine, system.clock, seed=7, telemetry=system.telemetry, coalescing=True
    )


def _request_lines(system) -> list[dict]:
    return system.telemetry.audit.find("request")


class TestSessionTokens:
    def test_token_is_unguessable_hex(self, system):
        backend = BackendService(system.engine, system.clock, seed=7)
        token = backend.login("mario.rossi")
        assert TOKEN_PATTERN.fullmatch(token)

    def test_token_never_embeds_the_user_id(self, system):
        backend = BackendService(system.engine, system.clock, seed=7)
        token = backend.login("mario.rossi")
        assert "mario" not in token
        assert "rossi" not in token

    def test_tokens_are_distinct_per_login(self, system):
        backend = BackendService(system.engine, system.clock, seed=7)
        tokens = {backend.login(f"user-{i}") for i in range(50)}
        assert len(tokens) == 50

    def test_token_stream_is_deterministic_per_seed(self, system):
        a = BackendService(system.engine, system.clock, seed=7)
        b = BackendService(system.engine, system.clock, seed=7)
        assert [a.login("u") for _ in range(5)] == [b.login("u") for _ in range(5)]
        c = BackendService(system.engine, system.clock, seed=8)
        assert c.login("u") != BackendService(system.engine, system.clock, seed=7).login("u")


class TestClusterBackend:
    @pytest.fixture()
    def deployment(self, lexicon):
        system = _cluster_system(lexicon)
        backend = BackendService(system.engine, system.clock, seed=7)
        return system, backend

    def test_query_records_shard_probes(self, deployment):
        system, backend = deployment
        token = backend.login("user-1")
        record = backend.serve(token, "come sbloccare la carta di credito")
        assert not record.answer.partial_results
        probes = _request_lines(system)[-1]["shard_probes"]
        assert {p["shard"] for p in probes} == {0, 1}
        assert all(p["ok"] for p in probes)
        assert backend.metrics.snapshot().shard_counts == {"shard-0": 1, "shard-1": 1}

    def test_dead_shard_surfaces_in_dashboard(self, deployment):
        system, backend = deployment
        token = backend.login("user-1")
        for replica in system.cluster.replicas(0):
            replica.kill()
        record = backend.serve(token, "errore bonifico istantaneo")
        assert record.answer.partial_results
        snapshot = backend.metrics.snapshot()
        assert snapshot.partial_results == 1
        assert snapshot.shard_health["shard-0"] < 1.0
        assert snapshot.shard_health["shard-1"] == 1.0
        rendered = format_dashboard(snapshot)
        assert "partial results:" in rendered
        assert "per-shard latency" in rendered

    def test_dashboard_reports_per_shard_latency_and_replicas(self, deployment):
        system, backend = deployment
        token = backend.login("user-1")
        for question in ("limiti prelievo bancomat", "apertura conto online"):
            backend.serve(token, question)
        snapshot = backend.metrics.snapshot()
        assert set(snapshot.shard_counts) == {"shard-0", "shard-1"}
        assert all(snapshot.shard_p95[k] >= snapshot.shard_p50[k] > 0 for k in snapshot.shard_counts)
        assert set(snapshot.replica_health) == {
            replica.replica_id for sid in (0, 1) for replica in system.cluster.replicas(sid)
        }

    def test_health_is_the_quotient_of_the_probe_log(self, deployment):
        """The collector keeps (ok, total) counts per key, not one bool per
        probe; the health it reports is ``sum / len`` over the probe rows of
        the audit log's request lines, bit for bit, over a kill / heal run."""
        system, backend = deployment
        token = backend.login("user-1")
        questions = ("limiti prelievo bancomat", "apertura conto online", "bonifico estero")
        for step in range(9):
            if step in (3, 6):
                for replica in system.cluster.replicas(0):
                    replica.kill() if step == 3 else replica.revive()
            backend.serve(token, questions[step % 3])
        by_shard: dict[str, list[bool]] = {}
        by_replica: dict[str, list[bool]] = {}
        for line in _request_lines(system):
            for probe in line["shard_probes"]:
                by_shard.setdefault(f"shard-{probe['shard']}", []).append(probe["ok"])
                if probe["replica"]:
                    by_replica.setdefault(probe["replica"], []).append(probe["ok"])
        snapshot = backend.metrics.snapshot()
        assert snapshot.shard_health == {k: sum(v) / len(v) for k, v in by_shard.items()}
        assert snapshot.replica_health == {k: sum(v) / len(v) for k, v in by_replica.items()}
        assert list(snapshot.shard_health) == list(by_shard)
        assert 0.0 < snapshot.shard_health["shard-0"] < 1.0 == snapshot.shard_health["shard-1"]

    def test_cluster_status_endpoint_is_ops_only(self, deployment):
        system, backend = deployment
        employee = backend.login("user-1")
        with pytest.raises(AuthorizationError):
            backend.ops("cluster_status", employee)
        ops = backend.login("sre-1", role=ROLE_OPS)
        status = backend.ops("cluster_status", ops)
        assert isinstance(status, ClusterStatus)
        assert len(status.shards) == 2

    def test_cluster_status_is_none_on_single_index(self, system):
        backend = BackendService(system.engine, system.clock, seed=7)
        ops = backend.login("sre-1", role=ROLE_OPS)
        assert backend.ops("cluster_status", ops) is None


def _kill_shard(at: float, shard_id: int) -> tuple[ChaosEvent, ...]:
    """Both replicas of *shard_id* down at *at*: one ``kill`` per replica."""
    return tuple(ChaosEvent(at=at, kind="kill", shard_id=shard_id) for _ in range(2))


def _flat_day(duration: float, *chaos: ChaosEvent) -> DiurnalLoadConfig:
    """An open-system load test at a constant one request per second."""
    return DiurnalLoadConfig(duration_seconds=duration, amplitude=0.0, chaos=chaos)


class TestClusterLoadTest:
    """Fault injection against a serving cluster through the one chaos
    driver, :func:`~repro.service.loadtest.run_diurnal_load`."""

    # The diurnal day owns the clock, so the backend must coalesce.  It is
    # built directly over a cache-off deployment (``create_backend`` would
    # coalesce only with every cache tier on), so every request that is not
    # a coalesced joiner reaches the router.

    def test_mid_run_kill_degrades_then_recovers(self, lexicon):
        system = _cluster_system(lexicon)
        backend = _coalescing_backend(system)
        day = _flat_day(
            120.0, *_kill_shard(20.0, 0), ChaosEvent(at=80.0, kind="revive", shard_id=0)
        )
        report = run_diurnal_load(
            backend, system.cluster, system.clock, backend.login("load"), LOAD_QUESTIONS, day
        )
        assert report.unhandled_errors == ()
        assert report.replica_kills == 2
        assert 0 < report.partial < report.total_requests
        snapshot = backend.metrics.snapshot()
        assert snapshot.partial_results == report.partial
        assert all(p95 > 0.0 for p95 in snapshot.shard_p95.values())
        # Degradation is confined to the kill window: a partial request
        # reached the router while the shard was dark, or joined the flight
        # of one that did.
        lines = {line["request_id"]: line for line in _request_lines(system)}
        partial = [line for line in lines.values() if line["partial"]]
        assert len(partial) == report.partial
        for line in partial:
            assert 20.0 <= lines[line.get("coalesced_with", line["request_id"])]["ts"] < 80.0
        assert any(line["ts"] >= 80.0 and not line["partial"] for line in lines.values())

    def test_healthy_run_never_degrades(self, lexicon):
        system = _cluster_system(lexicon)
        backend = _coalescing_backend(system)
        report = run_diurnal_load(
            backend, system.cluster, system.clock, backend.login("load"),
            ["carta di credito"], _flat_day(30.0),
        )
        assert report.total_requests > 0
        assert report.partial == 0

    def test_invalid_scenario_rejected(self, lexicon):
        """A kill aimed at a shard the cluster does not have fails before
        the first arrival, naming the shard and the ids that exist."""
        system = _cluster_system(lexicon)
        backend = _coalescing_backend(system)
        with pytest.raises(ValueError, match=r"shard 7; the cluster's shards are \[0, 1\]"):
            run_diurnal_load(
                backend, system.cluster, system.clock, backend.login("load"),
                LOAD_QUESTIONS, _flat_day(60.0, ChaosEvent(at=30.0, kind="kill", shard_id=7)),
            )
        assert backend.served_queries == 0

    def test_kill_scenario_without_degradation_raises(self, lexicon):
        """A churn run must assert the degradation counters, not just survive.

        Here the kill lands on a cluster the backend does not serve from:
        every request reaches a router while "its" shard is dark and none
        comes back partial, so the run fails loudly instead of returning an
        all-green report.
        """
        serving = _cluster_system(lexicon)
        elsewhere = _cluster_system(lexicon)
        backend = _coalescing_backend(serving)
        with pytest.raises(RuntimeError, match="shard 0 down, yet recorded zero\\s+partial"):
            run_diurnal_load(
                backend, elsewhere.cluster, serving.clock, backend.login("load"),
                LOAD_QUESTIONS, _flat_day(60.0, *_kill_shard(5.0, 0)),
            )


class TestDiurnalLoadGenerator:
    """The chaos driver's own parts: arrivals, popularity, the schedule."""

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

    def test_requires_coalescing_backend(self, lexicon):
        system = _cluster_system(lexicon, replicas=1)
        backend = create_backend(system)  # default cache config: no coalescing
        with pytest.raises(ValueError, match="coalescing"):
            run_diurnal_load(
                backend, system.cluster, system.clock, "t", LOAD_QUESTIONS,
                DiurnalLoadConfig(duration_seconds=60.0),
            )

    def test_chaos_run_reports_churn_and_stays_graceful(self, lexicon):
        system = _cluster_system(lexicon, cache=CacheConfig(enabled=True))
        backend = create_backend(system, seed=7)
        report = run_diurnal_load(
            backend,
            system.cluster,
            system.clock,
            backend.login("load-user"),
            LOAD_QUESTIONS,
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
        assert report.served == report.total_requests
        assert report.replica_kills == 1
        assert report.epoch_flips == 1
        assert report.min_pool < report.max_pool
        assert report.latency_p50 <= report.latency_p95 <= report.latency_p99


class TestClusterCli:
    def test_ask_with_shards_and_status(self, capsys):
        code = main(
            [
                "--topics", "12", "--seed", "3",
                "ask", "Come posso attivare la carta di credito?",
                "--shards", "2", "--cluster-status",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster: 2 shards" in out
        assert "s0/r0" in out

    def test_ask_status_on_single_index(self, capsys):
        code = main(
            ["--topics", "12", "--seed", "3", "ask", "carta di credito", "--cluster-status"]
        )
        assert code == 0
        assert "single-index deployment" in capsys.readouterr().out

    def test_index_command_persists_a_cluster(self, capsys, tmp_path):
        out_dir = tmp_path / "cluster"
        code = main(
            ["--topics", "12", "--seed", "3", "index", "--shards", "2", "--out", str(out_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saved 2-shard cluster" in out
        assert (out_dir / "cluster.json").exists()
        assert (out_dir / "shard-000").is_dir()
        assert (out_dir / "shard-001").is_dir()

    def test_index_command_persists_a_single_index(self, capsys, tmp_path):
        out_dir = tmp_path / "idx"
        code = main(["--topics", "12", "--seed", "3", "index", "--out", str(out_dir)])
        assert code == 0
        assert "saved single index" in capsys.readouterr().out
        assert (out_dir / "records.jsonl").exists() or any(out_dir.iterdir())
