"""Service-level telemetry tests: ops routes, probes, exposition, exemplars,
the audit log as a run's evidence, and output-neutrality of the whole layer."""

from __future__ import annotations

import pytest

from repro.api import create_backend
from repro.cache import CacheConfig
from repro.cluster import ClusterConfig
from repro.core.config import UniAskConfig
from repro.core.factory import build_uniask_system
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon
from repro.obs.audit import read_audit_log
from repro.obs import telemetry as telemetry_module
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.service.backend import (
    AuthenticationError,
    AuthorizationError,
    BackendService,
    ROLE_OPS,
)
from repro.service.loadtest import ChaosEvent, DiurnalLoadConfig, run_diurnal_load
from repro.service.ops import OpsRoute

QUESTIONS = [
    "come sbloccare la carta di credito",
    "bonifico estero commissioni",
    "limiti prelievo bancomat",
    "apertura conto online",
]


@pytest.fixture(scope="module")
def small_store_and_lexicon():
    kb = KbGenerator(KbGeneratorConfig(num_topics=16, error_families=2, seed=11)).generate()
    return kb, build_banking_lexicon()


def _fresh_system(small_store_and_lexicon, config: UniAskConfig | None = None):
    kb, lexicon = small_store_and_lexicon
    return build_uniask_system(kb.store(), lexicon, config=config, seed=3)


def _cluster_system(small_store_and_lexicon):
    return _fresh_system(
        small_store_and_lexicon,
        config=UniAskConfig(cluster=ClusterConfig(shards=2, replicas=2)),
    )


class TestOpsRouteTable:
    """Satellite: one route table, one authorization check, probe routes open."""

    @pytest.fixture()
    def backend(self, small_store_and_lexicon):
        system = _fresh_system(small_store_and_lexicon)
        return BackendService(system.engine, system.clock, seed=7, tracing=True)

    def test_route_table_covers_the_ops_surface(self, backend):
        assert set(backend.OPS_ROUTES) == {
            "dashboard",
            "cluster_status",
            "metrics",
            "slo",
            "explain",
            "profile",
            "incidents",
            "diagnose",
            "healthz",
            "readyz",
        }
        for route in backend.OPS_ROUTES.values():
            assert isinstance(route, OpsRoute)
            assert route.name
            assert callable(getattr(backend, route.handler))

    def test_probe_routes_are_unprivileged_in_the_table(self, backend):
        for name, route in backend.OPS_ROUTES.items():
            expected = name not in ("healthz", "readyz")
            assert route.privileged is expected

    @pytest.mark.parametrize(
        "route",
        ["dashboard", "cluster_status", "metrics", "slo", "explain", "profile"],
    )
    def test_privileged_routes_reject_missing_token(self, backend, route):
        with pytest.raises(AuthenticationError):
            backend.ops(route, "not-a-token")

    @pytest.mark.parametrize(
        "route",
        ["dashboard", "cluster_status", "metrics", "slo", "explain", "profile"],
    )
    def test_privileged_routes_reject_employee_role(self, backend, route):
        token = backend.login("mario")  # default employee role
        with pytest.raises(AuthorizationError):
            backend.ops(route, token)

    def test_probe_routes_require_no_token(self, backend):
        assert backend.ops("healthz")["status"] == "ok"
        assert backend.ops("readyz")["ready"] is True

    def test_unknown_route_raises(self, backend):
        with pytest.raises(KeyError):
            backend.ops("drop_tables")

    def test_the_quality_route_is_gone(self, backend):
        ops_token = backend.login("sre", role=ROLE_OPS)
        with pytest.raises(KeyError, match="unknown ops route 'quality'"):
            backend.ops("quality", ops_token)

    def test_public_wrappers_dispatch_through_table(self, backend):
        ops = backend.login("sre", role=ROLE_OPS)
        token = backend.login("mario")
        backend.serve(token, QUESTIONS[0])
        assert backend.ops("dashboard", ops).queries == 1
        assert backend.ops("cluster_status", ops) is None  # single-index deployment
        assert "uniask_queries_total" in backend.ops("metrics", ops)
        assert backend.ops("slo", ops) == []


class TestProbes:
    def test_healthz_reports_clock_and_volume(self, small_store_and_lexicon):
        system = _fresh_system(small_store_and_lexicon)
        backend = BackendService(system.engine, system.clock, seed=7)
        token = backend.login("mario")
        backend.serve(token, QUESTIONS[0])
        health = backend.ops("healthz")
        assert health["served_queries"] == 1
        assert health["time"] == system.clock.now()

    def test_readyz_single_index(self, small_store_and_lexicon):
        system = _fresh_system(small_store_and_lexicon)
        backend = BackendService(system.engine, system.clock, seed=7)
        assert backend.ops("readyz") == {"ready": True, "mode": "single-index", "shards": {}}

    def test_readyz_tracks_cluster_degradation(self, small_store_and_lexicon):
        system = _cluster_system(small_store_and_lexicon)
        backend = BackendService(system.engine, system.clock, seed=7)
        ready = backend.ops("readyz")
        assert ready == {
            "ready": True,
            "mode": "cluster",
            "shards": {"shard-0": True, "shard-1": True},
        }
        for replica in system.cluster.replicas(0):
            replica.kill()
        degraded = backend.ops("readyz")
        assert degraded["ready"] is False
        assert degraded["shards"]["shard-0"] is False
        assert degraded["shards"]["shard-1"] is True
        for replica in system.cluster.replicas(0):
            replica.revive()
        assert backend.ops("readyz")["ready"] is True


class TestExpositionEndToEnd:
    def test_metrics_endpoint_serves_the_full_registry(self, small_store_and_lexicon):
        system = _fresh_system(small_store_and_lexicon)
        backend = BackendService(system.engine, system.clock, seed=7, tracing=True)
        token = backend.login("mario")
        for question in QUESTIONS:
            backend.serve(token, question)
        text = backend.ops("metrics", backend.login("sre", role=ROLE_OPS))
        # Service-level instruments (owned by the collector)…
        assert "uniask_queries_total{" in text
        assert "uniask_response_seconds_bucket{" in text
        assert "uniask_stage_seconds_bucket{" in text
        # …and pipeline instruments from the same factory registry.
        assert "uniask_requests_total{" in text
        assert "uniask_llm_tokens_total{" in text
        assert "uniask_guardrail_checks_total{" in text
        # Exposition totals agree with the dashboard.
        snapshot = backend.ops("dashboard", backend.login("sre2", role=ROLE_OPS))
        assert f"uniask_response_seconds_count {snapshot.queries}" in text

    def test_exemplars_link_to_retained_traces(self, small_store_and_lexicon, monkeypatch):
        monkeypatch.setattr(telemetry_module, "TRACE_SAMPLE_RATE", 1.0)
        system = _fresh_system(small_store_and_lexicon)
        telemetry = Telemetry(TelemetryConfig(), clock=system.clock)
        backend = BackendService(
            system.engine, system.clock, seed=7, tracing=True, telemetry=telemetry
        )
        token = backend.login("mario")
        records = [backend.serve(token, q) for q in QUESTIONS]
        text = backend.ops("metrics", backend.login("sre", role=ROLE_OPS))
        assert '# {trace_id="q-' in text  # OpenMetrics exemplar syntax
        # Every exemplar in every histogram resolves to a retained trace.
        exemplar_ids = set()
        for histogram in telemetry.registry.histograms():
            for child in histogram.children.values():
                for exemplar in child.exemplars:
                    if exemplar is not None:
                        exemplar_ids.add(exemplar[1])
        assert exemplar_ids  # rate=1 guarantees at least one
        for trace_id in exemplar_ids:
            assert telemetry.sampler.get(trace_id) is not None
        # And retained ids are exactly the served query ids here.
        assert set(telemetry.sampler.retained_ids) == {r.query_id for r in records}

    def test_sampling_decisions_are_reproducible_across_backends(
        self, small_store_and_lexicon, monkeypatch
    ):
        monkeypatch.setattr(telemetry_module, "TRACE_SAMPLE_RATE", 0.5)
        monkeypatch.setattr(telemetry_module, "SAMPLER_SEED", 21)

        def retained() -> list[str]:
            system = _fresh_system(small_store_and_lexicon)
            telemetry = Telemetry(TelemetryConfig(), clock=system.clock)
            backend = BackendService(
                system.engine, system.clock, seed=7, tracing=True, telemetry=telemetry
            )
            token = backend.login("mario")
            for question in QUESTIONS * 3:
                backend.serve(token, question)
            return telemetry.sampler.retained_ids

        assert retained() == retained()


class TestOutputNeutrality:
    """With telemetry at default settings, outputs are byte-identical to a
    deployment with the layer disabled."""

    def test_answers_identical_with_and_without_telemetry(self, small_store_and_lexicon):
        def serve(enabled: bool):
            config = UniAskConfig(telemetry=TelemetryConfig(enabled=enabled))
            kb, lexicon = small_store_and_lexicon
            system = build_uniask_system(kb.store(), lexicon, config=config, seed=3)
            backend = BackendService(system.engine, system.clock, seed=7, tracing=True)
            token = backend.login("mario")
            out = []
            for question in QUESTIONS:
                record = backend.serve(token, question)
                out.append(
                    (
                        record.answer.outcome,
                        record.answer.answer_text,
                        repr(record.answer.response_time),
                        tuple(c.key for c in record.answer.citations),
                    )
                )
            return out

        assert serve(True) == serve(False)

    def test_disabled_telemetry_registers_nothing(self, small_store_and_lexicon):
        kb, lexicon = small_store_and_lexicon
        system = build_uniask_system(
            kb.store(),
            lexicon,
            config=UniAskConfig(telemetry=TelemetryConfig(enabled=False)),
            seed=3,
        )
        assert not system.telemetry.enabled
        assert system.telemetry.render_metrics() == ""


class TestCollectorIsolation:
    def test_second_backend_on_same_engine_starts_from_zero(self, small_store_and_lexicon):
        system = _fresh_system(small_store_and_lexicon)
        first = BackendService(system.engine, system.clock, seed=7)
        token = first.login("mario")
        for question in QUESTIONS:
            first.serve(token, question)
        assert first.ops("dashboard", first.login("sre", role=ROLE_OPS)).queries == len(QUESTIONS)
        # A new service over the same engine (same shared registry) must not
        # inherit the previous collector's counts.
        second = BackendService(system.engine, system.clock, seed=7)
        assert second.ops("dashboard", second.login("sre", role=ROLE_OPS)).queries == 0


class TestAuditLog:
    def test_request_entries_carry_the_serving_context(self, small_store_and_lexicon):
        system = _cluster_system(small_store_and_lexicon)
        backend = BackendService(system.engine, system.clock, seed=7, tracing=True)
        token = backend.login("mario")
        record = backend.serve(token, QUESTIONS[0])
        entries = backend.telemetry.audit.find("request")
        assert len(entries) == 1
        entry = entries[0]
        assert entry["request_id"] == record.query_id
        assert entry["user"] == "mario"
        assert entry["outcome"] == record.answer.outcome
        assert entry["response_time"] == record.answer.response_time
        assert entry["stages"]  # traced request → per-stage durations
        assert len(entry["shard_probes"]) == 2  # one probe per shard
        assert {probe["shard"] for probe in entry["shard_probes"]} == {0, 1}
        if record.answer.guardrail_report is not None:
            assert entry["guardrails"]

    def test_feedback_entries(self, small_store_and_lexicon):
        from repro.service.feedback import GranularFeedback

        system = _fresh_system(small_store_and_lexicon)
        backend = BackendService(system.engine, system.clock, seed=7)
        token = backend.login("mario")
        record = backend.serve(token, QUESTIONS[0])
        backend.feedback(
            token,
            GranularFeedback(
                query_id=record.query_id,
                user_id="mario",
                helpful=True,
                retrieved_relevant=True,
                rating=5,
            ),
        )
        entries = backend.telemetry.audit.find("feedback")
        assert entries and entries[0]["request_id"] == record.query_id

    def test_log_is_deterministic_across_runs(self, small_store_and_lexicon):
        def run() -> list[str]:
            system = _fresh_system(small_store_and_lexicon)
            backend = BackendService(system.engine, system.clock, seed=7, tracing=True)
            token = backend.login("mario")
            for question in QUESTIONS:
                backend.serve(token, question)
            return backend.telemetry.audit.lines()

        assert run() == run()


class TestLoadTestReplay:
    def test_cluster_load_test_report_is_replayable_from_the_log(
        self, small_store_and_lexicon, tmp_path
    ):
        """A chaos day's report is recomputed from the backend's audit file
        alone: one ``request`` line per served request, carrying ``partial``
        — no driver-side log and no replay code."""
        path = tmp_path / "audit.jsonl"
        system = _fresh_system(
            small_store_and_lexicon,
            config=UniAskConfig(
                cluster=ClusterConfig(shards=2, replicas=2),
                cache=CacheConfig(enabled=True),
                telemetry=TelemetryConfig(audit_path=str(path)),
            ),
        )
        backend = create_backend(system, seed=7)
        dark = tuple(ChaosEvent(at=100.0, kind="kill", shard_id=0) for _ in range(2))
        day = DiurnalLoadConfig(
            duration_seconds=300.0,
            period_seconds=300.0,
            chaos=dark
            + (
                ChaosEvent(at=110.0, kind="epoch_flip"),  # the herd re-scatters into the dark
                ChaosEvent(at=200.0, kind="revive", shard_id=0),
            ),
        )
        report = run_diurnal_load(
            backend, system.cluster, system.clock, backend.login("load"), QUESTIONS, day
        )
        assert report.unhandled_errors == ()
        entries = list(read_audit_log(path))
        requests = [entry for entry in entries if entry["event"] == "request"]
        recomputed = {
            "served": len(requests),
            "partial": sum(entry["partial"] for entry in requests),
        }
        assert recomputed == {name: getattr(report, name) for name in recomputed}
        assert all(recomputed.values())  # the day exercised every counter


class TestCli:
    def test_metrics_subcommand(self, capsys, tmp_path):
        from repro.__main__ import main

        audit_path = tmp_path / "audit.jsonl"
        code = main(
            ["--topics", "8", "metrics", "--queries", "3", "--audit", str(audit_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE uniask_queries_total counter" in out
        assert "healthz:" in out and "readyz:" in out
        assert "trace sampler:" in out
        entries = list(read_audit_log(audit_path))
        assert sum(1 for e in entries if e["event"] == "request") == 3

    def test_ask_metrics_flag(self, capsys):
        from repro.__main__ import main

        code = main(["--topics", "8", "ask", "carta di credito", "--metrics"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE uniask_requests_total counter" in out
