"""Differential guarantees of the incident-forensics layer.

Mirrors the cache, explain, profiling and autoscale differential suites:
incident forensics is a strictly additive overlay.

1. **Incidents off ⇒ byte-identical behaviour.**  A deployment that never
   enables incident forensics produces exactly the surfaces it produced
   before the layer existed, and a default ``UniAskConfig()`` equals an
   explicit ``IncidentConfig(enabled=False)`` — plain and sharded alike
   (that case is ``test_layers_differential.py``).
2. **Injected faults rank as the cause.**  A replica kill (or a cache
   epoch flip) captured by the flight recorder becomes the top-ranked
   suspected cause of the incident a page opens, and the frozen timeline
   orders the fault before the page.
3. **Incidents dedup, recover and reopen** instead of paging once per
   check interval, and the satellite hardening (audit retention ring,
   duplicate ops-route rejection) holds.
"""

from __future__ import annotations

import pytest

from repro.autoscale.loadgen import (
    CHAOS_EPOCH_FLIP,
    CHAOS_KILL,
    ChaosEvent,
    DiurnalLoadConfig,
    run_diurnal_load,
)
from repro.cache.config import CacheConfig
from repro.cluster.config import ClusterConfig
from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset
from repro.obs.audit import AuditLogger
from repro.obs.incident import IncidentConfig
from repro.service.alerting import Alert
from repro.service.backend import ROLE_OPS
from repro.service.ops import collect_ops_routes, ops_route
from tests.differential import QUESTIONS, build, serve_surface


class TestIncidentOffByteIdentity:
    def test_off_deployment_has_no_forensics_wiring(self, tiny_kb, banking_lexicon):
        system, backend = build(tiny_kb, banking_lexicon, shards=3)
        serve_surface(system, backend)
        assert system.recorder is None
        assert backend.incidents is None
        exposition = system.telemetry.render_metrics()
        assert "uniask_incident" not in exposition

    def test_off_ops_routes_degrade_gracefully(self, tiny_kb, banking_lexicon):
        system, backend = build(tiny_kb, banking_lexicon)
        ops_token = backend.login("ops", role=ROLE_OPS)
        payload = backend.ops("incidents", ops_token)
        assert payload == {"enabled": False, "incidents": []}
        with pytest.raises(ValueError):
            backend.ops("diagnose", ops_token, query_id="q-0000001")


def _forensics_backend(tiny_kb, banking_lexicon, shards: int = 2):
    return build(tiny_kb, banking_lexicon, shards=shards, incident=IncidentConfig(enabled=True))


def _page(manager, now: float, rule: str = "slo_latency"):
    """Deliver one synthetic page-severity alert straight to the manager."""
    alert = Alert(rule=rule, severity="critical", message="budget burning")
    return manager.check(now, [alert])


class TestInjectedFaultCauses:
    def test_replica_kill_is_the_top_cause(self, tiny_kb, banking_lexicon):
        system, backend = _forensics_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        backend.serve(token, QUESTIONS[0])  # router observes the healthy baseline
        alive = [replica for replica in system.cluster.replicas(0) if replica.alive]
        alive[-1].kill()
        system.cluster.status()  # the router's control-state diff records the kill
        incident = _page(backend.incidents, system.clock.now())
        assert incident is not None
        assert incident.top_cause == "replica_kill"
        kinds = [event.kind for event in system.recorder.events]
        assert "replica_kill" in kinds
        timeline = backend.incidents.format_timeline(incident)
        assert timeline.index("replica_kill") < timeline.index("** page")

    def test_epoch_flip_is_the_top_cause(self, tiny_kb, banking_lexicon):
        system, backend = _forensics_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        backend.serve(token, QUESTIONS[0])
        system.index.bump_generation()
        system.cluster.status()
        incident = _page(backend.incidents, system.clock.now())
        assert incident is not None
        assert incident.top_cause == "cache_epoch_flip"
        timeline = backend.incidents.format_timeline(incident)
        assert timeline.index("cache_epoch_flip") < timeline.index("** page")

    def test_kill_outranks_older_flip(self, tiny_kb, banking_lexicon):
        system, backend = _forensics_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        backend.serve(token, QUESTIONS[0])
        system.index.bump_generation()
        system.cluster.status()
        system.clock.advance(5.0)
        alive = [replica for replica in system.cluster.replicas(0) if replica.alive]
        alive[-1].kill()
        system.cluster.status()
        incident = _page(backend.incidents, system.clock.now())
        causes = [cause["cause"] for cause in incident.suspected_causes]
        assert causes[0] == "replica_kill"
        assert "cache_epoch_flip" in causes

    def test_page_dedups_into_one_incident(self, tiny_kb, banking_lexicon):
        system, backend = _forensics_backend(tiny_kb, banking_lexicon)
        manager = backend.incidents
        first = _page(manager, 100.0)
        again = _page(manager, 130.0)
        assert again is first
        assert first.count == 2
        assert len(manager.incidents) == 1

    def test_recovery_and_reopen_within_dedup_window(self, tiny_kb, banking_lexicon):
        system, backend = _forensics_backend(tiny_kb, banking_lexicon)
        manager = backend.incidents
        incident = _page(manager, 100.0)
        manager.check(130.0, [])  # page stopped firing
        assert not incident.open
        assert incident.recovered_at == 130.0
        reopened = _page(manager, 150.0)  # flap inside the dedup window
        assert reopened is incident
        assert incident.open
        assert incident.count == 2

    def test_distinct_rules_open_distinct_incidents(self, tiny_kb, banking_lexicon):
        system, backend = _forensics_backend(tiny_kb, banking_lexicon)
        manager = backend.incidents
        first = _page(manager, 100.0, rule="slo_latency")
        second = _page(manager, 200.0, rule="slo_completeness")
        assert first.fingerprint != second.fingerprint
        assert len(manager.incidents) == 2

    def test_incident_lands_in_audit_and_metrics(self, tiny_kb, banking_lexicon):
        system, backend = _forensics_backend(tiny_kb, banking_lexicon)
        manager = backend.incidents
        _page(manager, 100.0)
        manager.check(130.0, [])
        events = [entry["event"] for entry in backend.telemetry.audit.entries]
        assert "incident_open" in events
        assert "incident_recovered" in events
        exposition = system.telemetry.render_metrics()
        assert "uniask_incidents_total" in exposition
        assert "uniask_incidents_open" in exposition

    def test_capture_bundle_freezes_service_surfaces(self, tiny_kb, banking_lexicon):
        from repro.api import AskOptions, AskRequest

        system, backend = _forensics_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        for question in QUESTIONS:
            # Profiled requests carry the deterministic work counters the
            # capture bundle snapshots.
            backend.serve(
                token, AskRequest(question, AskOptions(profile=True, request_id="diff"))
            )
        incident = _page(backend.incidents, system.clock.now())
        assert "dashboard" in incident.capture
        assert "work_totals" in incident.capture and incident.capture["work_totals"]
        assert incident.capture["work_delta"] == incident.capture["work_totals"]


class TestChaosDayDeterminism:
    def test_identical_chaos_days_produce_identical_incident_logs(
        self, tiny_kb, banking_lexicon
    ):
        """The gate: nothing on the incident path reads a wall clock, a
        shared RNG or a hash order — two identical chaos days agree on
        fingerprints, open instants, counts, cause rankings, timelines and
        the full ``ops("incidents", incident_id=…)`` payload."""
        questions = [
            q.text
            for q in generate_human_dataset(
                tiny_kb, HumanDatasetConfig(num_questions=30, seed=23)
            )
        ]
        day = DiurnalLoadConfig(
            duration_seconds=420.0,
            base_rate=1.2,
            amplitude=0.8,
            period_seconds=420.0,
            seed=23,
            # Kill with no revive, then flip the epoch so the herd re-scatters
            # into the dark shard instead of being absorbed by the cache.
            chaos=(
                ChaosEvent(at=140.0, kind=CHAOS_KILL, shard_id=0),
                ChaosEvent(at=170.0, kind=CHAOS_EPOCH_FLIP),
            ),
        )

        def incident_log():
            system, backend = build(
                tiny_kb,
                banking_lexicon,
                cluster=ClusterConfig(shards=2, replicas=1),
                cache=CacheConfig(enabled=True),  # the loadgen drives the clock
                incident=IncidentConfig(enabled=True),
                tracing=False,
                seed=23,
            )
            report = run_diurnal_load(
                backend, system.cluster, system.clock, backend.login("u"), questions, day
            )
            assert report.unhandled_errors == ()
            ops_token = backend.login("ops", role=ROLE_OPS)
            manager = backend.incidents
            return [
                (
                    backend.ops("incidents", ops_token, incident_id=incident.incident_id),
                    manager.format_timeline(incident),
                )
                for incident in manager.incidents
            ]

        first, second = incident_log(), incident_log()
        assert first and first[0][0]["top_cause"] == "replica_kill"
        assert first == second


def _diagnose(backend, query_id: str) -> dict:
    return backend.ops("diagnose", backend.login("ops", role=ROLE_OPS), query_id=query_id)


class TestDiagnose:
    def test_unknown_query_id_raises(self, tiny_kb, banking_lexicon):
        system, backend = _forensics_backend(tiny_kb, banking_lexicon)
        with pytest.raises(KeyError, match="unknown or evicted query id 'q-9999999'"):
            _diagnose(backend, "q-9999999")

    def test_served_request_gets_a_verdict(self, tiny_kb, banking_lexicon):
        system, backend = _forensics_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        record = backend.serve(token, QUESTIONS[0])
        diagnosis = _diagnose(backend, record.query_id)
        assert diagnosis["query_id"] == record.query_id
        assert diagnosis["verdict"] == "normal"
        assert diagnosis["findings"]  # at least the small-baseline note

    def test_partial_request_is_called_degraded(self, tiny_kb, banking_lexicon):
        system, backend = _forensics_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        for replica in system.cluster.replicas(0):
            replica.kill()
        record = backend.serve(token, QUESTIONS[0])
        assert record.answer.partial_results
        diagnosis = _diagnose(backend, record.query_id)
        assert diagnosis["verdict"] == "degraded"
        assert any("partial results" in finding for finding in diagnosis["findings"])

    def test_ops_routes_serve_forensics(self, tiny_kb, banking_lexicon):
        system, backend = _forensics_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        record = backend.serve(token, QUESTIONS[0])
        ops_token = backend.login("ops", role=ROLE_OPS)
        status = backend.ops("incidents", ops_token)
        assert status["enabled"] is True
        incident = _page(backend.incidents, system.clock.now())
        payload = backend.ops("incidents", ops_token, incident_id=incident.incident_id)
        assert payload["incident_id"] == incident.incident_id
        assert payload["status"] == "open"
        assert payload["alerts"] == [
            {"rule": "slo_latency", "severity": "critical", "message": "budget burning"}
        ]
        assert payload["events"] == [event.to_dict() for event in incident.events]
        assert payload["capture"] is incident.capture
        diagnosis = backend.ops("diagnose", ops_token, query_id=record.query_id)
        assert diagnosis["verdict"] == "normal"


class TestAuditRetentionRing:
    def test_ring_keeps_only_the_most_recent(self):
        audit = AuditLogger(retention=3)
        for i in range(5):
            audit.info("request", request_id=f"q-{i}")
        assert len(audit) == 3
        assert audit.total_logged == 5
        assert [entry["request_id"] for entry in audit.entries] == ["q-2", "q-3", "q-4"]

    def test_file_sink_stays_complete(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        audit = AuditLogger(path=path, retention=2)
        for i in range(5):
            audit.info("request", request_id=f"q-{i}")
        assert len(audit) == 2
        assert path.read_text().count('"request"') == 5

    def test_invalid_retention_rejected(self):
        with pytest.raises(ValueError):
            AuditLogger(retention=0)


class TestOpsRouteCollision:
    def test_two_handlers_for_one_route_rejected(self):
        class Broken:
            @ops_route("dup", description="first")
            def first(self):
                return 1

            @ops_route("dup", description="second")
            def second(self):
                return 2

        with pytest.raises(ValueError, match="dup"):
            collect_ops_routes(Broken)

    def test_subclass_override_stays_legal(self):
        class Base:
            @ops_route("probe", description="base")
            def probe(self):
                return "base"

        class Child(Base):
            @ops_route("probe", description="child")
            def probe(self):  # noqa: F811 — deliberate override
                return "child"

        routes = collect_ops_routes(Child)
        assert routes["probe"].handler == "probe"
        assert routes["probe"].description == "child"
