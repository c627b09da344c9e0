"""Differential guarantees of the profiling / work-accounting / saturation
layer.

Mirrors the cache and explain differential suites: profiling is a strictly
additive overlay.

1. **Profiling off ⇒ byte-identical behaviour.**  A deployment that never
   enables profiling or capacity telemetry produces exactly the surfaces it
   produced before the layer existed, and ``AskOptions()`` equals an
   explicit ``AskOptions(profile=False)`` (backend flags explicitly off:
   ``test_layers_differential.py``).
2. **Profiling on ⇒ same answers, same clock.**  Enabling profiling changes
   nothing about ranking, answer text or modeled response time — it only
   attaches work counts, feeds the profiler, and adds its own instruments.
3. **Work counts are deterministic.**  Identical questions against an
   identical index produce ``==``-identical work counts — across repeats
   and across freshly built deployments.
4. **Explain describes the request it explains.**  Asking for the explain
   report changes none of the work the request books.
"""

from __future__ import annotations

import json

import pytest

from repro.api import AskOptions, AskRequest
from repro.service.backend import ROLE_OPS
from repro.service.frontend import render_answer_page
from repro.service.monitoring import format_dashboard
from tests.differential import QUESTIONS, build, serve_surface


class TestProfilingOffByteIdentity:
    def test_default_options_match_explicit_off(self, tiny_kb, banking_lexicon):
        default = serve_surface(*build(tiny_kb, banking_lexicon))
        explicit = serve_surface(
            *build(tiny_kb, banking_lexicon), options=AskOptions(profile=False)
        )
        assert default == explicit

    def test_no_profile_instruments_without_the_flags(self, tiny_kb, banking_lexicon):
        system, backend = build(tiny_kb, banking_lexicon)
        serve_surface(system, backend)
        exposition = system.telemetry.render_metrics()
        assert "uniask_work_units_total" not in exposition
        assert "uniask_saturation_" not in exposition
        assert backend.profiler is None
        assert backend.capacity is None
        assert backend.metrics.snapshot().saturation == ()

    def test_default_audit_carries_no_work_block(self, tiny_kb, banking_lexicon):
        system, backend = build(tiny_kb, banking_lexicon)
        serve_surface(system, backend)
        for line in backend.telemetry.audit.lines():
            assert '"work"' not in line
            assert '"span_errors"' not in line

    def test_profile_route_rejected_when_disabled(self, tiny_kb, banking_lexicon):
        _, backend = build(tiny_kb, banking_lexicon)
        ops = backend.login("ops", role=ROLE_OPS)
        with pytest.raises(ValueError):
            backend.ops("profile", ops)


class TestProfilingOnSameAnswers:
    def test_answers_and_clock_identical_with_profiling(self, tiny_kb, banking_lexicon):
        plain_system, plain_backend = build(tiny_kb, banking_lexicon)
        prof_system, prof_backend = build(tiny_kb, banking_lexicon, profiling=True)
        plain_token = plain_backend.login("diff-user")
        prof_token = prof_backend.login("diff-user")
        for question in QUESTIONS:
            plain = plain_backend.serve(plain_token, question)
            profiled = prof_backend.serve(prof_token, question)
            assert render_answer_page(plain.answer) == render_answer_page(profiled.answer)
            assert plain.answer.response_time == profiled.answer.response_time
            assert plain.served_at == profiled.served_at
            assert plain.answer.work is None
            assert profiled.answer.work  # counters rode back

    def test_sharded_answers_identical_with_profiling(self, tiny_kb, banking_lexicon):
        _, plain_backend = build(tiny_kb, banking_lexicon, shards=3)
        _, prof_backend = build(tiny_kb, banking_lexicon, shards=3, profiling=True)
        plain = plain_backend.serve(plain_backend.login("u"), QUESTIONS[0])
        profiled = prof_backend.serve(prof_backend.login("u"), QUESTIONS[0])
        assert render_answer_page(plain.answer) == render_answer_page(profiled.answer)
        assert plain.answer.response_time == profiled.answer.response_time
        assert profiled.answer.work["scatter_legs"] == 3

    def test_options_profile_works_on_an_unprofiled_backend(self, tiny_kb, banking_lexicon):
        _, backend = build(tiny_kb, banking_lexicon)
        record = backend.serve(
            backend.login("u"), AskRequest(QUESTIONS[0], AskOptions(profile=True))
        )
        work = record.answer.work
        assert work and work["docs_scored"] > 0
        # The request opted in; the deployment did not — no profiler feed,
        # no new instruments, but the audit line records what the request did.
        assert backend.profiler is None
        assert "uniask_work_units_total" not in backend.telemetry.render_metrics()
        assert '"work"' in backend.telemetry.audit.lines()[-1]


class TestWorkDeterminism:
    def test_repeats_produce_identical_counts(self, tiny_kb, banking_lexicon):
        _, backend = build(tiny_kb, banking_lexicon, profiling=True)
        token = backend.login("u")
        for question in QUESTIONS:
            first = backend.serve(token, question).answer.work
            second = backend.serve(token, question).answer.work
            assert first == second
            assert first  # non-trivial

    def test_fresh_deployments_produce_identical_counts(self, tiny_kb, banking_lexicon):
        _, backend_a = build(tiny_kb, banking_lexicon, profiling=True)
        _, backend_b = build(tiny_kb, banking_lexicon, profiling=True)
        work_a = backend_a.serve(backend_a.login("u"), QUESTIONS[1]).answer.work
        work_b = backend_b.serve(backend_b.login("u"), QUESTIONS[1]).answer.work
        assert work_a == work_b

    def test_sharded_counts_deterministic(self, tiny_kb, banking_lexicon):
        _, backend_a = build(tiny_kb, banking_lexicon, shards=3, profiling=True)
        _, backend_b = build(tiny_kb, banking_lexicon, shards=3, profiling=True)
        token_a = backend_a.login("u")
        assert (
            backend_a.serve(token_a, QUESTIONS[2]).answer.work
            == backend_a.serve(token_a, QUESTIONS[2]).answer.work
            == backend_b.serve(backend_b.login("u"), QUESTIONS[2]).answer.work
        )

    def test_expected_kinds_fire_on_a_served_question(self, tiny_kb, banking_lexicon):
        _, backend = build(tiny_kb, banking_lexicon, profiling=True)
        work = backend.serve(backend.login("u"), QUESTIONS[0]).answer.work
        for kind in ("postings_scanned", "docs_scored", "llm_prompt_tokens"):
            assert work.get(kind, 0) > 0, kind


class TestProfilerSurfaces:
    def test_profile_route_formats(self, tiny_kb, banking_lexicon):
        _, backend = build(tiny_kb, banking_lexicon, profiling=True)
        token = backend.login("u")
        for question in QUESTIONS:
            backend.serve(token, question)
        ops = backend.login("ops", role=ROLE_OPS)
        top = backend.ops("profile", ops)
        assert top.startswith("profile: 4 traces")
        assert "ask" in top and "llm" in top
        folded = backend.ops("profile", ops, format="folded")
        for line in folded.splitlines():
            frames, value = line.rsplit(" ", 1)
            assert frames and int(value) >= 0
        speedscope = backend.ops("profile", ops, format="speedscope")
        json.dumps(speedscope)
        assert speedscope["profiles"][0]["type"] == "sampled"
        document = backend.ops("profile", ops, format="json")
        assert document["traces_recorded"] == 4
        with pytest.raises(ValueError):
            backend.ops("profile", ops, format="pprof")

    def test_work_units_counter_exposed_when_profiling(self, tiny_kb, banking_lexicon):
        system, backend = build(tiny_kb, banking_lexicon, profiling=True)
        backend.serve(backend.login("u"), QUESTIONS[0])
        exposition = system.telemetry.render_metrics()
        assert 'uniask_work_units_total{kind="docs_scored"}' in exposition
        assert 'uniask_work_units_total{kind="llm_completion_tokens"}' in exposition

    def test_profile_top_carries_work_annotations(self, tiny_kb, banking_lexicon):
        _, backend = build(tiny_kb, banking_lexicon, profiling=True)
        backend.serve(backend.login("u"), QUESTIONS[0])
        top = backend.ops("profile", backend.login("ops", role=ROLE_OPS))
        assert "postings_scanned=" in top


class TestCapacitySurfaces:
    def test_dashboard_gains_saturation_section(self, tiny_kb, banking_lexicon):
        _, backend = build(tiny_kb, banking_lexicon, capacity=True)
        token = backend.login("u")
        for question in QUESTIONS:
            backend.serve(token, question)
        snapshot = backend.ops("dashboard", backend.login("ops", role=ROLE_OPS))
        assert [s.resource for s in snapshot.saturation][0] == "backend"
        rendered = format_dashboard(snapshot)
        assert "resource" in rendered and "util" in rendered

    def test_sharded_capacity_tracks_replicas(self, tiny_kb, banking_lexicon):
        _, backend = build(tiny_kb, banking_lexicon, shards=3, capacity=True)
        backend.serve(backend.login("u"), QUESTIONS[0])
        resources = {s.resource for s in backend.capacity.snapshot()}
        assert "backend" in resources
        assert any(r.startswith(("replica_", "shard_")) for r in resources)

    def test_saturation_gauges_exposed(self, tiny_kb, banking_lexicon):
        system, backend = build(tiny_kb, banking_lexicon, capacity=True)
        backend.serve(backend.login("u"), QUESTIONS[0])
        backend.metrics.snapshot()  # refreshes utilization/load gauges
        exposition = system.telemetry.render_metrics()
        assert 'uniask_saturation_in_flight{resource="backend"}' in exposition


class TestExplainCarriesWork:
    def test_explain_report_gains_work_block_when_profiled(self, tiny_kb, banking_lexicon):
        _, backend = build(tiny_kb, banking_lexicon)
        record = backend.serve(
            backend.login("u"),
            AskRequest(QUESTIONS[0], AskOptions(explain=True, profile=True)),
        )
        report = record.answer.explain_report
        assert report.work and report.work["docs_scored"] > 0
        assert "work:" in report.format_report()
        assert "work" in report.to_dict()

    def test_plain_explain_report_has_no_work(self, tiny_kb, banking_lexicon):
        _, backend = build(tiny_kb, banking_lexicon)
        record = backend.serve(
            backend.login("u"), AskRequest(QUESTIONS[0], AskOptions(explain=True))
        )
        report = record.answer.explain_report
        assert report.work is None
        assert "work:" not in report.format_report()
        assert "work" not in report.to_dict()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_explain_books_the_work_of_the_plain_request(
        self, tiny_kb, banking_lexicon, shards, segment_policy
    ):
        """While a second scorer served explain it booked its own counts:
        live postings only, and no ``segments_touched`` at all."""
        segment_policy(flush_threshold=4)
        system, _ = build(tiny_kb, banking_lexicon, shards=shards)
        for generated in tiny_kb.documents[::5]:  # tombstones in sealed segments
            assert system.index.delete_document(generated.doc_id)
        members = [system.index] if shards == 1 else [
            system.index.shard_index(shard_id) for shard_id in system.index.shard_ids
        ]
        assert all(m.segment_count >= 2 and m.tombstone_ratio > 0 for m in members)
        for question in QUESTIONS:
            plain = system.engine.answer(AskRequest(question, AskOptions(profile=True)))
            explained = system.engine.answer(
                AskRequest(question, AskOptions(profile=True, explain=True))
            )
            assert plain.work and plain.work == explained.work
            assert explained.explain.work == plain.work
