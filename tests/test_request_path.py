"""The one request path: what rides on the request, and what is left behind.

Per-request results travel on the request's own
:class:`~repro.obs.trace.RequestContext` and come back on the
:class:`~repro.api.types.AskResponse`; nothing about a request is parked
on the engine, the orchestrator or the router after ``answer()`` returns.
Three regression tests pin the defects the old ``_last_*`` side channels
caused, and a Hypothesis property pins the contract itself (it replaces
the two ``_last_scatter`` cases that used to live in
``tests/test_api_facade.py``).
"""

from __future__ import annotations

import re
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.config import AgentsConfig
from repro.agents.routes import ROUTE_FOLLOW_UP, ROUTE_LOOKUP, ROUTE_MULTI_HOP
from repro.api import AskRequest, CacheConfig, create_backend, create_engine
from repro.cluster.config import ClusterConfig
from repro.core.config import UniAskConfig
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.queries import generate_multi_hop_queries
from repro.corpus.vocabulary import build_banking_lexicon
from repro.obs import spans
from repro.obs.trace import RequestContext
from repro.obs.work import WorkCounters
from repro.search.fulltext import FullTextSearch
from repro.search.reranker import SemanticReranker
from repro.service.backend import ROLE_OPS

SHARDS = 3


@pytest.fixture(scope="module")
def kb():
    return KbGenerator(KbGeneratorConfig(num_topics=16, error_families=3, seed=37)).generate()


@pytest.fixture(scope="module")
def multi_hop_question(kb):
    """One ``differenza tra … e …`` question (two hops)."""
    return generate_multi_hop_queries(kb, count=1, seed=37)[0].text


def build(kb, shards: int = 1, agents: bool = False, cache: bool = False):
    config = UniAskConfig(
        cluster=ClusterConfig(shards=shards),
        agents=AgentsConfig(enabled=agents),
        cache=CacheConfig(enabled=cache),
    )
    return create_engine(kb.store(), build_banking_lexicon(), config=config, seed=37)


@contextmanager
def raising(owner, name: str):
    """``owner.name`` raises RuntimeError inside the block; restored after.

    (``MonkeyPatch.context`` rather than the fixture: the Hypothesis
    property patches per step, inside one test call.)
    """

    def boom(*args, **kwargs):
        raise RuntimeError(f"injected failure in {name}")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, name, boom)
        yield


class TestMultiHopKeepsEveryProbe:
    """Defect 1: a two-hop request on a cluster probes every shard twice,
    but one report slot recorded only one hop's probes."""

    def test_every_surface_counts_hops_times_shards(self, kb, multi_hop_question):
        system = build(kb, shards=SHARDS, agents=True)
        backend = create_backend(system, tracing=True, capacity=True)
        record = backend.serve(backend.login("anna"), multi_hop_question)
        assert record.answer.route == ROUTE_MULTI_HOP
        hops = len(record.trace.find_all(spans.STAGE_SUBQUERY))
        assert hops == 2
        expected = hops * SHARDS

        audit_line = system.telemetry.audit.find("request")[-1]
        assert len(audit_line["shard_probes"]) == expected
        assert sum(backend.metrics.snapshot().shard_counts.values()) == expected
        exposition = backend.ops("metrics", backend.login("sre", role=ROLE_OPS))
        served = re.findall(r"^uniask_shard_probe_seconds_count\{[^}]*\} (\d+)", exposition, re.M)
        assert len(served) == SHARDS
        assert sum(int(count) for count in served) == expected
        probed = re.findall(r"^uniask_shard_probes_total\{[^}]*\} (\d+)", exposition, re.M)
        assert sum(int(count) for count in probed) == expected
        replicas = [s for s in backend.capacity.snapshot() if s.resource != "backend"]
        assert sum(sample.arrivals for sample in replicas) == expected

    @pytest.mark.parametrize("failing_hop", [1, 2])
    def test_shard_down_during_one_hop_marks_the_answer_partial(
        self, kb, multi_hop_question, failing_hop
    ):
        system = build(kb, shards=SHARDS, agents=True)
        cluster = system.cluster
        original = cluster.search
        calls = []

        def search(query, filters=None, **kwargs):
            calls.append(query)
            replicas = cluster.replicas(0)
            if len(calls) == failing_hop:
                for replica in replicas:
                    replica.kill()
            try:
                return original(query, filters=filters, **kwargs)
            finally:
                for replica in replicas:
                    replica.revive()

        cluster.search = search
        response = system.engine.answer(multi_hop_question)
        assert len(calls) == 2
        assert response.answer.partial_results
        assert response.scatter.failed_shards == (0,)
        assert len(response.scatter.probes) == 2 * SHARDS


class TestFollowUpRewriteDoesNotLeak:
    """Defect 2: a follow-up whose retrieval raised left its rewrite on the
    orchestrator, and the next lookup — another user — was stored with it."""

    def test_next_sessions_turn_records_its_own_question(self, kb):
        system = build(kb, agents=True)
        backend = create_backend(system)
        anna, bruno = backend.login("anna"), backend.login("bruno")
        backend.serve(anna, "come sbloccare la carta di credito")
        follow_up = AskRequest.of("e per quella di debito?", route=ROUTE_FOLLOW_UP)
        with raising(system.searcher, "search"), pytest.raises(RuntimeError):
            backend.serve(anna, follow_up)

        question = "limiti prelievo bancomat"
        record = backend.serve(bruno, AskRequest.of(question, route=ROUTE_LOOKUP))
        assert record.answer.route == ROUTE_LOOKUP
        turn = system.engine.orchestrator.memory.last_turn(bruno)
        assert turn.question == question
        assert turn.resolved_question == question

    def test_served_follow_up_still_records_its_rewrite(self, kb):
        system = build(kb, agents=True)
        backend = create_backend(system)
        anna = backend.login("anna")
        backend.serve(anna, "come sbloccare la carta di credito")
        backend.serve(anna, AskRequest.of("e per quella di debito?", route=ROUTE_FOLLOW_UP))
        turn = system.engine.orchestrator.memory.last_turn(anna)
        assert turn.question == "e per quella di debito?"
        assert turn.resolved_question != turn.question
        assert "debito" in turn.resolved_question


class TestDegradedScatterBooksWork:
    """Defect 3: the BM25-only scatter was a second loop that ran its legs
    with no context, so a profiled text-only search booked nothing at all."""

    QUESTION = "come sbloccare la carta di credito"

    @staticmethod
    def profiled() -> RequestContext:
        return RequestContext.traced(work=WorkCounters())

    def test_text_only_work_matches_the_single_index(self, kb):
        single, sharded = self.profiled(), self.profiled()
        assert build(kb).searcher.search_degraded(self.QUESTION, ctx=single)
        assert build(kb, shards=SHARDS).searcher.search_degraded(self.QUESTION, ctx=sharded)
        single, sharded = single.work.snapshot(), sharded.work.snapshot()
        assert single["postings_scanned"] > 0
        assert sharded["postings_scanned"] == single["postings_scanned"]
        assert sharded["docs_scored"] == single["docs_scored"]
        assert sharded["scatter_legs"] == SHARDS
        assert "scatter_legs" not in single

    def test_text_only_shard_spans_carry_the_work_delta(self, kb):
        ctx = self.profiled()
        build(kb, shards=SHARDS).searcher.search_degraded(self.QUESTION, ctx=ctx)
        for shard_id in range(SHARDS):
            attributes = ctx.trace.find(spans.shard_stage(shard_id)).attributes
            assert attributes["work_scatter_legs"] == 1
            assert attributes["work_postings_scanned"] > 0

    def test_the_cache_probe_books_its_work_on_its_span(self, kb):
        system = build(kb, cache=True)
        request = AskRequest.of(self.QUESTION, profile=True)
        trace = system.engine.answer(request).answer.trace
        lookup = trace.find(spans.STAGE_CACHE_LOOKUP)
        assert lookup.attributes["work_cache_exact_misses"] == 1


class TestUnknownFilterFieldIsAlwaysAnError:
    """Defect 4: the filter-name check sat in ``matches_filters``, reached
    only once a candidate existed — a question matching nothing returned
    ``[]`` for a filter that raised on any other question, and on a cluster
    it raised mid-scatter, after earlier shards' replicas had booked the
    probe."""

    @pytest.mark.parametrize("shards", [1, SHARDS], ids=["single-index", "three-shards"])
    @pytest.mark.parametrize("method", ["search", "search_degraded"])
    @pytest.mark.parametrize("question", ["come sbloccare la carta", "zqxwv"])
    def test_raises_whether_or_not_anything_matches(self, kb, shards, method, question):
        searcher = build(kb, shards=shards).searcher
        with pytest.raises(KeyError, match="field 'nonexistent' is not filterable"):
            getattr(searcher, method)(question, filters={"nonexistent": "x"})

    def test_the_cluster_rejects_it_before_probing_any_replica(self, kb):
        searcher = build(kb, shards=SHARDS).searcher
        for method in (searcher.search, searcher.search_degraded):
            with pytest.raises(KeyError):
                method("come sbloccare la carta", filters={"nonexistent": "x"})
            assert searcher.take_scatter_report() is None
        for shard in searcher.status().shards:
            assert [replica.served for replica in shard.replicas] == [0] * len(shard.replicas)
        # ... and a filterable field still filters.
        assert searcher.search("come sbloccare la carta", filters={"domain": "zz"}) == []
        assert not searcher.take_scatter_report().partial


# -- nothing left behind ------------------------------------------------------

QUESTIONS = (
    "come sbloccare la carta di credito",
    "bonifico estero commissioni",
    "limiti prelievo bancomat",
    "Qual e la ricetta della carbonara?",
    "questo stupido sistema non funziona",
    "Ciao!",
    "e per quella di debito?",
    "quanti prodotti hanno un limite?",
    "Qual è la differenza tra bloccare assegno bancario e chiudere domiciliazione bancaria?",
)

#: request kind → option overrides
KINDS = {
    "plain": {},
    "traced": {"trace": True},
    "profiled": {"profile": True},
    "explain": {"explain": True},
}

#: where the injected failure lands (None: the request runs clean)
FAILURES = (None, None, "search", "fulltext", "rerank")

steps = st.lists(
    st.tuples(
        st.sampled_from(sorted(KINDS)),
        st.integers(min_value=0, max_value=len(QUESTIONS) - 1),
        st.sampled_from(FAILURES),
    ),
    min_size=1,
    max_size=6,
)


@pytest.fixture(scope="module", params=[1, SHARDS], ids=["single-index", "three-shards"])
def deployment(request, kb):
    return build(kb, shards=request.param, agents=True, cache=True)


def failure_scope(system, failure):
    if failure is None:
        return nullcontext()
    if failure == "fulltext":
        return raising(FullTextSearch, "search")
    if failure == "rerank":
        return raising(SemanticReranker, "rerank")
    return raising(system.searcher, failure)


class TestNothingLeftBehind:
    @settings(max_examples=15, deadline=None)
    @given(steps=steps)
    def test_engine_orchestrator_and_router_hold_no_request_state(self, deployment, steps):
        """Whatever the request asked for and wherever it failed, the
        attributes of the engine and the orchestrator are the objects they
        were before (metric instruments, session memory and the answer
        cache accumulate *inside* those objects) and the searcher's report
        slot is empty."""
        engine = deployment.engine
        orchestrator = engine.orchestrator
        for kind, question, failure in steps:
            options = KINDS[kind]
            request = AskRequest.of(QUESTIONS[question], session_id="property", **options)
            engine_before = dict(vars(engine))
            orchestrator_before = dict(vars(orchestrator))
            with failure_scope(deployment, failure):
                try:
                    response = engine.answer(request)
                except RuntimeError:
                    response = None
            assert vars(engine) == engine_before
            assert vars(orchestrator) == orchestrator_before
            assert deployment.searcher.take_scatter_report() is None
            if response is not None and deployment.cluster is None:
                assert response.scatter is None
