"""The one request path: what rides on the request, and what is left behind.

Per-request results travel on the request's own
:class:`~repro.obs.trace.RequestContext` and come back on the
:class:`~repro.api.types.AskResponse`; nothing about a request is parked
on the engine or the router after ``answer()`` returns.  Regression tests
pin two defects of the scatter path, and a Hypothesis property pins the
contract itself (it replaces the two ``_last_scatter`` cases that used to
live in ``tests/test_api_facade.py``).
"""

from __future__ import annotations

import re
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AskRequest, CacheConfig, create_engine
from repro.cluster.config import ClusterConfig
from repro.core.config import UniAskConfig
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon
from repro.obs import spans
from repro.obs.trace import RequestContext
from repro.obs.work import WorkCounters
from repro.search.fulltext import FullTextSearch
from repro.search.reranker import SemanticReranker

SHARDS = 3


@pytest.fixture(scope="module")
def kb():
    return KbGenerator(KbGeneratorConfig(num_topics=16, error_families=3, seed=37)).generate()


def build(kb, shards: int = 1, cache: bool = False):
    config = UniAskConfig(cluster=ClusterConfig(shards=shards), cache=CacheConfig(enabled=cache))
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


class TestDegradedScatterBooksWork:
    """Defect 1: the BM25-only scatter was a second loop that ran its legs
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
    """Defect 2: the filter-name check sat in ``matches_filters``, reached
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
    return build(kb, shards=request.param, cache=True)


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
    def test_engine_and_router_hold_no_request_state(self, deployment, steps):
        """Whatever the request asked for and wherever it failed, the
        attributes of the engine are the objects they were before (metric
        instruments and the answer cache accumulate *inside* those objects)
        and the searcher's report slot is empty."""
        engine = deployment.engine
        for kind, question, failure in steps:
            request = AskRequest.of(QUESTIONS[question], **KINDS[kind])
            engine_before = dict(vars(engine))
            with failure_scope(deployment, failure):
                try:
                    response = engine.answer(request)
                except RuntimeError:
                    response = None
            assert vars(engine) == engine_before
            assert deployment.searcher.take_scatter_report() is None
            if response is not None and deployment.cluster is None:
                assert response.scatter is None
