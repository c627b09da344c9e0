"""Query-then-fetch ranks exactly as the list pipeline did.

Every stage before the final ranking passes heads — ids and scores — and one
fetch builds the only :class:`RetrievedChunk` objects.  The differential
holds that against :mod:`tests.reference_pipeline`, the parent's list
pipeline: the same final ranking by ``(chunk_id, score.hex())`` and, on an
explain request, the same components in the same key order, on a single
index, a 3-shard cluster with a dead shard and cached legs, ``search_multi``
and ``search_fused_vector``.  The properties hold the reranker's array pass
against its per-candidate formula on degenerate inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CacheConfig, ClusterConfig, UniAskConfig
from repro.core.factory import build_uniask_system
from repro.embeddings.concepts import Concept, ConceptLexicon, fingerprint_cosine, fingerprint_of
from repro.obs.trace import RequestContext
from repro.search.reranker import SemanticReranker
from repro.search.results import Heads, RetrievedChunk
from repro.search.schema import ChunkRecord
from tests import reference_pipeline as reference

PLAIN, EXPLAIN = RequestContext(), RequestContext(explain=True)


def _bits(results, explain: bool) -> list[tuple]:
    return [
        (
            result.record.chunk_id,
            result.score.hex(),
            [(key, value.hex()) for key, value in result.components.items()] if explain else {},
        )
        for result in results
    ]


def _same(served, expected, explain: bool) -> None:
    assert served, "an empty ranking compares nothing"
    assert _bits(served, explain) == _bits(expected, explain)
    if not explain:
        assert all(result.components == {} for result in served)


@pytest.fixture(scope="module")
def questions(human_queries, keyword_queries) -> list[str]:
    return [q.text for q in human_queries[:14]] + [q.text for q in keyword_queries[0][:6]]


@pytest.fixture(scope="module")
def cluster(small_kb, lexicon):
    """Three shards with the retrieval cache on; shard 1 has no replica left."""
    system = build_uniask_system(
        small_kb.store(),
        lexicon,
        config=UniAskConfig(cluster=ClusterConfig(shards=3), cache=CacheConfig(enabled=True)),
        seed=3,
    )
    for replica in system.searcher.replicas(1):
        replica.kill()
    return system.searcher


class TestDifferential:
    @pytest.mark.parametrize("ctx", [PLAIN, EXPLAIN], ids=["plain", "explain"])
    def test_single_index(self, system, questions, ctx):
        searcher = system.searcher
        for question in questions:
            _same(
                searcher.search(question, ctx=ctx),
                reference.hybrid_search(searcher, question, explain=ctx.explain),
                ctx.explain,
            )
        domain = system.index.record(system.index.live_internals()[0]).domain
        for question in questions[:4]:
            _same(
                searcher.search(question, filters={"domain": domain}, ctx=ctx),
                reference.hybrid_search(searcher, question, {"domain": domain}, ctx.explain),
                ctx.explain,
            )

    @pytest.mark.parametrize("ctx", [PLAIN, EXPLAIN], ids=["plain", "explain"])
    def test_cluster_with_a_dead_shard_and_cached_legs(self, cluster, questions, ctx):
        for round_ in range(2):  # the second plain round is served from cached legs
            hits = cluster.retrieval_cache.stats.hits
            for question in questions:
                served = cluster.search(question, ctx=ctx)
                report = cluster.take_scatter_report()
                answered = {probe.shard_id for probe in report.probes if probe.ok}
                assert answered == {0, 2}
                expected = reference.cluster_search(cluster, question, answered, None, ctx.explain)
                _same(served, expected, ctx.explain)
                if ctx.explain:
                    assert {result.components["shard"] for result in served} <= {0.0, 2.0}
            if round_ and not ctx.explain:
                assert cluster.retrieval_cache.stats.hits == hits + 2 * len(questions)

    @pytest.mark.parametrize("ctx", [PLAIN, EXPLAIN], ids=["plain", "explain"])
    def test_search_multi(self, system, questions, ctx):
        searcher = system.searcher
        for i in range(0, 8, 2):
            queries = [questions[i], questions[i + 1], questions[i]]  # one repeat
            _same(
                searcher.search_multi(queries, ctx=ctx),
                reference.multi_search(searcher, queries, explain=ctx.explain),
                ctx.explain,
            )

    @pytest.mark.parametrize("ctx", [PLAIN, EXPLAIN], ids=["plain", "explain"])
    def test_search_fused_vector(self, system, questions, ctx):
        searcher = system.searcher
        embed = system.index.embedder.embed
        for i in range(0, 8, 2):
            text = f"{questions[i]} {questions[i + 1]}"
            vector = (embed(questions[i]) + embed(questions[i + 1])) / 2.0
            _same(
                searcher.search_fused_vector(text, vector, ctx=ctx),
                reference.fused_vector_search(searcher, text, vector, explain=ctx.explain),
                ctx.explain,
            )

    def test_degraded_reads_the_text_leg(self, system, cluster, questions):
        config = cluster.config
        for ctx in (PLAIN, EXPLAIN):
            for question in questions[:6]:
                expected = reference.text_leg(
                    system.index, question, system.searcher.config.text_n, explain=ctx.explain
                )
                _same(system.searcher.search_degraded(question, ctx=ctx), expected, ctx.explain)
                legs = []
                for shard_id in (0, 2):
                    leg = reference.text_leg(
                        cluster.index.search_view(shard_id), question, config.text_n,
                        explain=ctx.explain,
                    )
                    legs += reference.attribute_shard(leg, shard_id) if ctx.explain else leg
                merged = reference.ranked(legs, config.text_n, cluster.index.ordinal)
                _same(
                    cluster.search_degraded(question, ctx=ctx),
                    merged[: config.final_n],
                    ctx.explain,
                )


# -- the reranker's array pass against its formula ----------------------------

_LEXICON = ConceptLexicon(
    [
        Concept("carta", "carta di credito", ("carta revolving",)),
        Concept("bonifico", "bonifico", ("giroconto",)),
        Concept("bloccare", "bloccare", ("sospendere",)),
        Concept("token", "token di sicurezza", ("chiavetta",)),
    ]
)
_WORDS = [
    "carta", "credito", "revolving", "bonifico", "giroconto", "bloccare", "sospendere",
    "token", "sicurezza", "chiavetta", "ricetta", "uova", "il", "di", "la", "ERR-1003",
]
_texts = st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join)


def _candidates(records: list[ChunkRecord]) -> Heads:
    n = len(records)
    return Heads(np.arange(n, dtype=np.int64), np.zeros(n), None, tuple(records))


class TestArrayReranker:
    @given(
        query=_texts,
        chunks=st.lists(st.tuples(_texts, _texts), max_size=5),
        noise=st.sampled_from([0.0, 0.35]),
    )
    @settings(max_examples=200, deadline=None)
    def test_rerank_is_the_scalar_formula_per_candidate(self, query, chunks, noise):
        """Empty fingerprints, zero norms, empty query terms and zero or one
        candidate included: each candidate's ``rerank_adjust`` is the
        formula's float, the scores add it to the fused score, and the
        order is ``(-score, chunk_id)``."""
        reranker = SemanticReranker(_LEXICON, noise=noise)
        records = [
            ChunkRecord(chunk_id=f"d{i}#0", doc_id=f"d{i}", title=title, content=content)
            for i, (title, content) in enumerate(chunks)
        ]
        reranked = reranker.rerank(query, _candidates(records), ctx=EXPLAIN).fetch()
        expected = sorted(
            ((reference.rerank_score(reranker, query, record), record) for record in records),
            key=lambda pair: (-pair[0], pair[1].chunk_id),
        )
        assert [
            (r.record.chunk_id, r.score.hex(), r.components["rerank_adjust"].hex())
            for r in reranked
        ] == [(record.chunk_id, score.hex(), score.hex()) for score, record in expected]
        for record in records:
            assert reranker.score(query, RetrievedChunk(record, 0.0)).hex() == (
                reference.rerank_score(reranker, query, record).hex()
            )


# -- the same bits on every Python --------------------------------------------


def _compensated(values) -> float:
    """Neumaier-compensated summation: what ``sum()`` of floats does from
    Python 3.12 on."""
    total, compensation = 0.0, 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


def test_fingerprint_sums_are_sequential_whatever_sum_does():
    """A pair whose dot product and norm a compensated ``sum()`` moves by an
    ulp (found among the concept weights readings hold: sums of ``1/k``):
    the cosine and the norm are the sequential additions' bits."""
    query = fingerprint_of(dict(zip("abcdef", [1 / 3, 0.5, 1.25, 2 / 3, 0.5, 1.25])))
    chunk = fingerprint_of(dict(zip("abcdef", [7 / 6, 1 / 3, 1 / 3, 1 / 3, 1 / 3, 2 / 3])))
    products = [w * chunk.weights[cid] for cid, w in query.weights.items()]
    squares = [w * w for w in chunk.weights.values()]
    assert _compensated(products) != _sequential(products)
    assert _compensated(squares) != _sequential(squares)
    assert chunk.norm.hex() == "0x1.8000000000001p+0"
    assert chunk.norm == _sequential(squares) ** 0.5
    cosine = fingerprint_cosine(query, chunk)
    assert cosine.hex() == "0x1.6e57762340ac1p-1"
    assert cosine == _sequential(products) / (query.norm * chunk.norm)


def _sequential(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total
