"""Tests for scatter-gather routing: equivalence, degradation, health.

The headline property: a healthy sharded cluster (exact ANN backend, built
by insertion) ranks **identically** to a single index over the same corpus
— same chunk order, bit-identical scores.  The rest covers the
availability machinery: deadlines, fail-fast on dead/marked-down replicas,
hedged retries, partial-results degradation and the trace shape.
"""

from __future__ import annotations

import pytest

from repro.cache.config import CacheConfig
from repro.cluster import ClusterConfig, ClusterSearcher
from repro.cluster import replica as replica_module
from repro.core.config import UniAskConfig
from repro.core.factory import build_uniask_system
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.htmlproc.parser import parse_html
from repro.obs import spans
from repro.obs.trace import RequestContext
from repro.search.fulltext import FullTextSearch
from repro.search.hybrid import HybridSemanticSearch
from repro.text.analyzer import FULL_ANALYZER

EQUIVALENCE_QUERIES = 12


@pytest.fixture(scope="module")
def exact_single(small_kb, lexicon):
    """Single-index deployment on the exact ANN backend (ground truth)."""
    return build_uniask_system(small_kb.store(), lexicon, seed=3, ann_backend="exact")


@pytest.fixture(scope="module")
def exact_sharded(small_kb, lexicon):
    """Three-shard, two-replica deployment on the exact ANN backend."""
    config = UniAskConfig(cluster=ClusterConfig(shards=3, replicas=2))
    return build_uniask_system(
        small_kb.store(), lexicon, config=config, seed=3, ann_backend="exact"
    )


def _count_global_statistics_reads(monkeypatch) -> dict[str, list]:
    """Record every global-statistics read and every shard-view query analysis.

    ``__len__`` / ``average_length`` / ``analyze_query`` append the field
    read, ``document_frequency`` the ``(field, term)`` pair.
    """
    from repro.cluster.sharded_index import _GlobalStatsInverted

    calls: dict[str, list] = {
        "__len__": [], "average_length": [], "document_frequency": [], "analyze_query": [],
    }
    originals = {name: getattr(_GlobalStatsInverted, name) for name in calls}

    def counted_len(view):
        calls["__len__"].append(view._field_name)
        return originals["__len__"](view)

    def counted_average_length(view):
        calls["average_length"].append(view._field_name)
        return originals["average_length"].fget(view)

    def counted_document_frequency(view, term):
        calls["document_frequency"].append((view._field_name, term))
        return originals["document_frequency"](view, term)

    def counted_analyze_query(view, query):
        calls["analyze_query"].append(view._field_name)
        return originals["analyze_query"](view, query)

    monkeypatch.setattr(_GlobalStatsInverted, "__len__", counted_len)
    monkeypatch.setattr(_GlobalStatsInverted, "average_length", property(counted_average_length))
    monkeypatch.setattr(_GlobalStatsInverted, "document_frequency", counted_document_frequency)
    monkeypatch.setattr(_GlobalStatsInverted, "analyze_query", counted_analyze_query)
    return calls


def _tiny_cluster(lexicon, shards=2, replicas=2):
    """A small fresh deployment for mutation (fault-injection) tests."""
    kb = KbGenerator(KbGeneratorConfig(num_topics=10, error_families=1, seed=11)).generate()
    config = UniAskConfig(cluster=ClusterConfig(shards=shards, replicas=replicas))
    return build_uniask_system(kb.store(), lexicon, config=config, seed=3)


class TestSingleIndexEquivalence:
    def test_sharded_ranking_matches_single_index(
        self, exact_single, exact_sharded, human_queries
    ):
        """Union-of-shards hybrid retrieval == single-index retrieval."""
        for query in human_queries[:EQUIVALENCE_QUERIES]:
            single = exact_single.searcher.search(query.text)
            sharded = exact_sharded.searcher.search(query.text)
            assert [r.record.chunk_id for r in single] == [
                r.record.chunk_id for r in sharded
            ], query.text
            # Global BM25 statistics and a shared embedding space make the
            # merged scores bit-identical, not merely close.
            assert [r.score for r in single] == [r.score for r in sharded]

    def test_text_and_vector_modes_also_match(self, small_kb, lexicon, human_queries):
        for mode in ("text", "vector"):
            retrieval = UniAskConfig().retrieval
            retrieval = type(retrieval)(mode=mode, use_reranker=False)
            single = build_uniask_system(
                small_kb.store(), lexicon,
                config=UniAskConfig(retrieval=retrieval),
                seed=3, ann_backend="exact",
            )
            sharded = build_uniask_system(
                small_kb.store(), lexicon,
                config=UniAskConfig(retrieval=retrieval, cluster=ClusterConfig(shards=2)),
                seed=3, ann_backend="exact",
            )
            for query in human_queries[:4]:
                a = single.searcher.search(query.text)
                b = sharded.searcher.search(query.text)
                assert [r.record.chunk_id for r in a] == [r.record.chunk_id for r in b]

    def test_sharded_write_surface_matches_single_index(self, lexicon, human_queries):
        """``flush`` / ``vacuum`` behave on N shards as on one index: past the
        tombstone ratio a no-arg vacuum rebuilds, bumps the generation, and
        the ranking still equals the single index's."""
        kb = KbGenerator(KbGeneratorConfig(num_topics=10, error_families=1, seed=11)).generate()
        single = build_uniask_system(kb.store(), lexicon, seed=3, ann_backend="exact")
        sharded = build_uniask_system(
            kb.store(), lexicon, seed=3, ann_backend="exact",
            config=UniAskConfig(cluster=ClusterConfig(shards=3)),
        )
        assert sharded.index.vacuum() is False  # clean index: cheap no-op
        doc_ids = sorted(generated.doc_id for generated in kb.documents)
        for doc_id in doc_ids[: len(doc_ids) * 3 // 5]:
            assert single.index.delete_document(doc_id) == sharded.index.delete_document(doc_id)
        generation = sharded.index.generation
        for system in (single, sharded):
            system.index.flush()
            assert system.index.vacuum() is True
            assert system.index.vacuum() is False  # tombstones reclaimed
        assert sharded.index.generation > generation

        def assert_same_rankings():
            for query in human_queries[:EQUIVALENCE_QUERIES]:
                a = single.searcher.search(query.text)
                b = sharded.searcher.search(query.text)
                assert [(r.record.chunk_id, r.score) for r in a] == [
                    (r.record.chunk_id, r.score) for r in b
                ], query.text

        assert_same_rankings()
        # Editors go on: a content-only edit keeps the title vector (and an
        # unchanged chunk its ordinal), a retitled page takes the title of
        # another — a tie on the title leg — and one page is re-published
        # untouched, which must move nothing on either side.
        content_only, retitled, untouched, donor = doc_ids[-4:]
        for system in (single, sharded):
            store = system.store
            edited = store.get(content_only).html.replace(
                "</body>", "<p>Nota aggiunta dalla redazione.</p></body>"
            )
            store.update_html(content_only, edited, modified_at=1.0)
            title = parse_html(store.get(donor).html).title
            own = parse_html(store.get(retitled).html).title
            store.update_html(
                retitled, store.get(retitled).html.replace(own, title), modified_at=1.0
            )
            before = system.index.generation
            system.queue.publish({"action": "upsert", "doc_id": untouched})
            assert system.indexing.drain().chunks_written == 0
            assert system.index.generation == before
            for doc_id in (content_only, retitled):
                system.queue.publish({"action": "upsert", "doc_id": doc_id})
            assert system.indexing.drain().chunks_written > 0
        assert_same_rankings()

    def test_collection_size_is_read_once_per_request_and_field(
        self, exact_sharded, human_queries, monkeypatch
    ):
        """Every global statistic is a sum over every shard's segments: the
        router gathers them once per request and field, however many shard
        legs score against them, and analyzes the question once per request
        (every field shares one analyzer); explain adds none."""
        searcher = exact_sharded.searcher
        query = human_queries[0].text
        assert len(set(FULL_ANALYZER.analyze(query))) > 1
        view = exact_sharded.index.search_view(exact_sharded.index.shard_ids[0])
        fields = exact_sharded.index.schema.searchable_fields
        distinct_terms = sorted(
            (name, term)
            for name in fields
            for term in set(view.inverted_index(name).analyze_query(query))
        )
        calls = _count_global_statistics_reads(monkeypatch)
        for search in (searcher.search, searcher.search_degraded):
            for ctx in (RequestContext(), RequestContext(explain=True)):
                for reads in calls.values():
                    reads.clear()
                assert search(query, ctx=ctx)
                assert not searcher.take_scatter_report().partial
                for name in ("__len__", "average_length"):
                    assert sorted(calls[name]) == sorted(fields), (search, ctx.explain, name)
                assert calls["analyze_query"] == [fields[0]], (search, ctx.explain)
                assert sorted(calls["document_frequency"]) == distinct_terms

    def test_cached_and_dead_legs_read_no_statistics(self, lexicon, monkeypatch):
        """The plan is taken by the first leg that has to score: a request
        served from the retrieval cache, or one with no shard left to ask,
        neither analyzes the question nor reads a statistic."""
        kb = KbGenerator(KbGeneratorConfig(num_topics=10, error_families=1, seed=11)).generate()
        config = UniAskConfig(
            cluster=ClusterConfig(shards=3, replicas=2), cache=CacheConfig(enabled=True)
        )
        searcher = build_uniask_system(kb.store(), lexicon, config=config, seed=3).searcher
        query = "come sbloccare la carta di credito"
        first = searcher.search(query)
        calls = _count_global_statistics_reads(monkeypatch)
        repeat = searcher.search(query)
        assert [(r.record.chunk_id, r.score) for r in repeat] == [
            (r.record.chunk_id, r.score) for r in first
        ]
        assert not any(calls.values())
        for shard_id in searcher.index.shard_ids:
            for replica in searcher.replicas(shard_id):
                replica.kill()
        assert searcher.search("limiti prelievo bancomat") == []
        assert searcher.take_scatter_report().partial
        assert not any(calls.values())

    def test_a_handed_plan_scores_like_the_searchs_own(
        self, exact_single, exact_sharded, human_queries
    ):
        """``search(q)`` and ``search(q, plan=plan(q))`` are one scoring path."""
        views = [exact_single.index] + [
            exact_sharded.index.search_view(shard_id)
            for shard_id in exact_sharded.index.shard_ids
        ]
        for view in views:
            fulltext = FullTextSearch(view)
            for query in human_queries[:4]:
                for ctx in (RequestContext(), RequestContext(explain=True)):
                    own = fulltext.search(query.text, ctx=ctx).fetch()
                    handed = fulltext.search(
                        query.text, ctx=ctx, plan=FullTextSearch(view).plan(query.text)
                    ).fetch()
                    assert own
                    assert [
                        (r.record.chunk_id, r.score.hex(), list(r.components.items()))
                        for r in own
                    ] == [
                        (r.record.chunk_id, r.score.hex(), list(r.components.items()))
                        for r in handed
                    ]

    def test_shards_one_wires_the_single_index_path(self, small_kb, lexicon):
        system = build_uniask_system(
            small_kb.store(), lexicon,
            config=UniAskConfig(cluster=ClusterConfig(shards=1)),
            seed=3,
        )
        assert isinstance(system.searcher, HybridSemanticSearch)
        assert system.cluster is None

    def test_sharded_deployment_exposes_cluster_handle(self, exact_sharded):
        assert isinstance(exact_sharded.cluster, ClusterSearcher)
        assert exact_sharded.cluster is exact_sharded.searcher
        assert exact_sharded.index.num_shards == 3


class TestGracefulDegradation:
    def test_dead_shard_degrades_to_partial_results(self, lexicon):
        system = _tiny_cluster(lexicon, shards=2, replicas=2)
        for replica in system.cluster.replicas(0):
            replica.kill()
        response = system.engine.answer("come sbloccare la carta di credito")
        assert response.answer.partial_results
        report = response.scatter
        assert report.partial
        assert report.failed_shards == (0,)
        # The surviving shard still contributes documents.
        healthy = [p for p in report.probes if p.ok]
        assert len(healthy) == 1

    def test_single_replica_shard_dies_without_raising(self, lexicon):
        system = _tiny_cluster(lexicon, shards=2, replicas=1)
        system.cluster.replicas(1)[0].kill()
        response = system.engine.answer("errore bonifico istantaneo")
        assert response.answer.partial_results
        assert response.scatter.failed_shards == (1,)

    def test_healthy_cluster_is_never_partial(self, lexicon):
        system = _tiny_cluster(lexicon, shards=2, replicas=2)
        for question in ("limiti prelievo bancomat", "apertura conto online"):
            response = system.engine.answer(question)
            assert not response.answer.partial_results
            assert not response.scatter.partial

    def test_report_is_consumed_per_request(self, lexicon):
        system = _tiny_cluster(lexicon, shards=2)
        first = system.engine.answer("carta di credito").scatter
        assert first is not None
        assert system.cluster.take_scatter_report() is None  # engine already took it
        assert system.engine.answer("bonifico").scatter is not first


class TestHedgingAndHealth:
    def test_slow_primary_triggers_hedged_retry(self, lexicon):
        # x3 puts the primary between the hedge trigger (15ms) and the
        # deadline (30ms): the sibling answers first via the hedge.
        system = _tiny_cluster(lexicon, shards=2, replicas=2)
        searcher = system.cluster
        searcher.replicas(0)[0].degrade(3.0)
        hedged = 0
        for i in range(4):
            searcher.search(f"carta di credito {i}")
            report = searcher.take_scatter_report()
            assert not report.partial
            hedged += sum(1 for p in report.probes if p.hedged)
        assert hedged > 0
        assert any(r.health.hedges > 0 for r in searcher.replicas(0))

    def test_all_replicas_slow_misses_deadline(self, lexicon):
        system = _tiny_cluster(lexicon, shards=2, replicas=2)
        for replica in system.cluster.replicas(0):
            replica.degrade(10.0)  # ~80ms >> 30ms deadline
        system.cluster.search("carta di credito")
        report = system.cluster.take_scatter_report()
        assert report.partial
        assert all(r.health.timeouts > 0 for r in system.cluster.replicas(0))

    def test_repeated_timeouts_mark_replicas_down_then_recover(self, lexicon, monkeypatch):
        monkeypatch.setattr(replica_module, "DOWN_AFTER", 2)
        monkeypatch.setattr(replica_module, "DOWN_COOLDOWN", 60.0)
        system = _tiny_cluster(lexicon, shards=2, replicas=2)
        searcher = system.cluster
        for replica in searcher.replicas(0):
            replica.degrade(10.0)
        for i in range(4):
            searcher.search(f"query {i}")
        now = system.clock.now()
        assert all(r.marked_down(now) for r in searcher.replicas(0))

        # While marked down the router fails fast: nobody is even contacted.
        searcher.search("query durante il cooldown")
        report = searcher.take_scatter_report()
        assert report.partial
        assert report.probes[0].attempts == 0

        # Past the cooldown (and back to speed) the shard serves again.
        for replica in searcher.replicas(0):
            replica.slow_factor = 1.0
        system.clock.advance(120.0)
        searcher.search("query dopo il cooldown")
        assert not searcher.take_scatter_report().partial

    def test_revive_clears_fault_state(self, lexicon):
        system = _tiny_cluster(lexicon, shards=2, replicas=1)
        replica = system.cluster.replicas(0)[0]
        replica.kill()
        system.cluster.search("query")
        assert system.cluster.take_scatter_report().partial
        replica.revive()
        system.cluster.search("query")
        assert not system.cluster.take_scatter_report().partial

    def test_status_reports_shard_sizes_and_health(self, lexicon):
        system = _tiny_cluster(lexicon, shards=2, replicas=2)
        system.cluster.replicas(1)[0].kill()
        status = system.cluster.status()
        assert len(status.shards) == 2
        assert sum(s.chunks for s in status.shards) == len(system.index)
        assert status.shards[0].available
        assert status.shards[1].available  # one replica still up
        assert not status.degraded
        system.cluster.replicas(1)[1].kill()
        assert system.cluster.status().degraded


class TestClusterTraceShape:
    def test_scatter_spans_nest_under_retrieval(self, lexicon):
        system = _tiny_cluster(lexicon, shards=2, replicas=2)
        ctx = RequestContext.traced(clock=system.clock)
        response = system.engine.answer("come sbloccare la carta di credito", ctx=ctx)
        trace = ctx.trace
        names = trace.span_names()
        assert spans.STAGE_SCATTER in names
        assert spans.STAGE_SCATTER_WAIT in names
        assert spans.shard_stage(0) in names and spans.shard_stage(1) in names
        assert spans.STAGE_FUSION in names and spans.STAGE_RERANK in names
        scatter = trace.find(spans.STAGE_SCATTER)
        assert scatter.parent_name == spans.STAGE_RETRIEVAL
        for shard_id in (0, 1):
            shard_span = trace.find(spans.shard_stage(shard_id))
            assert shard_span.parent_name == spans.STAGE_SCATTER
            assert shard_span.is_leaf
            assert shard_span.attributes["ok"] is True
            assert shard_span.attributes["replica"]
        wait = trace.find(spans.STAGE_SCATTER_WAIT)
        assert wait.attributes["wait"] == pytest.approx(
            response.scatter.max_latency
        )
        # The legacy per-index search spans are replaced by the scatter.
        assert spans.STAGE_FULLTEXT not in names

    def test_failed_shard_marked_in_trace(self, lexicon):
        system = _tiny_cluster(lexicon, shards=2, replicas=1)
        for replica in system.cluster.replicas(0):
            replica.kill()
        ctx = RequestContext.traced(clock=system.clock)
        system.engine.answer("bonifico istantaneo", ctx=ctx)
        shard_span = ctx.trace.find(spans.shard_stage(0))
        assert shard_span.attributes["ok"] is False
        assert shard_span.attributes["results"] == 0
        retrieval = ctx.trace.find(spans.STAGE_RETRIEVAL)
        assert retrieval.attributes["partial"] is True

