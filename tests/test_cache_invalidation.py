"""Cache invalidation: index epochs and per-shard write generations.

Every write through ``pipeline.indexing`` bumps the owning index's
``generation``; the answer cache stamps entries with the generation at
computation time and the cluster router stamps each memoized scatter leg
with its shard's generation — so a corpus write deterministically
invalidates exactly the entries it could have changed.  Re-indexing a page
nobody edited is not a write: nothing moves and every cache keeps its
entries.
"""

from __future__ import annotations

import pytest

from repro.cache import CacheConfig, ShardRetrievalCache, retrieval_cache
from repro.api import create_backend
from repro.cluster.config import ClusterConfig
from repro.core.config import UniAskConfig
from repro.core.factory import build_uniask_system
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon
from repro.search.hybrid import HybridSearchConfig


@pytest.fixture(scope="module")
def tiny_kb():
    return KbGenerator(KbGeneratorConfig(num_topics=12, error_families=2, seed=11)).generate()


@pytest.fixture(scope="module")
def banking_lexicon():
    return build_banking_lexicon()


def build_cached(tiny_kb, banking_lexicon, **config_kwargs):
    config = UniAskConfig(cache=CacheConfig(enabled=True), **config_kwargs)
    return build_uniask_system(tiny_kb.store(), banking_lexicon, config=config, seed=11)


def republish_document(system, doc_id: str) -> None:
    """One upsert message for *doc_id* through the indexing pipeline."""
    system.queue.publish({"action": "upsert", "doc_id": doc_id})
    system.indexing.drain()


def reindex_document(system, doc_id: str) -> None:
    """One write through the indexing pipeline (the path editors take):
    the page gains a paragraph, then its upsert is consumed."""
    html = system.store.get(doc_id).html + "<p>Nota aggiunta dalla redazione.</p>"
    system.store.update_html(doc_id, html, modified_at=1.0)
    republish_document(system, doc_id)


def write_state(system) -> dict:
    """Everything a write would move, for before / after comparison."""
    index = system.index
    shards = (
        [index.shard_index(shard_id) for shard_id in index.shard_ids]
        if hasattr(index, "shard_ids")
        else [index]
    )
    return {
        "generation": index.generation,
        "shard_generations": [shard.generation for shard in shards],
        "segment_stamps": [shard.segment_stamp() for shard in shards],
        "tombstone_ratios": [shard.tombstone_ratio for shard in shards],
        "graph_sizes": [
            {name: len(ann) for name, ann in shard._vectors.items()} for shard in shards
        ],
        "ordinals": index.live_ordinals() if hasattr(index, "live_ordinals") else None,
    }


class TestIndexGenerations:
    def test_add_bumps_generation(self, tiny_kb, banking_lexicon):
        system = build_cached(tiny_kb, banking_lexicon)
        before = system.index.generation
        reindex_document(system, system.store.all_documents()[0].doc_id)
        assert system.index.generation > before

    @pytest.mark.parametrize("cluster", (None, ClusterConfig(shards=3)))
    def test_republishing_an_untouched_page_is_not_a_write(
        self, tiny_kb, banking_lexicon, cluster, monkeypatch
    ):
        """The converse: the poller re-queues a page nobody edited — no
        generation, segment stamp, tombstone, graph node, ordinal or embedder
        call moves, and the cached answer is still served."""
        kwargs = {} if cluster is None else {"cluster": cluster}
        system = build_cached(tiny_kb, banking_lexicon, **kwargs)
        topic = next(iter(tiny_kb.topics.values()))
        question = f"Come posso {topic.action.canonical} {topic.entity.canonical}?"
        assert system.engine.answer(question).cache_hit == ""
        before = write_state(system)

        embedded = []
        embedder = system.index.embedder
        embed = embedder.embed
        monkeypatch.setattr(embedder, "embed", lambda text: embedded.append(text) or embed(text))
        for document in system.store.all_documents()[:5]:
            republish_document(system, document.doc_id)

        assert embedded == []
        assert write_state(system) == before
        assert system.engine.answer(question).cache_hit == "exact"
        assert system.answer_cache.stats.invalidations == 0

    def test_read_does_not_bump_generation(self, tiny_kb, banking_lexicon):
        system = build_cached(tiny_kb, banking_lexicon)
        before = system.index.generation
        system.searcher.search("come sbloccare la carta")
        assert system.index.generation == before

    def test_sharded_generation_survives_topology_changes(self, tiny_kb, banking_lexicon):
        system = build_cached(tiny_kb, banking_lexicon, cluster=ClusterConfig(shards=3))
        before = system.index.generation
        system.index.add_shard()
        grown = system.index.generation
        assert grown > before
        system.index.remove_shard(max(system.index.shard_ids))
        assert system.index.generation > grown  # monotonic, never a sum


class TestAnswerEpochInvalidation:
    def test_pipeline_upsert_invalidates_cached_answer(self, tiny_kb, banking_lexicon):
        system = build_cached(tiny_kb, banking_lexicon)
        topic = next(iter(tiny_kb.topics.values()))
        question = f"Come posso {topic.action.canonical} {topic.entity.canonical}?"

        assert system.engine.answer(question).cache_hit == ""
        assert system.engine.answer(question).cache_hit == "exact"

        reindex_document(system, system.store.all_documents()[0].doc_id)

        recomputed = system.engine.answer(question)
        assert recomputed.cache_hit == ""
        assert system.answer_cache.stats.invalidations >= 1
        # The recomputed answer is cached again under the new epoch.
        assert system.engine.answer(question).cache_hit == "exact"


class TestShardRetrievalCacheUnit:
    def test_generation_mismatch_drops_entry(self):
        cache = ShardRetrievalCache()
        cache.put(0, ("q",), generation=1, text=[], vector={})
        assert cache.get(0, ("q",), generation=1) is not None
        assert cache.get(0, ("q",), generation=2) is None
        assert cache.stats.invalidations == 1
        assert len(cache) == 0

    def test_capacity_is_per_shard(self, monkeypatch):
        monkeypatch.setattr(retrieval_cache, "RETRIEVAL_CAPACITY", 2)
        cache = ShardRetrievalCache()
        for shard_id in (0, 1):
            for n in range(3):
                cache.put(shard_id, (f"q{n}",), generation=0, text=[], vector={})
        assert cache.stats.evictions == 2  # one per shard, not global
        assert cache.get(0, ("q0",), generation=0) is None
        assert cache.get(0, ("q2",), generation=0) is not None

    def test_drop_shard_forgets_everything(self):
        cache = ShardRetrievalCache()
        cache.put(0, ("q",), generation=0, text=[], vector={})
        cache.drop_shard(0)
        assert cache.get(0, ("q",), generation=0) is None


class TestRouterRetrievalCache:
    QUESTION = "come sbloccare la carta di credito"

    def _cluster(self, tiny_kb, banking_lexicon, mode: str):
        return build_cached(
            tiny_kb,
            banking_lexicon,
            cluster=ClusterConfig(shards=3),
            retrieval=HybridSearchConfig(mode=mode),
        )

    def test_repeat_query_hits_every_shard(self, tiny_kb, banking_lexicon):
        system = self._cluster(tiny_kb, banking_lexicon, "hybrid")
        cache = system.cluster.retrieval_cache
        system.searcher.search(self.QUESTION)
        assert cache.stats.hits == 0
        system.searcher.search(self.QUESTION)
        assert cache.stats.hits == 3

    def test_cached_ranking_is_identical(self, tiny_kb, banking_lexicon):
        system = self._cluster(tiny_kb, banking_lexicon, "hybrid")
        first = system.searcher.search(self.QUESTION)
        second = system.searcher.search(self.QUESTION)
        assert [(c.record.chunk_id, c.score) for c in first] == [
            (c.record.chunk_id, c.score) for c in second
        ]

    def test_vector_mode_invalidates_only_the_written_shard(self, tiny_kb, banking_lexicon):
        system = self._cluster(tiny_kb, banking_lexicon, "vector")
        cache = system.cluster.retrieval_cache
        system.searcher.search(self.QUESTION)

        reindex_document(system, system.store.all_documents()[0].doc_id)

        hits_before = cache.stats.hits
        system.searcher.search(self.QUESTION)
        # Vector legs depend only on their own shard: the untouched two
        # shards keep serving from cache, the written shard recomputes.
        assert cache.stats.invalidations == 1
        assert cache.stats.hits == hits_before + 2

    def test_hybrid_mode_invalidates_every_shard(self, tiny_kb, banking_lexicon):
        system = self._cluster(tiny_kb, banking_lexicon, "hybrid")
        cache = system.cluster.retrieval_cache
        system.searcher.search(self.QUESTION)

        reindex_document(system, system.store.all_documents()[0].doc_id)

        hits_before = cache.stats.hits
        system.searcher.search(self.QUESTION)
        # BM25 text legs rank against cluster-wide collection statistics,
        # so any write anywhere invalidates every shard's hybrid legs.
        assert cache.stats.invalidations == 3
        assert cache.stats.hits == hits_before

    def test_one_switch_sets_every_tier(self, tiny_kb, banking_lexicon):
        """The retrieval tier has no switch of its own: ``enabled`` turns
        on (and off) the answer, semantic, retrieval and coalescing tiers
        together."""
        for enabled in (True, False):
            config = UniAskConfig(
                cache=CacheConfig(enabled=enabled),
                cluster=ClusterConfig(shards=2),
            )
            system = build_uniask_system(tiny_kb.store(), banking_lexicon, config=config, seed=11)
            assert (system.cluster.retrieval_cache is not None) is enabled
            assert (system.answer_cache is not None) is enabled
            assert (create_backend(system).single_flight is not None) is enabled
            with pytest.raises(TypeError, match="coalescing"):
                create_backend(system, coalescing=not enabled)
