"""Live-ingestion visibility: writes are queryable without a rebuild.

The paper's deployment folds KB edits into a batch index refresh; the
segmented index makes them continuously fresh instead.  These tests pin
the three visibility guarantees of that design:

* an upsert is queryable the moment the write returns — no flush, no
  rebuild, and no sealed segment is touched;
* a delete is invisible immediately, long before any merge reclaims it;
* caches invalidate at the granularity of what the write touched — the
  untouched shards (and the answer tier across content-preserving
  maintenance) keep serving from cache.
"""

from __future__ import annotations

import pytest

from repro.api import CACHE_BYPASS, AskRequest, CacheConfig, create_engine
from repro.cluster.config import ClusterConfig
from repro.core.config import UniAskConfig
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon
from repro.embeddings.model import SyntheticAdaEmbedder
from repro.pipeline.clock import SimulatedClock
from repro.pipeline.indexing import IndexingService
from repro.pipeline.ingestion import IngestionService
from repro.pipeline.queue import MessageQueue
from repro.pipeline.store import KbDocument, KnowledgeBaseStore
from repro.search.fulltext import FullTextSearch
from repro.search.hybrid import HybridSearchConfig
from repro.search.index import SearchIndex
from repro.search.schema import ChunkRecord


def _record(doc: str, content: str, chunk: int = 0) -> ChunkRecord:
    return ChunkRecord(
        chunk_id=f"{doc}#{chunk}",
        doc_id=doc,
        title=f"Documento {doc}",
        content=content,
        domain="banking_applications",
        section="sezione",
        topic="conto",
        keywords=("conto",),
    )


@pytest.fixture
def build_index(segment_policy):
    """A fresh index under the given segment policy (lower-case names)."""

    def build(**policy) -> SearchIndex:
        segment_policy(**policy)
        return SearchIndex(embedder=SyntheticAdaEmbedder(None, dim=16, seed=1), seed=1)

    return build


def _doc_ids(results) -> set[str]:
    return {r.record.doc_id for r in results}


class TestDirectWrites:
    def test_upsert_immediately_queryable_without_rebuild(self, build_index):
        index = build_index(flush_threshold=100)
        for i in range(6):
            index.add_chunk(_record(f"d{i}", f"contenuto generico numero {i}"))
        index.flush()
        sealed_before = index.segment_stamp()[:-1]
        segments_before = index.segment_count

        index.add_chunk(_record("fresh", "sblocco immediato della carta smarrita"))
        search = FullTextSearch(index)
        assert "fresh" in _doc_ids(search.search("sblocco carta smarrita", n=5).fetch())
        # Visibility came from the write buffer alone: every sealed
        # segment's (id, epoch) component is untouched, nothing rebuilt.
        assert index.segment_count == segments_before
        assert index.segment_stamp()[:-1] == sealed_before
        assert index.buffered_count == 1

    def test_update_replaces_previous_version_immediately(self, build_index):
        index = build_index(flush_threshold=2)
        index.add_chunk(_record("a", "vecchia procedura per il bonifico"))
        index.add_chunk(_record("b", "altro documento"))  # seals the buffer
        assert index.segment_count == 1
        index.add_chunk(_record("a", "nuova procedura aggiornata per il bonifico"))
        search = FullTextSearch(index)
        hits = search.search("procedura bonifico", n=5).fetch()
        contents = {r.record.content for r in hits if r.record.doc_id == "a"}
        assert contents == {"nuova procedura aggiornata per il bonifico"}

    def test_delete_invisible_before_any_merge(self, build_index):
        index = build_index(flush_threshold=3)
        for i in range(6):
            index.add_chunk(_record(f"d{i}", f"istruzioni per il prelievo {i}"))
        assert index.segment_count == 2
        search = FullTextSearch(index)
        assert "d1" in _doc_ids(search.search("istruzioni prelievo", n=10).fetch())

        index.delete_document("d1")
        # Still two segments, tombstone not yet reclaimed — but invisible.
        assert index.segment_count == 2
        assert index.tombstone_ratio > 0.0
        assert "d1" not in _doc_ids(search.search("istruzioni prelievo", n=10).fetch())


class TestPipelineFreshness:
    def _wire(self, build_index):
        store = KnowledgeBaseStore()
        queue = MessageQueue()
        clock = SimulatedClock()
        index = build_index(flush_threshold=4)
        ingestion = IngestionService(store, queue, clock)
        indexing = IndexingService(store, queue, index, clock=clock)
        return store, queue, clock, index, ingestion, indexing

    @staticmethod
    def _page(doc_id: str, text: str, modified_at: float) -> KbDocument:
        html = (
            f"<html><head><title>Pagina {doc_id}</title></head>"
            f"<body><p>{text}</p></body></html>"
        )
        return KbDocument(doc_id=doc_id, html=html, modified_at=modified_at)

    def test_kb_edit_reaches_queries_in_one_cycle(self, build_index):
        store, _, clock, index, ingestion, indexing = self._wire(build_index)
        for i in range(5):
            store.put(self._page(f"p{i}", f"condizioni del conto corrente {i}", 0.0))
        ingestion.poll_now()
        indexing.drain()
        search = FullTextSearch(index)
        assert len(index) == 5

        clock.advance(60.0)
        store.put(self._page("p9", "nuova commissione per il bonifico estero", clock.now()))
        report = ingestion.poll_now()
        assert report.upserts == 1
        indexing.drain()
        assert "p9" in _doc_ids(search.search("commissione bonifico estero", n=5).fetch())

    def test_kb_delete_reaches_queries_in_one_cycle(self, build_index):
        store, _, clock, index, ingestion, indexing = self._wire(build_index)
        for i in range(3):
            store.put(self._page(f"p{i}", f"limiti di prelievo bancomat {i}", 0.0))
        ingestion.poll_now()
        indexing.drain()
        search = FullTextSearch(index)
        assert "p1" in _doc_ids(search.search("limiti prelievo bancomat", n=5).fetch())

        clock.advance(60.0)
        store.delete("p1", deleted_at=clock.now())
        report = ingestion.poll_now()
        assert report.deletes == 1
        indexing.drain()
        assert "p1" not in _doc_ids(search.search("limiti prelievo bancomat", n=5).fetch())

    def test_drain_runs_clocked_maintenance(self, build_index):
        store, _, clock, index, ingestion, indexing = self._wire(build_index)
        # flush_threshold=4 and default max_segments=8: 40 chunks make 10
        # segments, so the first drain's maintenance sweep must merge.
        for i in range(40):
            store.put(self._page(f"p{i}", f"testo del documento numero {i}", 0.0))
        ingestion.poll_now()
        report = indexing.drain()
        assert report.documents_indexed == 40
        assert report.maintenance_ops > 0
        assert index.segment_count <= 8


class TestCacheGranularity:
    @pytest.fixture(scope="class")
    def sharded_system(self):
        kb = KbGenerator(KbGeneratorConfig(num_topics=8, error_families=2, seed=19)).generate()
        config = UniAskConfig(
            retrieval=HybridSearchConfig(mode="vector"),
            cluster=ClusterConfig(shards=2),
            cache=CacheConfig(enabled=True),
        )
        return create_engine(kb.store(), build_banking_lexicon(), config=config, seed=19)

    def test_vector_legs_invalidate_only_the_written_shard(self, sharded_system):
        system = sharded_system
        cache = system.cluster.retrieval_cache
        assert cache is not None
        # Past the answer tier, so every ask reaches the retrieval tier.
        question = AskRequest.of("come bloccare la carta di credito", cache=CACHE_BYPASS)

        system.engine.answer(question)  # cold: one miss per shard
        baseline = cache.stats.misses
        system.engine.answer(question)
        assert cache.stats.hits == 2
        assert cache.stats.invalidations == 0

        stamps = {
            sid: system.index.shard_index(sid).segment_stamp()
            for sid in system.index.shard_ids
        }
        system.index.add_chunk(_record("nuovo-doc", "regole inedite sul deposito titoli"))
        changed = [
            sid
            for sid in system.index.shard_ids
            if system.index.shard_index(sid).segment_stamp() != stamps[sid]
        ]
        assert len(changed) == 1  # the write touched exactly one shard

        system.engine.answer(question)
        # The untouched shard served from cache; only the written shard's
        # leg was dropped and recomputed.
        assert cache.stats.hits == 3
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == baseline + 1

    def test_answer_cache_survives_content_preserving_maintenance(self, segment_policy):
        kb = KbGenerator(KbGeneratorConfig(num_topics=8, error_families=2, seed=19)).generate()
        segment_policy(flush_threshold=4)
        config = UniAskConfig(cache=CacheConfig(enabled=True))
        system = create_engine(kb.store(), build_banking_lexicon(), config=config, seed=19)
        question = AskRequest.of("come bloccare la carta di credito")
        first = system.engine.answer(question)
        assert first.answer.cache_hit == ""

        # Seal and merge everything: content-preserving, generation stable.
        generation = system.index.generation
        system.index.flush()
        system.index.run_maintenance(system.clock.now() + 3600.0)
        assert system.index.generation == generation

        second = system.engine.answer(question)
        assert second.answer.cache_hit == "exact"
        assert second.answer.answer_text == first.answer.answer_text
