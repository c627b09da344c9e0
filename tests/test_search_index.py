"""Unit tests for the hybrid search index (writes, deletes, filters)."""

from __future__ import annotations

import pytest

from repro.embeddings.model import SyntheticAdaEmbedder
from repro.search.fulltext import FullTextSearch
from repro.search.index import SearchIndex
from repro.search.schema import ChunkRecord


def _record(doc: str, chunk: int = 0, **kwargs) -> ChunkRecord:
    defaults = dict(
        title=f"Documento {doc}",
        content=f"contenuto del documento {doc} numero {chunk}",
        domain="banking_applications",
        section="sezione",
        topic="conto",
        keywords=("conto",),
    )
    defaults.update(kwargs)
    return ChunkRecord(chunk_id=f"{doc}#{chunk}", doc_id=doc, **defaults)


@pytest.fixture()
def index() -> SearchIndex:
    return SearchIndex(embedder=SyntheticAdaEmbedder(None, dim=32, seed=1), seed=1)


class TestWrites:
    def test_add_and_len(self, index):
        index.add_chunk(_record("a"))
        index.add_chunk(_record("b"))
        assert len(index) == 2
        assert index.document_count == 2

    def test_multi_chunk_document(self, index):
        index.add_chunks([_record("a", 0), _record("a", 1)])
        assert len(index) == 2
        assert index.document_count == 1

    def test_readd_same_chunk_replaces(self, index):
        index.add_chunk(_record("a", content="vecchio contenuto"))
        index.add_chunk(_record("a", content="nuovo contenuto"))
        assert len(index) == 1
        live = index.live_internals()
        assert index.record(live[0]).content == "nuovo contenuto"

    def test_delete_document_tombstones_all_chunks(self, index):
        index.add_chunks([_record("a", 0), _record("a", 1), _record("b")])
        removed = index.delete_document("a")
        assert removed == 2
        assert len(index) == 1
        assert index.document_count == 1

    def test_delete_missing_document(self, index):
        assert index.delete_document("nope") == 0

    def test_tombstone_ratio(self, index):
        index.add_chunks([_record("a"), _record("b")])
        index.delete_document("a")
        assert index.tombstone_ratio == pytest.approx(0.5)

    def test_vacuum_rebuilds(self, index):
        index.add_chunks([_record("a"), _record("b"), _record("c")])
        index.delete_document("a")
        assert index.vacuum(0.0) is True
        assert index.tombstone_ratio == 0.0
        assert len(index) == 2

    def test_vacuum_noop_when_clean(self, index):
        index.add_chunk(_record("a"))
        assert index.vacuum(0.0) is False

    def test_noarg_vacuum_uses_config_threshold(self, index):
        # 1 dead of 3 chunks = 0.33, below the 0.35 config default: no-op.
        index.add_chunks([_record("a"), _record("b"), _record("c")])
        index.delete_document("a")
        assert index.vacuum() is False
        index.delete_document("b")
        assert index.vacuum() is True
        assert index.tombstone_ratio == 0.0


class TestReads:
    def test_deleted_chunks_not_in_fulltext(self, index):
        index.add_chunks([_record("a"), _record("b")])
        index.delete_document("a")
        hits = FullTextSearch(index).search("contenuto documento")
        assert {hit.record.doc_id for hit in hits} == {"b"}

    def test_deleted_chunks_not_in_vector_results(self, index):
        index.add_chunks([_record("a"), _record("b"), _record("c")])
        index.delete_document("b")
        query = index.embedder.embed("contenuto del documento b")
        hits = index.vector_search("content", query, k=3)
        doc_ids = {index.record(i).doc_id for i, _ in hits}
        assert "b" not in doc_ids

    def test_vector_search_after_vacuum(self, index):
        index.add_chunks([_record("a"), _record("b"), _record("c")])
        index.delete_document("b")
        index.vacuum()
        query = index.embedder.embed("contenuto documento")
        assert len(index.vector_search("content", query, k=3)) == 2

    def test_filters_match(self, index):
        index.add_chunk(_record("a", domain="governance"))
        internal = index.live_internals()[0]
        assert index.matches_filters(internal, {"domain": "governance"})
        assert not index.matches_filters(internal, {"domain": "technical_topics"})

    def test_collection_filter_contains(self, index):
        index.add_chunk(_record("a", keywords=("conto", "carta")))
        internal = index.live_internals()[0]
        assert index.matches_filters(internal, {"keywords": "carta"})
        assert not index.matches_filters(internal, {"keywords": "mutuo"})

    def test_unfilterable_field_rejected(self, index):
        index.add_chunk(_record("a"))
        internal = index.live_internals()[0]
        with pytest.raises(KeyError):
            index.matches_filters(internal, {"title": "x"})

    def test_none_filters_pass(self, index):
        index.add_chunk(_record("a"))
        assert index.matches_filters(index.live_internals()[0], None)

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            SearchIndex(embedder=SyntheticAdaEmbedder(None, dim=8), ann_backend="faiss")

    def test_exact_backend_equivalent_for_small_index(self):
        embedder = SyntheticAdaEmbedder(None, dim=32, seed=2)
        hnsw = SearchIndex(embedder=embedder, ann_backend="hnsw", seed=2)
        exact = SearchIndex(embedder=embedder, ann_backend="exact", seed=2)
        for idx in (hnsw, exact):
            for doc in "abcdef":
                idx.add_chunk(_record(doc))
        query = embedder.embed("contenuto del documento c")
        hnsw_hits = hnsw.vector_search("content", query, 3)
        exact_hits = exact.vector_search("content", query, 3)
        # Top hit must agree; the tail may reorder ties between backends.
        assert hnsw.record(hnsw_hits[0][0]).doc_id == exact.record(exact_hits[0][0]).doc_id
        hnsw_distances = sorted(round(d, 9) for _, d in hnsw_hits)
        exact_distances = sorted(round(d, 9) for _, d in exact_hits)
        assert hnsw_distances == exact_distances
