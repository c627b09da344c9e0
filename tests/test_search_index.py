"""Unit tests for the hybrid search index (writes, deletes, filters)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann import store as store_module
from repro.cluster import ShardedSearchIndex
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


def _write_state(index: SearchIndex) -> tuple:
    """Everything a write moves: a no-op must leave it equal."""
    return (
        index.generation, index.segment_stamp(), index.tombstone_ratio, index.buffered_count,
        index.live_internals(), {name: len(ann) for name, ann in index._vectors.items()},
    )


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

    @pytest.mark.parametrize("bad", (np.nan, 1e39, "width"))
    def test_a_refused_vector_leaves_the_index_as_it_was(self, index, bad):
        """Every vector is checked before the first write: a content vector
        not finite in float32, or of the wrong width, is a ``ValueError``
        that adds no chunk, tombstones none and stores no row in either
        graph, for a new chunk and for a replacement alike."""
        index.add_chunk(_record("a"))
        title = index.embedder.embed("Documento b")
        content = np.ones(33) if bad == "width" else np.full(32, bad)
        before = _write_state(index)
        for record in (_record("b"), _record("a", content="nuovo")):
            with pytest.raises(ValueError):
                index.add_chunk(record, vectors={"title": title, "content": content})
            assert _write_state(index) == before
        assert index.record(index.live_internals()[0]) == _record("a")

    def test_each_stored_vector_is_converted_once(self, index, monkeypatch):
        """``add_chunk`` checks each vector as the float32 row and norm its
        store keeps, and hands both on: one ``float32_row`` per stored
        vector, none for a field whose text did not change."""
        from repro.ann import distance as distance_module
        from repro.search import index as index_module

        calls = []
        convert = distance_module.float32_row

        def counted(*args, **kwargs):
            calls.append(1)
            return convert(*args, **kwargs)

        for module in (index_module, store_module):
            monkeypatch.setattr(module, "float32_row", counted)
        index.add_chunks([_record("a"), _record("b")])
        assert len(calls) == 4  # two chunks, two vector fields
        index.add_chunk(_record("a", content="nuovo contenuto"))
        assert len(calls) == 5  # the title kept its vector
        internal = index.add_chunk(_record("c"), vectors={"title": np.ones(32), "content": np.ones(32)})
        assert len(calls) == 7
        stored = index.chunk_vector(internal, "content")
        assert stored.dtype == np.float32 and np.array_equal(stored, np.ones(32))

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


class TestReplaceDocument:
    def test_writes_only_the_chunks_that_changed(self, index):
        first, second = index.replace_document("a", [_record("a", 0), _record("a", 1)])
        generation = index.generation
        edited = _record("a", 1, content="contenuto riscritto")
        written = index.replace_document("a", [_record("a", 0), edited])
        assert len(written) == 1 and written[0] not in (first, second)
        assert index.live_internals() == [first, written[0]]  # chunk 0 kept its id
        assert index.record(written[0]).content == "contenuto riscritto"
        assert index.generation == generation + 1

    def test_chunks_the_page_lost_are_tombstoned(self, index):
        index.replace_document("a", [_record("a", 0), _record("a", 1), _record("a", 2)])
        index.add_chunk(_record("b"))
        generation = index.generation
        assert index.replace_document("a", [_record("a", 0)]) == []
        assert len(index) == 2 and index.document_count == 2
        assert index.generation > generation
        query = index.embedder.embed("contenuto del documento a numero 2")
        hits = index.vector_search("content", query, k=10)
        assert {index.record(i).chunk_id for i, _ in hits} == {"a#0", "b#0"}
        assert index.replace_document("a", []) == []  # an emptied page is a delete
        assert len(index) == 1

    def test_an_unchanged_page_is_not_a_write(self, index):
        records = [_record("a", 0), _record("a", 1)]
        index.replace_document("a", records)
        index.flush()
        before = _write_state(index)
        assert index.replace_document("a", [_record("a", 0), _record("a", 1)]) == []
        assert _write_state(index) == before

    def test_an_unchanged_field_keeps_its_vector(self, index):
        """A content-only edit hands the title vector to the new internal id:
        the very row of the store, neither re-embedded nor re-inserted."""
        (old,) = index.replace_document("a", [_record("a")])
        title_vector = index.chunk_vector(old, "title")
        (new,) = index.replace_document("a", [_record("a", content="altro contenuto")])
        assert new != old
        assert np.shares_memory(index.chunk_vector(new, "title"), title_vector)
        assert index._vectors["title"]._store.count == 1  # no row appended
        embedded = index.embedder.embed("altro contenuto").astype(np.float32)
        assert np.array_equal(index.chunk_vector(new, "content"), embedded)
        with pytest.raises(KeyError):
            index.chunk_vector(old, "title")  # the replaced chunk has no vectors
        assert len(index._vectors["title"]) == 1 and len(index._vectors["content"]) == 2

    def test_a_chunk_vector_is_read_only(self, index):
        """A stored vector is the index's own row: writing into it raises
        instead of moving every later search of the chunk."""
        (internal,) = index.replace_document("a", [_record("a")])
        vector = index.chunk_vector(internal, "content")
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 1.0
        assert np.array_equal(index.chunk_vector(internal, "content"), vector)

    def test_supplied_vectors_are_always_inserted(self, index):
        """``load_index`` and shard migration hand vectors in: they are stored
        as given even where the text did not change."""
        index.add_chunk(_record("a"))
        supplied = {name: np.full(32, float(n + 1)) for n, name in enumerate(("title", "content"))}
        internal = index.add_chunk(_record("a", content="altro contenuto"), vectors=supplied)
        for name, vector in supplied.items():
            assert np.array_equal(index.chunk_vector(internal, name), vector)

    @pytest.mark.parametrize(
        "records",
        (
            [_record("a", 0), _record("b", 1)],
            [_record("a", 0), _record("a", 1), _record("a", 1, content="due volte")],
        ),
        ids=("foreign_doc", "duplicate_chunk_id"),
    )
    def test_bad_records_are_refused_before_the_first_write(self, index, records):
        index.replace_document("a", [_record("a", 0, content="prima versione")])
        before = _write_state(index)
        with pytest.raises(ValueError):
            index.replace_document("a", records)
        assert _write_state(index) == before

    def test_sharded_replace_routes_and_keeps_ordinals(self):
        cluster = ShardedSearchIndex(SyntheticAdaEmbedder(None, dim=32, seed=1), num_shards=3)
        for doc in "abcdef":
            cluster.replace_document(doc, [_record(doc, 0), _record(doc, 1)])
        ordinals, generation = cluster.live_ordinals(), cluster.generation
        assert cluster.replace_document("c", [_record("c", 0), _record("c", 1)]) == []
        assert (cluster.live_ordinals(), cluster.generation) == (ordinals, generation)
        cluster.replace_document("c", [_record("c", 0), _record("c", 1, content="riscritto")])
        moved = {c for c, o in cluster.live_ordinals().items() if o != ordinals[c]}
        assert moved == {"c#1"}
        assert cluster.ordinal("c#1") == max(cluster.live_ordinals().values())
        assert cluster.generation == generation + 1
        assert len(cluster) == 12
        # The cluster keeps ordinals for its live chunks only.
        cluster.replace_document("c", [_record("c", 0)])
        cluster.delete_document("d")
        assert sorted(cluster.live_ordinals()) == [
            "a#0", "a#1", "b#0", "b#1", "c#0", "e#0", "e#1", "f#0", "f#1",
        ]


class TestIncrementalWork:
    """What an upsert costs, by count: ``np.dot`` calls (every HNSW distance
    is one) and ``embed`` calls."""

    PAGES = 50

    @pytest.fixture()
    def counted(self, index, monkeypatch):
        for n in range(self.PAGES):
            index.replace_document(f"d{n}", [_record(f"d{n}", title=f"Titolo {n % 7}")])
        dots, embedded = [], []  # distance kernel calls, embedded texts
        kernel, embed = store_module.cosine_distances, index.embedder.embed
        monkeypatch.setattr(
            store_module, "cosine_distances", lambda *args: dots.append(1) or kernel(*args)
        )
        monkeypatch.setattr(
            index.embedder, "embed", lambda text: embedded.append(text) or embed(text)
        )
        return index, dots, embedded

    def test_republishing_untouched_pages_costs_nothing(self, counted):
        index, dots, embedded = counted
        before = _write_state(index)
        for n in range(self.PAGES):
            index.replace_document(f"d{n}", [_record(f"d{n}", title=f"Titolo {n % 7}")])
        assert (dots, embedded) == ([], [])
        assert _write_state(index) == before

    def test_content_only_edits_cost_the_title_field_nothing(self, counted, monkeypatch):
        """Fifty content-only edits embed fifty contents and no title, insert
        into the content graph only, and the title graph — which the parent
        re-inserted every one of them into — evaluates no distance at all.
        Below their bound the graphs link no row until a search would walk
        them, so the edits evaluate nothing; linking after them pays for the
        content graph's fifty new rows and finds none in the title graph."""
        index, dots, embedded = counted
        title_graph, content_graph = index._vectors["title"], index._vectors["content"]
        for graph in (title_graph, content_graph):
            graph._link_pending()
        dots.clear()
        monkeypatch.setattr(title_graph, "add", lambda *args: pytest.fail("title re-inserted"))
        contents = [f"contenuto riscritto numero {n}" for n in range(self.PAGES)]
        for n, content in enumerate(contents):
            index.replace_document(
                f"d{n}", [_record(f"d{n}", title=f"Titolo {n % 7}", content=content)]
            )
        assert embedded == contents and not dots
        assert len(title_graph) == self.PAGES
        assert len(content_graph) == 2 * self.PAGES
        title_graph._link_pending()
        assert not dots
        content_graph._link_pending()
        assert dots  # the content graph did pay for its inserts


class TestReads:
    def test_deleted_chunks_not_in_fulltext(self, index):
        index.add_chunks([_record("a"), _record("b")])
        index.delete_document("a")
        hits = FullTextSearch(index).search("contenuto documento").fetch()
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
