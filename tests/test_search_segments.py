"""Segment lifecycle tests: seals, merges, stamps, exact statistics.

The segmented index (:mod:`repro.search.segment`) exists so live ingestion
never rebuilds what queries read.  These tests pin down its mechanics:
when the buffer seals, what maintenance folds together, which writes move
the cache-invalidation stamps, and that every transformation preserves
query results byte-for-byte.
"""

from __future__ import annotations

import pytest

from repro.embeddings.model import SyntheticAdaEmbedder
from repro.obs.metrics import MetricsRegistry
from repro.search.fulltext import FullTextSearch
from repro.search.index import SearchIndex
from repro.search.schema import ChunkRecord

#: A flush threshold no test corpus reaches: the write buffer is the whole
#: index, i.e. one plain ``InvertedIndex`` per field — the monolithic layout.
NEVER_SEALED = 10**9


def _record(doc: str, chunk: int = 0, **kwargs) -> ChunkRecord:
    defaults = dict(
        title=f"Documento {doc}",
        content=f"contenuto del documento {doc} numero {chunk} carta bonifico",
        domain="banking_applications",
        section="sezione",
        topic="conto",
        keywords=("conto",),
    )
    defaults.update(kwargs)
    return ChunkRecord(chunk_id=f"{doc}#{chunk}", doc_id=doc, **defaults)


def _new_index(registry=None) -> SearchIndex:
    return SearchIndex(
        embedder=SyntheticAdaEmbedder(None, dim=16, seed=1), seed=1, registry=registry
    )


@pytest.fixture
def build_index(segment_policy):
    """A fresh index under the given segment policy (lower-case names)."""

    def build(registry=None, **policy) -> SearchIndex:
        segment_policy(**policy)
        return _new_index(registry)

    return build


class TestSealing:
    def test_auto_seal_at_flush_threshold(self, build_index):
        index = build_index(flush_threshold=4)
        for i in range(3):
            index.add_chunk(_record(f"d{i}"))
        assert index.segment_count == 0
        assert index.buffered_count == 3
        index.add_chunk(_record("d3"))
        assert index.segment_count == 1
        assert index.buffered_count == 0

    def test_explicit_flush_seals_partial_buffer(self, build_index):
        index = build_index(flush_threshold=100)
        index.add_chunks([_record("a"), _record("b")])
        index.flush()
        assert index.segment_count == 1
        assert index.buffered_count == 0
        index.flush()  # empty buffer: no-op
        assert index.segment_count == 1

    def test_monolithic_layout_has_no_segments(self, build_index):
        index = build_index(flush_threshold=NEVER_SEALED)
        index.add_chunks([_record(f"d{i}") for i in range(300)])
        assert index.segment_count == 0
        assert index.buffered_count == 300
        assert index.segment_stamp() == (("buffer", 300),)


class TestGenerationSemantics:
    def test_maintenance_does_not_bump_generation(self, build_index):
        index = build_index(flush_threshold=1, max_segments=2, merge_factor=2)
        for i in range(6):
            index.add_chunk(_record(f"d{i}"))
        generation = index.generation
        index.flush()
        index.run_maintenance(0.0)
        assert index.segment_count <= 2
        assert index.generation == generation

    def test_writes_bump_generation(self, build_index):
        index = build_index()
        generation = index.generation
        index.add_chunk(_record("a"))
        assert index.generation > generation
        generation = index.generation
        index.delete_document("a")
        assert index.generation > generation


class TestSegmentStamp:
    def test_buffer_writes_move_only_the_buffer_component(self, build_index):
        index = build_index(flush_threshold=100)
        index.add_chunks([_record(f"d{i}") for i in range(4)])
        index.flush()
        before = index.segment_stamp()
        index.add_chunk(_record("fresh"))
        after = index.segment_stamp()
        assert before != after
        assert before[:-1] == after[:-1]  # sealed components untouched
        assert before[-1][0] == "buffer" and after[-1][0] == "buffer"

    def test_tombstone_moves_only_the_touched_segment(self, build_index):
        index = build_index(flush_threshold=100)
        index.add_chunks([_record("a"), _record("b")])
        index.flush()
        index.add_chunks([_record("c"), _record("d")])
        index.flush()
        before = index.segment_stamp()
        index.delete_document("c")  # lives in the second segment
        after = index.segment_stamp()
        assert before[0] == after[0]  # first segment's (id, epoch) stable
        assert before[1] != after[1]
        assert before[-1] == after[-1]  # buffer untouched

    def test_seal_changes_stamp_but_merge_preserves_content(self, build_index):
        index = build_index(flush_threshold=100)
        index.add_chunk(_record("a"))
        buffered = index.segment_stamp()
        index.flush()
        assert index.segment_stamp() != buffered  # new segment component


class TestMaintenance:
    def test_merges_down_to_max_segments(self, build_index):
        index = build_index(flush_threshold=1, max_segments=2, merge_factor=2)
        for i in range(5):
            index.add_chunk(_record(f"d{i}"))
        assert index.segment_count == 5
        ops = index.run_maintenance(0.0)
        assert index.segment_count == 2
        assert ops["merge"] == 3  # 5 -> 4 -> 3 -> 2, two victims per fold
        assert len(index) == 5

    def test_interval_gates_successive_sweeps(self, build_index):
        index = build_index(flush_threshold=1, max_segments=1, merge_factor=2, merge_interval=900.0)
        index.add_chunks([_record("a"), _record("b")])
        assert index.run_maintenance(0.0) != {}
        index.add_chunks([_record("c"), _record("d")])
        assert index.run_maintenance(10.0) == {}  # too soon
        assert index.run_maintenance(900.0) != {}

    def test_compacts_tombstone_heavy_segment(self, build_index):
        index = build_index(flush_threshold=4, segment_dead_ratio=0.4, max_segments=8)
        index.add_chunks([_record(f"d{i}") for i in range(4)])
        assert index.segment_count == 1
        index.delete_document("d0")
        index.delete_document("d1")
        ops = index.run_maintenance(0.0)
        assert ops == {"compact": 1}
        assert index.segment_count == 1
        assert len(index) == 2

    def test_maintenance_preserves_results_bitwise(self, build_index):
        index = build_index(flush_threshold=3, max_segments=1, merge_factor=2)
        for i in range(8):
            index.add_chunk(_record(f"d{i}", content=f"carta bonifico {i} prelievo conto"))
        index.delete_document("d2")
        index.delete_document("d5")
        search = FullTextSearch(index)

        def ranking():
            hits = search.search("carta bonifico conto", n=10).fetch()
            return [(r.record.chunk_id, r.score) for r in hits]

        before = ranking()
        assert before
        index.flush()
        index.run_maintenance(0.0)
        assert index.segment_count == 1
        after = ranking()
        assert after == before  # merges are content-preserving, bit-exact

    def test_vacuum_compacts_everything(self, build_index):
        index = build_index(flush_threshold=2)
        index.add_chunks([_record(f"d{i}") for i in range(6)])
        index.delete_document("d1")
        assert index.vacuum(0.0) is True
        assert index.segment_count == 1
        assert index.buffered_count == 0
        assert index.tombstone_ratio == 0.0
        assert len(index) == 5


class TestMaintenanceCounters:
    def test_ops_are_counted_by_kind(self, build_index):
        registry = MetricsRegistry()
        index = build_index(registry=registry, flush_threshold=2, max_segments=1, merge_factor=2)
        index.add_chunks([_record(f"d{i}") for i in range(4)])  # two auto-seals
        index.run_maintenance(0.0)  # one merge
        index.delete_document("d0")
        index.delete_document("d1")
        index.delete_document("d2")
        assert index.vacuum() is True  # 3/4 dead crosses the 0.35 default
        counter = registry.counter(
            "uniask_index_maintenance_total",
            "Index maintenance operations by kind (seal/merge/compact/vacuum).",
            ("op",),
        )
        assert counter.labels("seal").value >= 2
        assert counter.labels("merge").value >= 1
        assert counter.labels("vacuum").value == 1


def _live_postings(view, term: str) -> dict[int, int]:
    """The live ``doc_id -> tf`` map of *term*, read off the kernel views."""
    merged: dict[int, int] = {}
    for kernel_view in view.kernel_views():
        merged.update(kernel_view.kernel.postings_dict(term, kernel_view.live))
    return merged


class TestExactStatistics:
    def test_segmented_stats_match_monolithic(self, segment_policy):
        # The store reads the flush threshold at each add, so each index is
        # filled under its own policy.
        segmented, monolithic = _new_index(), _new_index()
        for index, flush_threshold in ((segmented, 3), (monolithic, NEVER_SEALED)):
            segment_policy(flush_threshold=flush_threshold)
            for i in range(10):
                index.add_chunk(_record(f"d{i}", content=f"carta {i} bonifico " * (i + 1)))
            index.delete_document("d3")
            index.delete_document("d7")
        segmented.run_maintenance(0.0)
        seg_view = segmented.inverted_index("content")
        mono_view = monolithic.inverted_index("content")
        assert len(seg_view) == len(mono_view)
        assert seg_view.total_length == mono_view.total_length
        assert seg_view.average_length == mono_view.average_length
        terms = mono_view.analyze_query("carta bonifico documento")
        for term in terms:
            assert seg_view.document_frequency(term) == mono_view.document_frequency(term)
            assert _live_postings(seg_view, term) == _live_postings(mono_view, term)
