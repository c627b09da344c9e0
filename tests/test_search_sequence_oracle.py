"""Sequence oracle for the one full-text layout (ROADMAP item 3a, text slice).

A random walk of writes and maintenance drives one small-threshold
:class:`SearchIndex` through every state the segmented store can reach —
buffered, sealed, tombstoned, compacted, merged, vacuumed.  After every
step the served BM25 ranking must equal, ``==`` on ids and score bits, a
fresh plain :class:`InvertedIndex` scored by the reference loop
(:mod:`tests.reference_bm25`) rebuilt from the live records alone, and the
``explain=True`` request must return the served scores.  The rebuilt reference
knows nothing about segments, ledgers or masks, so any statistic the
segmented store lets drift (e.g. a tombstone that forgets ``deleted_df``)
shows up as a bit difference.

The second test takes the same walk through a :class:`ClusterSearcher` of
two to four shards, whose shard legs score against one plan (analyzed
terms + global statistics) taken once per request.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSearcher, ShardedSearchIndex
from repro.embeddings.model import SyntheticAdaEmbedder
from repro.obs.trace import RequestContext
from repro.search.fulltext import FullTextSearch
from repro.search.hybrid import HybridSearchConfig, HybridSemanticSearch
from repro.search.index import SearchIndex
from repro.search.inverted import InvertedIndex
from repro.search import segment
from repro.search.schema import ChunkRecord
from tests.reference_bm25 import ReferenceBm25Scorer
from tests.test_vector_sequence_oracle import assert_ties_follow_internal_ids

WORDS = ("carta", "bonifico", "prelievo", "conto", "estero", "limite", "blocco", "mutuo")
QUERIES = ("carta bonifico", "prelievo conto estero carta", "limite blocco mutuo carta carta")
TOP_N = 50

texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=10).map(" ".join)
docs = st.integers(0, 7).map("d{}".format)
adds = st.tuples(st.just("add"), docs, st.integers(0, 1), texts, texts)
steps = st.lists(
    st.one_of(
        adds,
        adds,
        adds,  # writes outnumber the rest so segments pile up past max_segments
        st.tuples(st.just("delete"), docs),
        st.tuples(st.sampled_from(("flush", "maintain", "vacuum"))),
    ),
    min_size=12,  # three seals and a sweep fit, so merges are reached
    max_size=40,
)


def rebuild(index: SearchIndex, live: dict[str, int]) -> dict[str, InvertedIndex]:
    """A plain inverted index per searchable field over the live records alone."""
    plains = {}
    for field_name in index.schema.searchable_fields:
        plains[field_name] = plain = InvertedIndex(index.analyzer)
        for internal in live.values():
            plain.add(internal, index.record(internal).value(field_name))
    return plains


def reference_ranking(plains: dict[str, InvertedIndex], query: str) -> list[tuple[int, str]]:
    """Top-n ``(internal, score bits)`` of the reference loop over *plains*."""
    combined: dict[int, float] = {}
    for plain in plains.values():
        scores = ReferenceBm25Scorer(plain).score_all(plain.analyze_query(query))
        for internal, score in scores.items():
            combined[internal] = combined.get(internal, 0.0) + 1.0 * score
    ranked = sorted(combined.items(), key=lambda pair: (-pair[1], pair[0]))[:TOP_N]
    return [(internal, score.hex()) for internal, score in ranked]


def apply(index, live: dict[str, int], step: tuple, now: float) -> float:
    """One write or maintenance step on a single or sharded *index*.

    *live* (chunk id → the internal id ``add_chunk`` returned) is kept by
    the walk itself, not read back from the index.  Returns the clock.
    """
    if step[0] == "add":
        _, doc, chunk, title, content = step
        record = ChunkRecord(f"{doc}#{chunk}", doc, title=title, content=content)
        live[record.chunk_id] = index.add_chunk(record)
    elif step[0] == "delete":
        index.delete_document(step[1])
        for chunk_id in [c for c in live if c.startswith(f"{step[1]}#")]:
            del live[chunk_id]
    elif step[0] == "flush":
        index.flush()
    elif step[0] == "maintain":
        now += 2 * segment.MERGE_INTERVAL  # every sweep is due
        index.run_maintenance(now)
    elif step[0] == "vacuum":
        index.vacuum(0.0)
    assert len(index) == len(live)
    return now


@settings(max_examples=100, deadline=None)
@given(steps)
def test_served_ranking_equals_rebuilt_reference_after_every_step(sequence):
    index = SearchIndex(embedder=SyntheticAdaEmbedder(None, dim=8, seed=1), ann_backend="exact")
    search = FullTextSearch(index)
    live: dict[str, int] = {}
    now = 0.0
    for step in sequence:
        with mock.patch.multiple(segment, FLUSH_THRESHOLD=3, MAX_SEGMENTS=2):
            now = apply(index, live, step, now)
        plains = rebuild(index, live)
        for query in QUERIES:
            served = search.search(query, n=TOP_N)
            got = [(live[c.record.chunk_id], c.score.hex()) for c in served]
            assert got == reference_ranking(plains, query), (step, query)
            explained = search.search(query, n=TOP_N, ctx=RequestContext(explain=True))
            assert [(live[c.record.chunk_id], c.score.hex()) for c in explained] == got


# -- the same walk through the router (ROADMAP item 4(b), first slice) --------

routed_steps = st.lists(
    st.one_of(
        adds,
        adds,
        adds,
        st.tuples(st.just("delete"), docs),
        st.tuples(st.sampled_from(("flush", "maintain", "vacuum"))),
    ),
    min_size=12,
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), routed_steps)
def test_routed_ranking_equals_reference_and_single_index_after_every_step(shards, sequence):
    """Writes under the planned scatter path.

    A cluster of two to four shards and a single index take the same walk.
    After every step the raw merged text ranking (``search_degraded``)
    equals the rebuilt reference in chunk ids and score bits, ``search``
    (asked to explain itself, so the per-term pass reads the plan too)
    equals the single index's, no scatter is partial, and every shard's
    internal-id order is the ordinal order of its chunks.  The comparison
    is exact, ties included: the sixteen possible chunks never fill a leg's
    ``text_n``, so the merge orders every candidate by ``(-score,
    ordinal)`` — which is the single index's insertion order.
    """
    embedder = SyntheticAdaEmbedder(None, dim=8, seed=1)
    config = HybridSearchConfig(mode="text", use_reranker=False)
    single = SearchIndex(embedder=embedder, ann_backend="exact")
    cluster = ShardedSearchIndex(embedder=embedder, num_shards=shards, ann_backend="exact")
    # The shards seal every second document; the single index keeps the
    # default threshold, which sixteen chunks never reach.
    small_segments = mock.patch.object(segment, "FLUSH_THRESHOLD", 2)
    single_search = HybridSemanticSearch(single, config=config)
    routed = ClusterSearcher(cluster, config=config)
    live: dict[str, int] = {}
    shard_local: dict[str, int] = {}
    now = 0.0
    for step in sequence:
        apply(single, live, step, now)
        with small_segments:
            now = apply(cluster, shard_local, step, now)
        assert_ties_follow_internal_ids(cluster)
        plains = rebuild(single, live)
        for query in QUERIES:
            reference = [
                (single.record(internal).chunk_id, bits)
                for internal, bits in reference_ranking(plains, query)
            ]
            merged = routed.search_degraded(query)
            assert not routed.take_scatter_report().partial
            assert [(c.record.chunk_id, c.score.hex()) for c in merged] == reference, (step, query)
            fused = routed.search(query, ctx=RequestContext(explain=True))
            assert not routed.take_scatter_report().partial
            assert [(c.record.chunk_id, c.score.hex()) for c in fused] == [
                (c.record.chunk_id, c.score.hex()) for c in single_search.search(query)
            ], (step, query)
