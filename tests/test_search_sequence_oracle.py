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
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings.model import SyntheticAdaEmbedder
from repro.obs.trace import RequestContext
from repro.search.fulltext import FullTextSearch
from repro.search.index import SearchIndex
from repro.search.inverted import InvertedIndex
from repro.search.schema import ChunkRecord
from repro.search.segment import IndexConfig
from tests.reference_bm25 import ReferenceBm25Scorer

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


def reference_ranking(
    index: SearchIndex, live: dict[str, int], query: str
) -> list[tuple[int, str]]:
    """Top-n ``(internal, score bits)`` from plain indexes over the live records."""
    combined: dict[int, float] = {}
    for field_name in index.schema.searchable_fields:
        plain = InvertedIndex(index.analyzer)
        for internal in live.values():
            plain.add(internal, index.record(internal).value(field_name))
        scores = ReferenceBm25Scorer(plain).score_all(plain.analyze_query(query))
        for internal, score in scores.items():
            combined[internal] = combined.get(internal, 0.0) + 1.0 * score
    ranked = sorted(combined.items(), key=lambda pair: (-pair[1], pair[0]))[:TOP_N]
    return [(internal, score.hex()) for internal, score in ranked]


@settings(max_examples=100, deadline=None)
@given(steps)
def test_served_ranking_equals_rebuilt_reference_after_every_step(sequence):
    index = SearchIndex(
        embedder=SyntheticAdaEmbedder(None, dim=8, seed=1),
        ann_backend="exact",
        index_config=IndexConfig(flush_threshold=3, max_segments=2),
    )
    search = FullTextSearch(index)
    live: dict[str, int] = {}  # chunk_id -> internal id
    now = 0.0
    for step in sequence:
        if step[0] == "add":
            _, doc, chunk, title, content = step
            record = ChunkRecord(f"{doc}#{chunk}", doc, title=title, content=content)
            live[record.chunk_id] = index.add_chunk(record)
        elif step[0] == "delete":
            index.delete_document(step[1])
            live = {c: i for c, i in live.items() if not c.startswith(f"{step[1]}#")}
        elif step[0] == "flush":
            index.flush()
        elif step[0] == "maintain":
            now += 2 * index.config.merge_interval  # every sweep is due
            index.run_maintenance(now)
        else:
            index.vacuum(0.0)
        assert len(index) == len(live)
        for query in QUERIES:
            served = search.search(query, n=TOP_N)
            got = [(live[c.record.chunk_id], c.score.hex()) for c in served]
            assert got == reference_ranking(index, live, query), (step, query)
            explained = search.search(query, n=TOP_N, ctx=RequestContext(explain=True))
            assert [(live[c.record.chunk_id], c.score.hex()) for c in explained] == got
