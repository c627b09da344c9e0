"""Bitwise differential tests of the vectorized BM25 kernels.

The kernel path (:mod:`repro.search.kernels`) is not gated "approximately
equal" to the reference loop (:mod:`tests.reference_bm25`) — the contract is
**byte identity**: every score :meth:`Bm25Scorer.score_arrays` returns and
every per-term contribution :meth:`Bm25Scorer.term_contributions` returns
carries the same float bits as the loop's.  Every comparison here is ``==``,
never ``approx``.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.sharded_index import ShardedSearchIndex
from repro.embeddings.model import SyntheticAdaEmbedder
from repro.obs.trace import RequestContext
from repro.search.bm25 import Bm25Parameters, Bm25Scorer
from repro.search.fulltext import FullTextSearch
from repro.search.index import SearchIndex
from repro.search.inverted import InvertedIndex
from repro.search.schema import ChunkRecord
from repro.search import segment
from repro.search.segment import SegmentedTextStore
from repro.text.analyzer import FULL_ANALYZER
from tests.reference_bm25 import ReferenceBm25Scorer

#: Words that survive the Italian analyzer, skewed so random corpora get a
#: realistic df spread (common terms, mid-frequency terms, rare terms).
VOCAB = (
    ["carta"] * 8
    + ["bonifico"] * 6
    + ["prelievo"] * 5
    + ["conto", "conto", "commissione", "commissione", "estero", "bancomat"]
    + ["limite", "blocco", "sblocco", "mutuo", "rata", "saldo", "deposito"]
    + ["errore", "autenticazione", "password", "token", "filiale"]
)


def random_text(rng: random.Random, min_words: int = 3, max_words: int = 40) -> str:
    return " ".join(rng.choices(VOCAB, k=rng.randint(min_words, max_words)))


def build_index(seed: int, docs: int = 80) -> InvertedIndex:
    rng = random.Random(seed)
    index = InvertedIndex(FULL_ANALYZER)
    for doc_id in range(docs):
        index.add(doc_id, random_text(rng))
    return index


def arrays_as_dict(scorer: Bm25Scorer, terms: list[str]) -> dict[int, float]:
    ids, scores = scorer.score_arrays(terms)
    return {int(i): float(s) for i, s in zip(ids, scores)}


def random_query_terms(rng: random.Random, index: InvertedIndex) -> list[str]:
    words = rng.choices(VOCAB, k=rng.randint(1, 6))
    if rng.random() < 0.3:  # exercise repeated analyzed terms
        words.append(words[0])
    if rng.random() < 0.2:  # and terms with no postings
        words.append("inesistente")
    return index.analyze_query(" ".join(words))


class TestScoreArrays:
    def test_bitwise_matches_loop_scorer(self):
        index = build_index(seed=11)
        scorer = Bm25Scorer(index)
        reference = ReferenceBm25Scorer(index)
        rng = random.Random(7)
        non_trivial = 0
        for _ in range(50):
            terms = random_query_terms(rng, index)
            expected = reference.score_all(terms)
            assert arrays_as_dict(scorer, terms) == expected  # bit-exact, not approx
            non_trivial += bool(expected)
        assert non_trivial > 40

    def test_empty_query_and_unknown_terms(self):
        scorer = Bm25Scorer(build_index(seed=3, docs=10))
        for terms in ([], ["zzz"], ["zzz", "qqq"]):
            ids, scores = scorer.score_arrays(terms)
            assert ids.size == 0 and scores.size == 0

    def test_empty_index(self):
        scorer = Bm25Scorer(InvertedIndex(FULL_ANALYZER))
        ids, scores = scorer.score_arrays(["carta"])
        assert ids.size == 0 and scores.size == 0


def build_search_index(seed: int, docs: int = 80) -> SearchIndex:
    """A multi-segment index whose small vocabulary makes score ties common."""
    rng = random.Random(seed)
    index = SearchIndex(embedder=SyntheticAdaEmbedder(None, dim=8, seed=1), ann_backend="exact")
    with mock.patch.object(segment, "FLUSH_THRESHOLD", 16):
        for i in range(docs):
            title, content = random_text(rng, 1, 3), random_text(rng, 1, 6)
            index.add_chunk(ChunkRecord(f"d{i}#0", f"d{i}", title=title, content=content))
    return index


def ranking(search: FullTextSearch, query: str, n: int, explain: bool = False):
    hits = search.search(query, n=n, ctx=RequestContext(explain=explain)).fetch()
    return [(hit.record.chunk_id, hit.score) for hit in hits]


class TestTopN:
    """The served top-n (kernel scores, select, tie-break) vs the explain loop's."""

    @pytest.mark.parametrize("n", [1, 3, 10, 1000])
    def test_bitwise_matches_loop_ranking(self, n):
        index = build_search_index(seed=29)
        search = FullTextSearch(index)
        rng = random.Random(n)
        truncated = 0
        for _ in range(40):
            query = " ".join(rng.choices(VOCAB, k=rng.randint(1, 6)))
            served = ranking(search, query, n)
            assert served == ranking(search, query, n, explain=True)
            truncated += len(served) == n
        assert truncated > 30 or n == 1000

    def test_nonpositive_n(self):
        search = FullTextSearch(build_search_index(seed=1, docs=5))
        assert search.search("carta", n=0).fetch() == []
        assert search.search("carta", n=-1).fetch() == []

    def test_custom_parameters(self):
        index = build_search_index(seed=17)
        search = FullTextSearch(index, parameters=Bm25Parameters(k1=0.9, b=0.4))
        query = "carta estero commissione"
        served = ranking(search, query, 10)
        assert served == ranking(search, query, 10, explain=True)
        assert served != ranking(FullTextSearch(index), query, 10)


class TestSegmentedViews:
    def _stores(self, seed: int, docs: int, flush_threshold: int):
        """A segmented store and one plain index rebuilt from its live docs."""
        rng = random.Random(seed)
        store = SegmentedTextStore(("content",), FULL_ANALYZER)
        texts = {}
        with mock.patch.object(segment, "FLUSH_THRESHOLD", flush_threshold):
            for doc_id in range(docs):
                texts[doc_id] = random_text(rng)
                store.add(doc_id, {"content": texts[doc_id]})
        dead = rng.sample(range(docs), docs // 4)
        for doc_id in dead:
            assert store.remove(doc_id, {"content": texts[doc_id]})
        monolith = InvertedIndex(FULL_ANALYZER)
        for doc_id, text in texts.items():
            if doc_id not in dead:
                monolith.add(doc_id, text)
        return store.view("content"), monolith

    def test_multi_segment_scoring_matches_live_monolith(self):
        # Several sealed segments + a partial buffer + tombstones: scores
        # must still be bit-identical to a monolith holding the live docs.
        view, monolith = self._stores(seed=41, docs=90, flush_threshold=16)
        kernel_scorer = Bm25Scorer(view)
        loop_scorer = ReferenceBm25Scorer(monolith)
        assert len(view.kernel_views()) > 2
        rng = random.Random(13)
        for _ in range(40):
            terms = random_query_terms(rng, monolith)
            expected, per_term = loop_scorer.score_all_explained(terms)
            assert arrays_as_dict(kernel_scorer, terms) == expected
            # Asked about every id ever added: tombstoned ones get no entry.
            assert kernel_scorer.term_contributions(terms, np.arange(90)) == per_term

    def test_view_statistics_are_exact(self):
        view, monolith = self._stores(seed=2, docs=50, flush_threshold=8)
        assert len(view) == len(monolith)
        assert view.total_length == monolith.total_length
        assert view.average_length == monolith.average_length  # same int operands
        for term in ("cart", "bonif", "prelev", "inesistente"):
            assert view.document_frequency(term) == monolith.document_frequency(term)


class TestKernelPostings:
    def test_build_roundtrips_through_to_dicts(self):
        loop = build_index(seed=23, docs=20)
        kernel = loop.to_kernel()
        lengths, postings = kernel.to_dicts()
        assert lengths == {i: loop.document_length(i) for i in loop.doc_ids()}
        for term in kernel.terms():
            assert postings[term] == loop.postings(term)

    def test_live_mask_filters_postings(self):
        loop = build_index(seed=23, docs=12)
        kernel = loop.to_kernel()
        live = np.ones(len(kernel), dtype=bool)
        live[0] = live[5] = False
        for term in kernel.terms():
            masked = kernel.postings_dict(term, live)
            assert 0 not in masked and 5 not in masked
            full = kernel.postings_dict(term)
            assert masked == {d: tf for d, tf in full.items() if d not in (0, 5)}


# -- served explain vs the reference loop ----------------------------------

WORDS = ("carta", "bonifico", "prelievo", "conto", "estero", "limite", "blocco", "mutuo")
UNSEEN = ("inesistente", "zzz")

_texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=10).map(" ".join)
_docs = st.integers(0, 9).map("d{}".format)
_adds = st.tuples(st.just("add"), _docs, _texts, _texts)  # re-adding a doc replaces it
_writes = st.lists(
    st.one_of(_adds, _adds, _adds, st.tuples(st.just("delete"), _docs)),
    min_size=10,  # at flush_threshold=2: several sealed segments, often a partial buffer
    max_size=30,
)
#: A few seen/unseen words plus one word repeated 1–4 times, in any order.
_queries = (
    st.tuples(
        st.lists(st.sampled_from(WORDS + UNSEEN), max_size=4),
        st.sampled_from(WORDS),
        st.integers(1, 4),
    )
    .flatmap(lambda parts: st.permutations(parts[0] + [parts[1]] * parts[2]))
    .map(" ".join)
)


def reference_explain(index, live: dict[str, ChunkRecord], query: str):
    """``chunk_id -> (score bits, component items)`` from the reference loop.

    One plain :class:`InvertedIndex` per field over *all* live records —
    the collection a single index holds and a cluster's global statistics
    describe — scored doc-at-a-time; components in the served key order
    (``bm25_<field>`` then that field's ``bm25_<field>:<term>`` entries).
    """
    chunk_ids = list(live)
    combined: dict[int, float] = {}
    components: dict[int, dict[str, float]] = {}
    for field_name in index.schema.searchable_fields:
        plain = InvertedIndex(FULL_ANALYZER)
        for number, chunk_id in enumerate(chunk_ids):
            plain.add(number, live[chunk_id].value(field_name))
        scores, per_term = ReferenceBm25Scorer(plain).score_all_explained(
            plain.analyze_query(query)
        )
        for number, score in scores.items():
            combined[number] = combined.get(number, 0.0) + 1.0 * score
            breakdown = components.setdefault(number, {})
            breakdown[f"bm25_{field_name}"] = score
            for term, contribution in per_term[number].items():
                breakdown[f"bm25_{field_name}:{term}"] = contribution
    return {
        chunk_ids[number]: (score.hex(), [(k, v.hex()) for k, v in components[number].items()])
        for number, score in combined.items()
    }


def served_explain(search_indexes, query: str):
    """The same mapping from explain requests against each index or shard view."""
    served = {}
    for search_index in search_indexes:
        hits = FullTextSearch(search_index).search(
            query, n=1000, ctx=RequestContext(explain=True)
        ).fetch()
        for hit in hits:
            assert hit.record.chunk_id not in served
            served[hit.record.chunk_id] = (
                hit.score.hex(),
                [(key, value.hex()) for key, value in hit.components.items()],
            )
    return served


@settings(max_examples=60, deadline=None)
@given(_writes, st.lists(_queries, min_size=1, max_size=3))
def test_served_per_term_contributions_equal_the_reference_loop(writes, queries):
    """Scores, per-term bits and component key order, single index and 3 shards."""
    options = dict(embedder=SyntheticAdaEmbedder(None, dim=8, seed=1), ann_backend="exact")
    single = SearchIndex(**options)
    cluster = ShardedSearchIndex(num_shards=3, **options)
    live: dict[str, ChunkRecord] = {}
    with mock.patch.object(segment, "FLUSH_THRESHOLD", 2):
        for write in writes:
            if write[0] == "add":
                _, doc, title, content = write
                record = ChunkRecord(f"{doc}#0", doc, title=title, content=content)
                live[record.chunk_id] = record
                single.add_chunk(record)
                cluster.add_chunk(record)
            else:
                live.pop(f"{write[1]}#0", None)
                single.delete_document(write[1])
                cluster.delete_document(write[1])
    shard_views = [cluster.search_view(shard_id) for shard_id in cluster.shard_ids]
    for query in queries:
        expected = reference_explain(single, live, query)
        assert served_explain([single], query) == expected
        assert served_explain(shard_views, query) == expected
