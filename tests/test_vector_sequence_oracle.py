"""Sequence oracle for the vector legs (ROADMAP item 6a, the upsert slice).

A random walk of page publications, edits (content only, title only, both),
untouched re-publications, deletes and maintenance — ``flush``,
``run_maintenance``, ``vacuum(0.0)``, ``save_index`` → ``load_index`` —
drives an index through every state :meth:`SearchIndex.replace_document`
can leave its vector side in: relabelled nodes, removed nodes, rebuilt
graphs.  The corpus repeats titles, so equal distances are the rule on the
title field and the tie order is checked with everything else.

On the exact backend the served vector rankings must equal, after every
step — chunk ids and ``float.hex()`` distances — a fresh index that was
handed the live records in internal-id order and knows nothing of edits, and
the same walk through a three-shard cluster, merged on ``(distance,
ordinal)``, must equal the single index.  The cluster's walk also adds,
removes and rebalances shards, and the corpus (24 chunks and up) is larger
than every leg's cut, so a tie at a shard's cut — the chunks of one title
share a title vector — must fall where the single index puts it even for a
chunk a migration moved in under a late shard-local id.

The **fused hybrid ranking** takes the same walk under an embedder with a
concept lexicon, so every chunk is read when it is written
(``repro.search.reading``): after every step ``searcher.search(q)`` — BM25
legs, vector legs, RRF and the reranker scoring from the readings the walk
left on the records — equals, chunk ids and ``float.hex()`` scores, a system
rebuilt from unread copies of the live records, on the single index and
through the three-shard cluster's router.

On HNSW every result is live, carries exactly
``cosine_distance(query, stored vector)``, ties come in ascending internal
id, recall@15 against brute force over the stored vectors stays ≥ 0.9 over
the walk, and the node census holds exactly: a graph has one node per live
chunk plus one per vector that changed or was deleted since the last
rebuild — an edit that leaves a field's text alone adds none.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.distance import cosine_distance
from repro.cluster import ClusterSearcher, ShardedSearchIndex
from repro.embeddings.concepts import Concept, ConceptLexicon
from repro.embeddings.model import SyntheticAdaEmbedder
from repro.search import segment
from repro.search.hybrid import HybridSearchConfig, HybridSemanticSearch
from repro.search.index import SearchIndex
from repro.search.persistence import load_index, save_index
from repro.search.reranker import SemanticReranker
from repro.search.schema import ChunkRecord

WORDS = ("carta", "bonifico", "prelievo", "conto", "estero", "limite", "blocco", "mutuo")
TITLES = ("Blocco carta", "Bonifico estero", "Limiti di prelievo", "Apertura conto")
PROBES = ("Blocco carta", "bonifico conto estero", "limite mutuo", "Apertura conto carta")
K = 15
FIELDS = ("title", "content")
#: Pages seeded before the walk: two chunks each, 24 in all.
SEED_PAGES = 12
MAX_SHARDS = 5
SEGMENT_POLICY = dict(FLUSH_THRESHOLD=3, MAX_SEGMENTS=2)
#: Both legs cut below the corpus size (``vector_k`` is the paper's 15).
RETRIEVAL = HybridSearchConfig(text_n=12)

docs = st.integers(0, SEED_PAGES + 5).map("d{}".format)
shard_picks = st.integers(0, MAX_SHARDS - 1)
titles = st.sampled_from(TITLES)
contents = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), docs, titles, st.lists(contents, min_size=1, max_size=3)),
        st.tuples(st.just("edit_content"), docs, contents),
        st.tuples(st.just("edit_content"), docs, contents),  # the dominant write
        st.tuples(st.just("edit_title"), docs, titles),
        st.tuples(st.just("edit_both"), docs, titles, contents),
        st.tuples(st.just("republish"), docs),
        st.tuples(st.just("delete"), docs),
        st.tuples(st.sampled_from(("flush", "maintain", "vacuum", "reload", "add_shard"))),
        st.tuples(st.just("remove_shard"), shard_picks),
        st.tuples(st.just("rebalance"), shard_picks, st.sampled_from((0.25, 1.0))),
    ),
    min_size=8,
    max_size=30,
)


@pytest.fixture(autouse=True, scope="module")
def small_segments():
    """Small segments, so seals and merges happen within a walk."""
    with mock.patch.multiple(segment, **SEGMENT_POLICY):
        yield


def embedder() -> SyntheticAdaEmbedder:
    return SyntheticAdaEmbedder(None, dim=16, seed=1)


def records_of(doc: str, title: str, page_contents: list[str]) -> list[ChunkRecord]:
    return [
        ChunkRecord(f"{doc}#{n}", doc, title=title, content=content)
        for n, content in enumerate(page_contents)
    ]


class Walk:
    """The pages as the walk left them, and what that must have cost.

    ``dead[field]`` counts the vectors of *field* that changed or were
    deleted since the last rebuild — the nodes an HNSW graph still carries
    for routing; ``writes`` is what ``replace_document`` must report.
    """

    def __init__(self) -> None:
        self.pages: dict[str, tuple[str, list[str]]] = {}
        self.dead = dict.fromkeys(FIELDS, 0)
        self.now = 0.0

    def live_chunks(self) -> int:
        return sum(len(page_contents) for _, page_contents in self.pages.values())

    def upsert(self, index, doc: str, title: str, page_contents: list[str]) -> None:
        old_title, old_contents = self.pages.get(doc, (title, []))
        writes = 0
        for n, content in enumerate(page_contents):
            known = n < len(old_contents)
            self.dead["title"] += known and title != old_title
            self.dead["content"] += known and content != old_contents[n]
            writes += not known or title != old_title or content != old_contents[n]
        for field in FIELDS:
            self.dead[field] += max(0, len(old_contents) - len(page_contents))
        self.pages[doc] = (title, list(page_contents))
        written = index.replace_document(doc, records_of(doc, title, page_contents))
        assert len(written) == writes

    def apply(self, index, step: tuple):
        """One step on a single or sharded *index*; returns the index to go
        on with (``reload`` replaces a single index by its loaded copy)."""
        kind = step[0]
        if kind == "publish":
            self.upsert(index, *step[1:])
        elif kind in ("edit_content", "edit_title", "edit_both", "republish"):
            if step[1] in self.pages:
                title, page_contents = self.pages[step[1]]
                if kind in ("edit_title", "edit_both"):
                    title = step[2]
                if kind in ("edit_content", "edit_both"):
                    page_contents = [step[-1]] + page_contents[1:]  # later chunks untouched
                self.upsert(index, step[1], title, page_contents)
        elif kind == "delete":
            _, page_contents = self.pages.pop(step[1], ("", []))
            for field in FIELDS:
                self.dead[field] += len(page_contents)
            assert index.delete_document(step[1]) == len(page_contents)
        elif kind == "flush":
            index.flush()
        elif kind == "maintain":
            self.now += 2 * segment.MERGE_INTERVAL  # every sweep is due
            index.run_maintenance(self.now)
        elif kind == "vacuum":
            tombstoned = has_tombstones(index)
            assert index.vacuum(0.0) == tombstoned
            self.dead = dict.fromkeys(FIELDS, 0)
        elif kind == "reload" and isinstance(index, SearchIndex):
            with tempfile.TemporaryDirectory() as directory:
                save_index(index, directory)
                index = load_index(directory, index.embedder, ann_backend=index._ann_backend)
            self.dead = dict.fromkeys(FIELDS, 0)
        elif isinstance(index, ShardedSearchIndex):
            migrate(index, step)
        assert len(index) == self.live_chunks()
        return index


def migrate(cluster: ShardedSearchIndex, step: tuple) -> None:
    """A topology step on the cluster; the single index has no topology."""
    shard_ids = cluster.shard_ids
    if step[0] == "add_shard" and len(shard_ids) < MAX_SHARDS:
        cluster.add_shard()
    elif step[0] == "remove_shard" and len(shard_ids) > 2:
        cluster.remove_shard(shard_ids[step[1] % len(shard_ids)])
    elif step[0] == "rebalance":
        source = shard_ids[step[1] % len(shard_ids)]
        target = shard_ids[(step[1] + 1) % len(shard_ids)]
        cluster.rebalance_shard(source, target, step[2])


def has_tombstones(index) -> bool:
    if isinstance(index, SearchIndex):
        return index.tombstone_ratio > 0
    return any(index.shard_index(s).tombstone_ratio > 0 for s in index.shard_ids)


def served(index: SearchIndex, field: str, probe, k: int) -> list[tuple[str, str]]:
    return [
        (index.record(internal).chunk_id, distance.hex())
        for internal, distance in index.vector_search(field, probe, k)
    ]


def seed_corpus(walk: Walk, index):
    """Twelve pages over four titles before the walk starts, so edits find
    pages to edit, every title is repeated and every leg is cut."""
    for n in range(SEED_PAGES):
        words = [WORDS[n % 8], WORDS[(n + 3) % 8], WORDS[(n * 5) % 8]]
        walk.upsert(index, f"d{n}", TITLES[n % 4], [" ".join(words[: 2 + n % 2]), words[0]])


@settings(max_examples=40, deadline=None)
@given(steps)
def test_exact_vector_legs_equal_a_fresh_build_after_every_step(sequence):
    model = embedder()
    index = SearchIndex(embedder=model, ann_backend="exact")
    cluster = ShardedSearchIndex(model, num_shards=3, ann_backend="exact")
    walk, cluster_walk = Walk(), Walk()
    seed_corpus(walk, index)
    seed_corpus(cluster_walk, cluster)
    probes = [model.embed(text) for text in PROBES]
    for step in sequence:
        index = walk.apply(index, step)
        cluster = cluster_walk.apply(cluster, step)
        fresh = SearchIndex(embedder=model, ann_backend="exact")
        for internal in sorted(index.live_internals()):
            fresh.add_chunk(index.record(internal))
        for field in FIELDS:
            for probe in probes:
                for k in (K, 4):
                    got = served(index, field, probe, k)
                    assert got == served(fresh, field, probe, k), (step, field, k)
                    legs = [
                        (distance, cluster.ordinal(chunk_id), chunk_id)
                        for shard in map(cluster.shard_index, cluster.shard_ids)
                        for chunk_id, distance in served(shard, field, probe, k)
                    ]
                    legs.sort(key=lambda leg: (float.fromhex(leg[0]), leg[1]))
                    assert [(c, d) for d, _, c in legs[:k]] == got, (step, field, k)


QUESTIONS = ("blocco della tessera", "giro estero limite", "aprire un conto o un mutuo", "prelievo")


def ranking(results) -> list[tuple[str, str]]:
    return [(result.record.chunk_id, result.score.hex()) for result in results]


@settings(max_examples=20, deadline=None)
@given(steps)
def test_hybrid_ranking_equals_a_rebuilt_system_after_every_step(sequence):
    lexicon = ConceptLexicon(
        [
            Concept("carta", "carta", ("tessera",)),
            Concept("bonifico", "bonifico estero", ("giro",)),
            Concept("conto", "conto corrente ordinario", ("conto",)),
            Concept("mutuo", "mutuo", ("prestito casa",)),
        ]
    )
    model = SyntheticAdaEmbedder(lexicon, dim=16, seed=1)
    reranker = SemanticReranker(lexicon)
    index = SearchIndex(embedder=model, ann_backend="exact")
    cluster = ShardedSearchIndex(model, num_shards=3, ann_backend="exact")
    routed = ClusterSearcher(cluster, reranker=reranker, config=RETRIEVAL)
    walk, cluster_walk = Walk(), Walk()
    seed_corpus(walk, index)
    seed_corpus(cluster_walk, cluster)
    for step in sequence:
        index = walk.apply(index, step)
        cluster = cluster_walk.apply(cluster, step)
        # Written chunks carry the reading made at the write; a vacuum or a
        # reload must not lose it, an edit must not keep the old one.
        assert all(index.record(i)._reading is not None for i in index.live_internals())
        fresh = SearchIndex(embedder=model, ann_backend="exact")
        for internal in sorted(index.live_internals()):
            fresh.add_chunk(replace(index.record(internal)))  # an unread copy
        rebuilt = HybridSemanticSearch(fresh, reranker=SemanticReranker(lexicon), config=RETRIEVAL)
        # A reload replaced the index.
        served = HybridSemanticSearch(index, reranker=reranker, config=RETRIEVAL)
        for question in QUESTIONS:
            expected = ranking(rebuilt.search(question))
            assert expected
            assert ranking(served.search(question)) == expected, (step, question)
            assert ranking(routed.search(question)) == expected, (step, question)
            assert not routed.take_scatter_report().partial


@settings(max_examples=40, deadline=None)
@given(steps)
def test_hnsw_vector_legs_are_live_exact_tied_by_id_and_counted(sequence):
    model = embedder()
    index = SearchIndex(embedder=model, ann_backend="hnsw")
    walk = Walk()
    seed_corpus(walk, index)
    probes = [model.embed(text) for text in PROBES]
    found = wanted = 0
    for step in sequence:
        index = walk.apply(index, step)
        live = index.live_internals()
        for field in FIELDS:
            # One node per live chunk plus one per vector changed or deleted
            # since the last rebuild; an untouched field's text adds none.
            assert len(index._vectors[field]) == len(live) + walk.dead[field], (step, field)
            for probe in probes:
                hits = index.vector_search(field, probe, K)
                brute = sorted(
                    (cosine_distance(probe, index.chunk_vector(i, field)), i) for i in live
                )
                assert all(index.is_live(internal) for internal, _ in hits)
                assert [(d.hex(), i) for i, d in hits] == [
                    (cosine_distance(probe, index.chunk_vector(i, field)).hex(), i)
                    for i, _ in hits
                ]
                assert hits == sorted(hits, key=lambda hit: (hit[1], hit[0])), (step, field)
                assert len(hits) == min(K, len(live))
                found += len({i for i, _ in hits} & {i for _, i in brute[:K]})
                wanted += min(K, len(live))
    assert found >= 0.9 * wanted
