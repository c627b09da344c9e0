"""Router chaos oracle (ROADMAP item 6b): the scatter-gather router under
kill / revive / epoch flip / rebalance / shard churn against one plain index.

A Hypothesis state machine drives a 3-shard × 2-replica
:class:`ClusterSearcher` with every cache off.  Faults go through the diurnal
load driver's own chaos step (:func:`repro.autoscale.loadgen._apply_chaos`),
so the states reached here are the states a chaos day reaches; hot-shard
rebalances move documents between shards, shards join and leave, the clock
moves, and searches rotate the replica each shard's probe starts from.
After every step, for every question:

* the scatter probes each shard exactly once;
* the shards it reports failed are exactly the shards with no alive replica
  — a dark shard makes every search partial, and nothing else does;
* a search that is not partial returns — chunk ids and ``float.hex()``
  scores of the fused, reranked ranking — what one plain index over the same
  records returns: neither a healed fault nor a new placement may change a
  healthy answer.

Modelled on ``tests/test_search_sequence_oracle.py``; the records never
change here, so the reference ranking is computed once.  The corpus (24
chunks) is larger than every leg's cut (``vector_k`` 15, ``text_n`` 12
here), so each shard cuts its legs, and the chunks of one title share a
title vector: a tie at the cut must fall on the global ordinal even for a
chunk a migration moved in under a late shard-local id.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.autoscale.loadgen import (
    CHAOS_EPOCH_FLIP,
    CHAOS_KILL,
    CHAOS_REVIVE,
    ChaosEvent,
    _apply_chaos,
)
from repro.cluster import ClusterConfig, ClusterSearcher, ShardedSearchIndex
from repro.embeddings.concepts import Concept, ConceptLexicon
from repro.embeddings.model import SyntheticAdaEmbedder
from repro.pipeline.clock import SimulatedClock
from repro.search.hybrid import HybridSearchConfig, HybridSemanticSearch
from repro.search.index import SearchIndex
from repro.search.reranker import SemanticReranker
from repro.search.schema import ChunkRecord

SHARDS = 3
MAX_SHARDS = 5
REPLICAS = 2
#: Both legs cut below the corpus size (``vector_k`` is the paper's 15).
RETRIEVAL = HybridSearchConfig(text_n=12)
WORDS = ("carta", "bonifico", "prelievo", "conto", "estero", "limite", "blocco", "mutuo")
TITLES = ("Blocco carta", "Bonifico estero", "Limiti di prelievo", "Apertura conto")
QUESTIONS = ("blocco della tessera", "giro estero limite", "aprire un conto o un mutuo", "prelievo")
LEXICON = ConceptLexicon(
    [
        Concept("carta", "carta", ("tessera",)),
        Concept("bonifico", "bonifico estero", ("giro",)),
        Concept("conto", "conto corrente ordinario", ("conto",)),
        Concept("mutuo", "mutuo", ("prestito casa",)),
    ]
)
EMBEDDER = SyntheticAdaEmbedder(LEXICON, dim=16, seed=1)


def corpus() -> list[ChunkRecord]:
    """Twelve two-chunk pages over four titles, fresh objects per call."""
    pages = {
        n: (f"{WORDS[n % 8]} {WORDS[(n + 3) % 8]} {WORDS[(n * 5) % 8]}", WORDS[(n + 1) % 8])
        for n in range(12)
    }
    return [
        ChunkRecord(f"d{n}#{c}", f"d{n}", title=TITLES[n % 4], content=content)
        for n, contents in pages.items()
        for c, content in enumerate(contents)
    ]


def ranking(results) -> list[tuple[str, str]]:
    return [(result.record.chunk_id, result.score.hex()) for result in results]


def _reference() -> dict[str, list[tuple[str, str]]]:
    single = SearchIndex(embedder=EMBEDDER, ann_backend="exact")
    for record in corpus():
        single.add_chunk(record)
    search = HybridSemanticSearch(single, reranker=SemanticReranker(LEXICON), config=RETRIEVAL)
    return {question: ranking(search.search(question)) for question in QUESTIONS}


REFERENCE = _reference()
assert all(REFERENCE.values())

#: A shard pick, taken modulo the shard ids the cluster has at that step.
shards = st.integers(0, MAX_SHARDS - 1)


class RouterChaos(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = SimulatedClock()
        index = ShardedSearchIndex(EMBEDDER, num_shards=SHARDS, ann_backend="exact")
        for record in corpus():
            index.add_chunk(record)
        self.router = ClusterSearcher(
            index,
            reranker=SemanticReranker(LEXICON),
            config=RETRIEVAL,
            cluster_config=ClusterConfig(shards=SHARDS, replicas=REPLICAS),
            clock=self.clock,
        )

    def _shard(self, pick: int) -> int:
        shard_ids = self.router.index.shard_ids
        return shard_ids[pick % len(shard_ids)]

    def _chaos(self, kind: str, shard_id: int = 0) -> str:
        return _apply_chaos(
            ChaosEvent(at=self.clock.now(), kind=kind, shard_id=shard_id), self.router
        )

    def _dark(self) -> tuple[int, ...]:
        return tuple(
            shard_id
            for shard_id in self.router.index.shard_ids
            if not any(replica.alive for replica in self.router.replicas(shard_id))
        )

    @rule(pick=shards)
    def kill(self, pick):
        shard_id = self._shard(pick)
        alive = sum(replica.alive for replica in self.router.replicas(shard_id))
        assert self._chaos(CHAOS_KILL, shard_id) == (CHAOS_KILL if alive else "")

    @rule(pick=shards)
    def revive(self, pick):
        shard_id = self._shard(pick)
        self._chaos(CHAOS_REVIVE, shard_id)
        assert shard_id not in self._dark()

    @rule()
    def epoch_flip(self):
        generation = self.router.index.generation
        assert self._chaos(CHAOS_EPOCH_FLIP) == CHAOS_EPOCH_FLIP
        assert self.router.index.generation == generation + 1

    @rule(pick=shards, offset=st.integers(1, MAX_SHARDS - 1), fraction=st.sampled_from((0.25, 1.0)))
    def rebalance(self, pick, offset, fraction):
        source, target = self._shard(pick), self._shard(pick + offset)
        if source != target:
            self.router.index.rebalance_shard(source, target, fraction)

    @rule()
    def add_shard(self):
        if self.router.index.num_shards < MAX_SHARDS:
            self.router.index.add_shard()

    @rule(pick=shards)
    def remove_shard(self, pick):
        if self.router.index.num_shards > 2:
            self.router.index.remove_shard(self._shard(pick))

    @rule(seconds=st.sampled_from((0.5, 30.0, 600.0)))
    def advance_clock(self, seconds):
        self.clock.advance(seconds)

    @rule(question=st.sampled_from(QUESTIONS))
    def search(self, question):
        self.router.search(question)
        assert self.router.take_scatter_report() is not None

    @invariant()
    def no_chunk_is_lost(self):
        assert len(self.router.index) == len(corpus())

    @invariant()
    def every_search_is_whole_or_partial_where_dark(self):
        dark = self._dark()
        for question in QUESTIONS:
            results = self.router.search(question)
            scatter = self.router.take_scatter_report()
            assert len(scatter.probes) == self.router.index.num_shards
            assert scatter.failed_shards == dark, question
            if not scatter.partial:
                assert ranking(results) == REFERENCE[question], question


RouterChaos.TestCase.settings = settings(max_examples=50, stateful_step_count=20, deadline=None)
TestRouterChaos = RouterChaos.TestCase


def test_a_tie_at_a_migrated_legs_cut_falls_on_the_ordinal():
    """The 24-chunk reproduction: after ``rebalance_shard(2, 0, 1.0)`` the
    moved chunks carry late shard-local ids, and at the paper's cuts
    (``vector_k`` 15) the fused ranking still equals one plain index's."""
    single = SearchIndex(embedder=EMBEDDER, ann_backend="exact")
    cluster = ShardedSearchIndex(EMBEDDER, num_shards=SHARDS, ann_backend="exact")
    for record in corpus():
        single.add_chunk(record)
    for record in corpus():
        cluster.add_chunk(record)
    reference = HybridSemanticSearch(single, reranker=SemanticReranker(LEXICON))
    router = ClusterSearcher(cluster, reranker=SemanticReranker(LEXICON))
    assert len(cluster) == 24
    assert cluster.rebalance_shard(2, 0, 1.0) > 0
    for question in QUESTIONS:
        assert ranking(router.search(question)) == ranking(reference.search(question)), question
