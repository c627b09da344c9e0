"""Router chaos oracle (ROADMAP item 6b): the scatter-gather router under
kill / revive / epoch flip against one plain index.

A Hypothesis state machine drives a 3-shard × 2-replica
:class:`ClusterSearcher` with every cache off.  Faults go through the diurnal
load driver's own chaos step (:func:`repro.service.loadtest._apply_chaos`),
so the states reached here are the states a chaos day reaches; the clock
moves, and searches rotate the replica each shard's probe starts from.
After every step, for every question:

* the scatter probes each shard exactly once;
* the shards it reports failed are exactly the shards with no alive replica
  — a dark shard makes every search partial, and nothing else does;
* a search that is not partial returns — chunk ids and ``float.hex()``
  scores of the fused, reranked ranking — what one plain index over the same
  records returns: a healed fault may not change a healthy answer.

Modelled on ``tests/test_search_sequence_oracle.py``; the records never
change here, so the reference ranking is computed once.  The corpus (24
chunks) is larger than every leg's cut (``vector_k`` 15, ``text_n`` 12
here), so each shard cuts its legs, and the chunks of one title share a
title vector: a tie at a shard's cut falls on its internal id, which is the
order the single index holds those chunks in.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.service.loadtest import (
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

shards = st.integers(0, SHARDS - 1)


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

    @rule(shard_id=shards)
    def kill(self, shard_id):
        alive = sum(replica.alive for replica in self.router.replicas(shard_id))
        assert self._chaos(CHAOS_KILL, shard_id) == (CHAOS_KILL if alive else "")

    @rule(shard_id=shards)
    def revive(self, shard_id):
        self._chaos(CHAOS_REVIVE, shard_id)
        assert shard_id not in self._dark()

    @rule()
    def epoch_flip(self):
        generation = self.router.index.generation
        assert self._chaos(CHAOS_EPOCH_FLIP) == CHAOS_EPOCH_FLIP
        assert self.router.index.generation == generation + 1

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

