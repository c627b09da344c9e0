"""Retrieval-cache oracle (ROADMAP item 8a): the per-shard retrieval tier
under writes, against a cache-off twin.

A Hypothesis state machine drives two 3-shard deployments over the same
corpus: one with the cache on (all four tiers), one with it off.  Both take
the same steps — questions through the engine, edits, new and deleted
documents, ``rebalance_shard``, and clock steps past the answer TTL, which
are the only steps after which a repeated question gets past the answer
tier and reaches the retrieval tier.  After every step, for every question:

* the cached router's fused ranking equals the twin's, chunk ids and
  ``float.hex()`` scores;
* no retrieval-cache hit survives a write: every hit was stored after the
  last write to the cluster (the text legs rank on cluster-wide BM25
  statistics, so a write to any shard is a write to every shard's legs).
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.api import AskRequest, CacheConfig, create_engine
from repro.cache import answer_cache
from repro.cluster.config import ClusterConfig
from repro.core.config import UniAskConfig
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon
from repro.search.schema import ChunkRecord

SHARDS = 3
KB = KbGenerator(KbGeneratorConfig(num_topics=6, error_families=1, seed=29)).generate()
LEXICON = build_banking_lexicon()
QUESTIONS = (
    "come sbloccare la carta di credito",
    "bonifico estero commissioni",
    "limiti prelievo bancomat",
)
WORDS = ("carta", "bonifico", "prelievo", "conto", "estero", "limite", "blocco", "mutuo")


def _deployment(cache: bool):
    config = UniAskConfig(
        cache=CacheConfig(enabled=cache), cluster=ClusterConfig(shards=SHARDS)
    )
    return create_engine(KB.store(), LEXICON, config=config, seed=29)


def ranking(results) -> list[tuple[str, str]]:
    return [(result.record.chunk_id, result.score.hex()) for result in results]


class RetrievalCacheOracle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.cached, self.twin = _deployment(cache=True), _deployment(cache=False)
        index = self.cached.index
        #: doc id -> its live chunk records, as the walk left them.
        self.pages: dict[str, list[ChunkRecord]] = {}
        for shard_id in index.shard_ids:
            shard = index.shard_index(shard_id)
            for internal in sorted(shard.live_internals(), key=lambda i: shard.record(i).chunk_id):
                record = shard.record(internal)
                self.pages.setdefault(record.doc_id, []).append(record)
        self.writes = 0
        self.hits = 0
        self.new_pages = 0
        #: (shard, key) -> the write count when the leg was stored.
        self.stored: dict[tuple, int] = {}
        cache = self.cached.cluster.retrieval_cache
        get, put = cache.get, cache.put

        def checking_get(shard_id, key, generation):
            legs = get(shard_id, key, generation)
            if legs is not None:
                assert self.stored[(shard_id, key)] == self.writes, "a hit survived a write"
                self.hits += 1
            return legs

        def recording_put(shard_id, key, generation, text, vector):
            self.stored[(shard_id, key)] = self.writes
            put(shard_id, key, generation, text, vector)

        cache.get, cache.put = checking_get, recording_put

    def _both(self):
        return self.cached, self.twin

    # -- reads ----------------------------------------------------------------

    @rule(question=st.sampled_from(QUESTIONS))
    def ask(self, question):
        for system in self._both():
            system.engine.answer(AskRequest(question))

    @rule()
    def past_the_answer_ttl(self):
        for system in self._both():
            system.clock.advance(answer_cache.ANSWER_TTL_SECONDS)

    # -- writes ---------------------------------------------------------------

    def _replace(self, doc_id: str, records: list[ChunkRecord]) -> None:
        for system in self._both():
            system.index.replace_document(doc_id, [replace(record) for record in records])
        self.pages[doc_id] = records
        self.writes += 1

    @precondition(lambda self: self.pages)
    @rule(pick=st.integers(0, 10**6), word=st.sampled_from(WORDS))
    def edit(self, pick, word):
        doc_id = sorted(self.pages)[pick % len(self.pages)]
        records = self.pages[doc_id]
        edited = replace(records[0], content=f"{records[0].content} {word} {self.writes}")
        self._replace(doc_id, [edited, *records[1:]])

    @rule(title=st.sampled_from(QUESTIONS), words=st.lists(st.sampled_from(WORDS), min_size=1, max_size=4))
    def add(self, title, words):
        self.new_pages += 1
        doc_id = f"new-{self.new_pages}"
        record = ChunkRecord(f"{doc_id}#0", doc_id, title=title, content=" ".join(words))
        self._replace(doc_id, [record])

    @precondition(lambda self: len(self.pages) > 1)
    @rule(pick=st.integers(0, 10**6))
    def delete(self, pick):
        doc_id = sorted(self.pages)[pick % len(self.pages)]
        for system in self._both():
            assert system.index.delete_document(doc_id) == len(self.pages[doc_id])
        del self.pages[doc_id]
        self.writes += 1

    @rule(source=st.integers(0, SHARDS - 1), offset=st.integers(1, SHARDS - 1),
          fraction=st.sampled_from((0.25, 1.0)))
    def rebalance(self, source, offset, fraction):
        target = (source + offset) % SHARDS
        moved = {system.index.rebalance_shard(source, target, fraction) for system in self._both()}
        assert len(moved) == 1
        self.writes += bool(moved.pop())

    # -- invariants -----------------------------------------------------------

    @invariant()
    def the_cached_router_ranks_like_the_twin(self):
        for question in QUESTIONS:
            got = ranking(self.cached.searcher.search(question))
            assert got == ranking(self.twin.searcher.search(question)), question
            assert not self.cached.searcher.take_scatter_report().partial


RetrievalCacheOracle.TestCase.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None
)
TestRetrievalCacheOracle = RetrievalCacheOracle.TestCase


def test_the_retrieval_tier_serves_a_question_past_the_answer_ttl():
    """Behind a live answer entry the tier is never reached; once the
    entry expires the repeated question is served from every shard's legs."""
    system = _deployment(cache=True)
    tier = system.cluster.retrieval_cache
    first = system.engine.answer(AskRequest(QUESTIONS[0]))
    assert system.engine.answer(AskRequest(QUESTIONS[0])).answer.cache_hit == "exact"
    assert tier.stats.hits == 0
    system.clock.advance(answer_cache.ANSWER_TTL_SECONDS)
    again = system.engine.answer(AskRequest(QUESTIONS[0]))
    assert again.answer.cache_hit == ""
    assert tier.stats.hits == SHARDS
    assert again.answer.answer_text == first.answer.answer_text
