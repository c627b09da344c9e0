"""Unit tests for full-text / vector executors, reranker, and hybrid search."""

from __future__ import annotations

import pytest

from repro.embeddings.concepts import Concept, ConceptLexicon
from repro.embeddings.model import SyntheticAdaEmbedder
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RequestContext
from repro.search.fulltext import FullTextSearch, ScoringProfile
from repro.search.hybrid import HybridSearchConfig, HybridSemanticSearch
from repro.search.index import SearchIndex
from repro.search.reranker import SemanticReranker
from repro.search.results import RetrievedChunk, dedupe_by_document
from repro.search.schema import ChunkRecord
from repro.search.vector import VectorSearch

#: Score provenance (components) is built for explain requests only.
EXPLAIN = RequestContext(explain=True)


@pytest.fixture(scope="module")
def toy_lexicon() -> ConceptLexicon:
    return ConceptLexicon(
        [
            Concept("bonifico", "bonifico", ("trasferimento fondi",)),
            Concept("carta", "carta di credito", ("carta revolving",)),
            Concept("token", "token di sicurezza", ("chiavetta OTP",)),
            Concept("act_attivare", "attivare", ("abilitare",)),
            Concept("act_bloccare", "bloccare", ("sospendere",)),
        ]
    )


@pytest.fixture(scope="module")
def toy_index(toy_lexicon) -> SearchIndex:
    index = SearchIndex(embedder=SyntheticAdaEmbedder(toy_lexicon, dim=64, seed=4), seed=4)
    rows = [
        ("doc-bonifico", "Attivare bonifico", "Per attivare un bonifico accedere al portale dei pagamenti."),
        ("doc-carta", "Bloccare carta di credito", "Per bloccare la carta di credito chiamare il numero verde."),
        ("doc-token", "Attivare token di sicurezza", "Il token di sicurezza si attiva dal profilo personale."),
        ("doc-carta-att", "Attivare carta di credito", "Per attivare la carta di credito usare GestCarte."),
    ]
    for doc_id, title, content in rows:
        index.add_chunk(
            ChunkRecord(chunk_id=f"{doc_id}#0", doc_id=doc_id, title=title, content=content)
        )
    return index


class TestFullTextSearch:
    def test_exact_terms_rank_target_first(self, toy_index):
        results = FullTextSearch(toy_index).search("bloccare carta di credito").fetch()
        assert results[0].doc_id == "doc-carta"

    def test_synonym_query_misses_lexically(self, toy_index):
        """Text search alone cannot bridge the synonym gap (Table 2's point)."""
        results = FullTextSearch(toy_index).search("sospendere la carta revolving").fetch()
        assert not results or results[0].doc_id != "doc-carta"

    def test_title_boost_profile(self, toy_index):
        boosted = FullTextSearch(toy_index, profile=ScoringProfile.title_boost(50.0))
        results = boosted.search("attivare carta di credito", ctx=EXPLAIN).fetch()
        assert results[0].doc_id == "doc-carta-att"
        assert results[0].components["bm25_title"] > 0

    def test_n_truncation(self, toy_index):
        assert len(FullTextSearch(toy_index).search("attivare", n=1)) == 1

    def test_empty_query(self, toy_index):
        assert FullTextSearch(toy_index).search("il lo la").fetch() == []

    def test_components_contain_field_scores(self, toy_index):
        results = FullTextSearch(toy_index).search("bonifico", ctx=EXPLAIN).fetch()
        assert any(key.startswith("bm25_") for key in results[0].components)


class TestVectorSearch:
    def test_returns_ranking_per_vector_field(self, toy_index):
        rankings = VectorSearch(toy_index).search("bonifico", k=2)
        assert set(rankings) == {"title", "content"}
        assert all(len(ranking) <= 2 for ranking in rankings.values())

    def test_synonym_query_finds_target(self, toy_index):
        """Vector search bridges the synonym gap text search cannot."""
        rankings = VectorSearch(toy_index).search("sospendere la carta revolving", k=2)
        top_docs = {ranking.fetch()[0].doc_id for ranking in rankings.values() if len(ranking)}
        assert "doc-carta" in top_docs

    def test_scores_descending(self, toy_index):
        for ranking in VectorSearch(toy_index).search("attivare token", k=4).values():
            scores = ranking.scores.tolist()
            assert scores == sorted(scores, reverse=True)


class TestSemanticReranker:
    def test_relevant_chunk_scores_higher(self, toy_index, toy_lexicon):
        reranker = SemanticReranker(toy_lexicon, noise=0.0)
        results = FullTextSearch(toy_index).search("attivare bonifico").fetch()
        relevant = next(r for r in results if r.doc_id == "doc-bonifico")
        scores = {r.doc_id: reranker.score("attivare bonifico", r) for r in results}
        assert scores["doc-bonifico"] == max(scores.values())
        assert 0.0 <= reranker.score("attivare bonifico", relevant) <= 4.0

    def test_rerank_adds_component_and_resorts(self, toy_lexicon, toy_index):
        reranker = SemanticReranker(toy_lexicon, noise=0.0)
        results = FullTextSearch(toy_index).search("attivare carta di credito")
        reranked = reranker.rerank("attivare carta di credito", results, ctx=EXPLAIN).fetch()
        assert all("rerank_adjust" in r.components for r in reranked)
        scores = [r.score for r in reranked]
        assert scores == sorted(scores, reverse=True)

    def test_noise_is_deterministic(self, toy_lexicon, toy_index):
        reranker = SemanticReranker(toy_lexicon, noise=0.5)
        results = FullTextSearch(toy_index).search("bonifico").fetch()
        a = reranker.score("bonifico", results[0])
        b = reranker.score("bonifico", results[0])
        assert a == b

    def test_invalid_parameters(self, toy_lexicon):
        with pytest.raises(ValueError):
            SemanticReranker(toy_lexicon, max_score=0.0)
        with pytest.raises(ValueError):
            SemanticReranker(toy_lexicon, title_weight=0, content_weight=0, lexical_weight=0)


class TestHybridSemanticSearch:
    def test_hybrid_beats_components_on_paraphrase(self, toy_index, toy_lexicon):
        reranker = SemanticReranker(toy_lexicon, noise=0.0)
        hybrid = HybridSemanticSearch(toy_index, reranker=reranker)
        results = hybrid.search("sospendere la carta revolving del cliente")
        assert results[0].doc_id == "doc-carta"

    def test_mode_text_only(self, toy_index, toy_lexicon):
        config = HybridSearchConfig(mode="text", use_reranker=False)
        hybrid = HybridSemanticSearch(toy_index, config=config)
        results = hybrid.search("bloccare carta di credito", ctx=EXPLAIN)
        assert results and all("rrf_text" in r.components for r in results)

    def test_mode_vector_only(self, toy_index, toy_lexicon):
        config = HybridSearchConfig(mode="vector", use_reranker=False)
        hybrid = HybridSemanticSearch(toy_index, config=config)
        results = hybrid.search("bloccare carta di credito", ctx=EXPLAIN)
        assert results and all(
            any(key.startswith("rrf_vector") for key in r.components) for r in results
        )

    @pytest.mark.parametrize("mode", ["text", "vector"])
    def test_fused_vector_search_honours_the_mode(self, toy_index, toy_lexicon, mode):
        """MQ2's entry point runs only the legs the mode asks for, and books
        the search under that mode: with the question's own embedding it is
        the mode's plain search."""
        registry = MetricsRegistry()
        config = HybridSearchConfig(mode=mode, use_reranker=False)
        hybrid = HybridSemanticSearch(toy_index, config=config, registry=registry)
        question = "bloccare carta di credito"
        vector = toy_index.embedder.embed(question)
        fused = hybrid.search_fused_vector(question, vector, ctx=EXPLAIN)
        plain = hybrid.search(question, ctx=EXPLAIN)
        assert fused and [(r.record.chunk_id, r.score, r.components) for r in fused] == [
            (r.record.chunk_id, r.score, r.components) for r in plain
        ]
        legs = {key.split(":")[0] for r in fused for key in r.components if key.startswith("rrf_")}
        assert legs == ({"rrf_text"} if mode == "text" else {"rrf_vector_title", "rrf_vector_content"})
        searches = registry.counter("uniask_searches_total", "", ("mode",))
        assert {labels: child.value for labels, child in searches.children.items() if labels} == {
            (mode,): 2.0
        }

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            HybridSearchConfig(mode="both")

    def test_reranker_required_by_default(self, toy_index):
        with pytest.raises(ValueError):
            HybridSemanticSearch(toy_index)

    def test_final_n_respected(self, toy_index, toy_lexicon):
        config = HybridSearchConfig(final_n=2)
        hybrid = HybridSemanticSearch(toy_index, reranker=SemanticReranker(toy_lexicon), config=config)
        assert len(hybrid.search("attivare")) <= 2

    def test_search_multi_fuses(self, toy_index, toy_lexicon):
        hybrid = HybridSemanticSearch(toy_index, reranker=SemanticReranker(toy_lexicon, noise=0.0))
        results = hybrid.search_multi(["bloccare carta", "sospendere carta revolving"])
        assert results[0].doc_id == "doc-carta"

    def test_search_multi_empty(self, toy_index, toy_lexicon):
        hybrid = HybridSemanticSearch(toy_index, reranker=SemanticReranker(toy_lexicon))
        assert hybrid.search_multi([]) == []


class TestDedupeByDocument:
    def test_keeps_best_chunk_per_doc(self):
        record_a0 = ChunkRecord(chunk_id="a#0", doc_id="a", title="t", content="c")
        record_a1 = ChunkRecord(chunk_id="a#1", doc_id="a", title="t", content="c")
        record_b = ChunkRecord(chunk_id="b#0", doc_id="b", title="t", content="c")
        results = [
            RetrievedChunk(record=record_a0, score=3.0),
            RetrievedChunk(record=record_b, score=2.0),
            RetrievedChunk(record=record_a1, score=1.0),
        ]
        deduped = dedupe_by_document(results)
        assert [r.record.chunk_id for r in deduped] == ["a#0", "b#0"]
