"""Unit tests for the knowledge graph, graph reranker and KG guardrail."""

from __future__ import annotations

import pytest

from repro.kg.graph import KnowledgeGraph, build_graph_from_index
from repro.kg.reasoning import KgGuardrail, suggest_related_pages
from repro.kg.reranker import GraphReranker
from repro.search.results import RetrievedChunk
from repro.search.schema import ChunkRecord


@pytest.fixture(scope="module")
def kg(system, lexicon):
    return build_graph_from_index(system.index, lexicon)


class TestKnowledgeGraphConstruction:
    def test_all_documents_present(self, kg, system):
        assert kg.stats().documents == system.index.document_count

    def test_concepts_registered(self, kg, lexicon):
        assert kg.stats().concepts == len(lexicon)

    def test_mentions_exist(self, kg):
        assert kg.stats().mention_edges > 0

    def test_documents_mention_their_topic_concepts(self, kg, small_kb):
        topic = next(iter(small_kb.topics.values()))
        doc_id = small_kb.docs_by_topic[topic.topic_id][0]
        mentioned = kg.concepts_of_document(doc_id)
        assert topic.entity.concept_id in mentioned
        assert topic.system.concept_id in mentioned

    def test_related_layer_connects_cooccurring_concepts(self, kg, small_kb):
        topic = next(iter(small_kb.topics.values()))
        related = kg.related_concepts(topic.entity.concept_id)
        assert related, "topic entities must relate to co-occurring concepts"

    def test_near_duplicates_linked(self, kg, small_kb):
        for topic_id, doc_ids in small_kb.docs_by_topic.items():
            if topic_id.startswith("error-") or len(doc_ids) < 2:
                continue
            duplicates = kg.duplicates_of(doc_ids[0])
            assert any(other in duplicates for other in doc_ids[1:])
            return
        pytest.skip("small corpus produced no multi-variant topics")

    def test_documents_of_concept_inverse(self, kg, small_kb):
        topic = next(iter(small_kb.topics.values()))
        doc_id = small_kb.docs_by_topic[topic.topic_id][0]
        assert doc_id in kg.documents_of_concept(topic.entity.concept_id)

    def test_unknown_lookups_empty(self, kg):
        assert kg.concepts_of_document("kb/ghost") == {}
        assert kg.related_concepts("ghost") == {}
        assert kg.duplicates_of("kb/ghost") == []


class TestGraphReranker:
    def test_connected_document_scores_higher(self, kg, lexicon, small_kb, system):
        topic = next(iter(small_kb.topics.values()))
        query = f"Come posso {topic.action.canonical} {topic.entity.canonical}?"
        reranker = GraphReranker(kg, lexicon)
        target_doc = small_kb.docs_by_topic[topic.topic_id][0]
        other_entity = next(
            entity for entity in sorted(small_kb.docs_by_entity) if entity != topic.entity.concept_id
        )
        other_doc = small_kb.docs_by_entity[other_entity][0]
        assert reranker.graph_score(query, target_doc) > reranker.graph_score(query, other_doc)

    def test_rerank_adds_component(self, kg, lexicon, system, small_kb):
        topic = next(iter(small_kb.topics.values()))
        query = f"Come posso {topic.action.canonical} {topic.entity.canonical}?"
        base = system.searcher.search(query)[:10]
        reranked = GraphReranker(kg, lexicon).rerank(query, base)
        assert all("graph" in r.components for r in reranked)
        scores = [r.score for r in reranked]
        assert scores == sorted(scores, reverse=True)

    def test_conceptless_query_scores_zero(self, kg, lexicon):
        reranker = GraphReranker(kg, lexicon)
        assert reranker.graph_score("xyzzy frobnicate", "kb/anything") == 0.0


class TestKgGuardrail:
    def _context(self, small_kb, system):
        topic = next(iter(small_kb.topics.values()))
        query = f"{topic.action.canonical} {topic.entity.canonical}"
        return topic, system.searcher.search(query)[:4]

    def test_grounded_answer_passes(self, kg, lexicon, small_kb, system):
        topic, context = self._context(small_kb, system)
        guardrail = KgGuardrail(kg, lexicon)
        answer = (
            f"Per {topic.action.canonical} {topic.entity.canonical} occorre accedere a "
            f"{topic.system.canonical} e confermare l'operazione [doc1]."
        )
        assert guardrail.check("q", answer, context).passed

    def test_paraphrased_grounded_answer_passes(self, kg, lexicon, small_kb, system):
        """The advantage over ROUGE: paraphrase-robust grounding."""
        topic, context = self._context(small_kb, system)
        guardrail = KgGuardrail(kg, lexicon)
        synonym = topic.entity.synonyms[0] if topic.entity.synonyms else topic.entity.canonical
        answer = f"La gestione di {synonym} avviene tramite {topic.system.canonical} [doc1]."
        assert guardrail.check("q", answer, context).passed

    def test_off_topic_answer_fires(self, kg, lexicon, small_kb, system):
        topic, context = self._context(small_kb, system)
        guardrail = KgGuardrail(kg, lexicon)
        off_topic = (
            "La pratica di successione richiede l'atto di pignoramento e la polizza "
            "assicurativa del cliente, da registrare nella nota spese [doc1]."
        )
        verdict = guardrail.check("q", off_topic, context)
        assert not verdict.passed
        assert verdict.guardrail == "kg"

    def test_empty_context_fires(self, kg, lexicon):
        assert not KgGuardrail(kg, lexicon).check("q", "risposta", []).passed

    def test_conceptless_answer_passes(self, kg, lexicon, small_kb, system):
        _, context = self._context(small_kb, system)
        verdict = KgGuardrail(kg, lexicon).check("q", "Va bene, procedo così.", context)
        assert verdict.passed

    def test_threshold_validation(self, kg, lexicon):
        with pytest.raises(ValueError):
            KgGuardrail(kg, lexicon, min_supported=1.5)


class TestRelatedPages:
    def test_suggestions_exclude_shown_documents(self, kg, lexicon, small_kb):
        topic = next(iter(small_kb.topics.values()))
        query = f"{topic.action.canonical} {topic.entity.canonical}"
        shown = set(small_kb.docs_by_topic[topic.topic_id])
        suggestions = suggest_related_pages(kg, lexicon, query, exclude_docs=shown)
        assert all(page.doc_id not in shown for page in suggestions)

    def test_suggestions_are_topical(self, kg, lexicon, small_kb):
        topic = next(iter(small_kb.topics.values()))
        query = f"{topic.action.canonical} {topic.entity.canonical}"
        suggestions = suggest_related_pages(kg, lexicon, query, limit=3)
        assert suggestions
        # The best suggestion must be reachable via one of the query concepts.
        seeds = set(lexicon.concepts_in_text(query))
        related = set()
        for seed in seeds:
            related |= set(kg.related_concepts(seed))
        assert suggestions[0].via_concept in seeds | related

    def test_limit_respected(self, kg, lexicon):
        suggestions = suggest_related_pages(kg, lexicon, "carta di credito", limit=2)
        assert len(suggestions) <= 2

    def test_conceptless_query_no_suggestions(self, kg, lexicon):
        assert suggest_related_pages(kg, lexicon, "xyzzy") == []
