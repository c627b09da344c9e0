"""Unit and integration tests for the UniAsk engine and system factory."""

from __future__ import annotations

import pytest

from repro.core.answer import (
    OUTCOME_ANSWERED,
    OUTCOME_CONTENT_FILTER,
    OUTCOME_NO_RESULTS,
)
from repro.core.config import GenerationConfig, UniAskConfig
from repro.core.engine import CONTENT_BLOCKED_TEXT, NO_RESULTS_TEXT
from repro.core.factory import build_uniask_system
from repro.guardrails.pipeline import APOLOGY_TEXT
from repro.pipeline.store import KbDocument


class TestEngineFlow:
    def test_answerable_question(self, system, small_kb):
        topic = next(iter(small_kb.topics.values()))
        question = f"Come posso {topic.action.canonical} {topic.entity.canonical}?"
        answer = system.engine.answer(question).answer
        assert answer.outcome == OUTCOME_ANSWERED
        assert answer.citations
        assert answer.documents
        assert len(answer.context) <= system.config.generation.context_size

    def test_citations_resolve_to_context(self, system, small_kb):
        topic = next(iter(small_kb.topics.values()))
        answer = system.engine.answer(f"Come posso {topic.action.canonical} {topic.entity.canonical}?").answer
        context_docs = {chunk.doc_id for chunk in answer.context}
        for citation in answer.citations:
            assert citation.doc_id in context_docs

    def test_content_filter_blocks_before_retrieval(self, system):
        answer = system.engine.answer("questo stupido sistema non funziona").answer
        assert answer.outcome == OUTCOME_CONTENT_FILTER
        assert answer.answer_text == CONTENT_BLOCKED_TEXT
        assert answer.documents == ()

    def test_out_of_scope_question_guardrailed(self, system):
        answer = system.engine.answer("Qual è la ricetta della carbonara al tartufo bianco?").answer
        assert answer.outcome != OUTCOME_ANSWERED

    def test_guardrailed_answer_keeps_document_list(self, system):
        """A fired guardrail is a generation failure; the list stays visible."""
        answer = system.engine.answer("Qual è la ricetta della carbonara al tartufo bianco?").answer
        if answer.guardrail_fired:
            assert answer.documents
            assert answer.answer_text in (APOLOGY_TEXT,) or answer.answer_text

    def test_deterministic_at_fixed_seed(self, system, small_kb):
        topic = next(iter(small_kb.topics.values()))
        question = f"Come posso {topic.action.canonical} {topic.entity.canonical}?"
        first = system.engine.answer(question).answer
        second = system.engine.answer(question).answer
        assert first.answer_text == second.answer_text
        assert first.outcome == second.outcome

    def test_answer_in_italian(self, system, small_kb):
        topic = next(iter(small_kb.topics.values()))
        answer = system.engine.answer(f"Come posso {topic.action.canonical} {topic.entity.canonical}?").answer
        assert any(
            marker in answer.answer_text.lower()
            for marker in ("per ", "documentazione", "in base", "secondo", "knowledge")
        )


class TestFactory:
    def test_empty_store_yields_no_results(self, lexicon):
        from repro.pipeline.store import KnowledgeBaseStore

        system = build_uniask_system(KnowledgeBaseStore(), lexicon, seed=1)
        answer = system.engine.answer("Come posso attivare la carta?").answer
        assert answer.outcome == OUTCOME_NO_RESULTS
        assert answer.answer_text == NO_RESULTS_TEXT

    def test_refresh_picks_up_new_documents(self, lexicon):
        from repro.pipeline.store import KnowledgeBaseStore

        store = KnowledgeBaseStore()
        system = build_uniask_system(store, lexicon, seed=1)
        store.put(
            KbDocument(
                doc_id="nuovo",
                html=(
                    "<html><head><title>Attivare il token di sicurezza</title></head>"
                    "<body><p>Per attivare il token di sicurezza accedere a FirmaWeb "
                    "e seguire la procedura guidata.</p></body></html>"
                ),
                domain="technical_topics",
                modified_at=1.0,
            )
        )
        system.clock.advance(15 * 60.0)
        system.refresh()
        answer = system.engine.answer("Come posso attivare il token di sicurezza?").answer
        assert answer.outcome == OUTCOME_ANSWERED
        assert answer.citations[0].doc_id == "nuovo"

    def test_chunks_carry_llm_summary(self, system):
        internal = system.index.live_internals()[0]
        assert system.index.record(internal).summary

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(context_size=0)
        with pytest.raises(ValueError):
            GenerationConfig(temperature=-0.5)

    def test_config_defaults_match_paper(self):
        config = UniAskConfig()
        assert config.generation.context_size == 4
        assert config.retrieval.text_n == 50
        assert config.retrieval.vector_k == 15
        assert config.rouge_threshold == 0.15

    def test_keyword_variant_adds_field(self, small_kb, lexicon):
        system = build_uniask_system(small_kb.store(), lexicon, seed=2, keyword_variant="kt")
        record = system.index.record(system.index.live_internals()[0])
        assert record.llm_keywords
