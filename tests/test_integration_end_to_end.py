"""Integration tests: full system flows across module boundaries."""

from __future__ import annotations

import pytest

from repro.baselines.keyword_engine import PrevKeywordEngine
from repro.core.answer import OUTCOME_ANSWERED
from repro.core.factory import build_uniask_system
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset
from repro.eval.harness import RetrievalEvaluator, hss_retriever, prev_retriever
from repro.pipeline.store import KbDocument
from repro.search.results import dedupe_by_document


class TestIngestionToAnswer:
    def test_full_lifecycle_create_update_delete(self, lexicon):
        """Create a doc, answer from it, edit it, see the edit, delete it."""
        from repro.pipeline.store import KnowledgeBaseStore

        store = KnowledgeBaseStore()
        system = build_uniask_system(store, lexicon, seed=5)

        def page(body: str) -> str:
            return (
                "<html><head><title>Rinnovare il badge di accesso</title></head>"
                f"<body><p>{body}</p></body></html>"
            )

        store.put(
            KbDocument(
                doc_id="badge-page",
                html=page("Per rinnovare il badge di accesso recarsi a BadgePoint entro il giorno 15."),
                domain="technical_topics",
                modified_at=1.0,
            )
        )
        system.clock.advance(900)
        system.refresh()
        first = system.engine.answer("Come posso rinnovare il badge di accesso?").answer
        assert first.outcome == OUTCOME_ANSWERED
        assert "BadgePoint" in first.answer_text

        # Editor updates the page: polling must pick it up.
        store.update_html(
            "badge-page",
            page("Per rinnovare il badge di accesso usare il portale ServiceDesk 360 dal proprio pc."),
            modified_at=system.clock.now() + 1,
        )
        system.clock.advance(900)
        system.refresh()
        second = system.engine.answer("Come posso rinnovare il badge di accesso?").answer
        assert second.outcome == OUTCOME_ANSWERED
        assert "ServiceDesk" in second.answer_text

        # Page deleted: the engine must stop citing it.
        store.delete("badge-page", deleted_at=system.clock.now() + 1)
        system.clock.advance(900)
        system.refresh()
        third = system.engine.answer("Come posso rinnovare il badge di accesso?").answer
        assert all(citation.doc_id != "badge-page" for citation in third.citations)

    def test_polling_interval_respected(self, lexicon):
        """Edits are invisible until the next 15-minute poll fires."""
        from repro.pipeline.store import KnowledgeBaseStore

        store = KnowledgeBaseStore()
        system = build_uniask_system(store, lexicon, seed=6)
        store.put(
            KbDocument(
                doc_id="late",
                html=(
                    "<html><head><title>Consultare il cedolino stipendio</title></head>"
                    "<body><p>Il cedolino stipendio è disponibile su HR Portal.</p></body></html>"
                ),
                modified_at=system.clock.now() + 10,
            )
        )
        # No poll has fired since the put: the doc is not searchable yet.
        system.indexing.drain()
        assert len(system.index) == 0
        system.clock.advance(15 * 60)
        system.refresh()
        assert len(system.index) == 1


class TestRetrievalQuality:
    @pytest.fixture(scope="class")
    def wired(self, lexicon):
        kb = KbGenerator(KbGeneratorConfig(num_topics=80, error_families=5, seed=21)).generate()
        system = build_uniask_system(kb.store(), lexicon, seed=21)
        return kb, system

    def test_uniask_answers_every_human_question(self, wired):
        kb, system = wired
        questions = generate_human_dataset(kb, HumanDatasetConfig(num_questions=40, seed=2))
        evaluator = RetrievalEvaluator()
        result = evaluator.evaluate(hss_retriever(system.searcher), questions)
        assert result.answered == result.total

    def test_prev_fails_most_human_questions(self, wired):
        kb, system = wired
        prev = PrevKeywordEngine()
        prev.index_all(kb.store().all_documents())
        questions = generate_human_dataset(kb, HumanDatasetConfig(num_questions=60, seed=2))
        result = RetrievalEvaluator().evaluate(prev_retriever(prev), questions)
        assert result.answered_fraction < 0.5

    def test_uniask_beats_prev_on_human_recall(self, wired):
        kb, system = wired
        prev = PrevKeywordEngine()
        prev.index_all(kb.store().all_documents())
        questions = generate_human_dataset(kb, HumanDatasetConfig(num_questions=60, seed=2))
        evaluator = RetrievalEvaluator()
        prev_result = evaluator.evaluate(prev_retriever(prev), questions)
        uniask_result = evaluator.evaluate(hss_retriever(system.searcher), questions)
        assert uniask_result.metrics.r_at_50 > prev_result.metrics.r_at_50

    def test_error_code_query_pinpoints_document(self, wired):
        kb, system = wired
        code, doc_id = next(iter(kb.doc_by_error_code.items()))
        results = dedupe_by_document(system.searcher.search(code))
        assert results[0].doc_id == doc_id

    def test_filters_restrict_domain(self, wired):
        kb, system = wired
        results = system.searcher.search("procedura operativa", filters={"domain": "governance"})
        assert all(r.record.domain == "governance" for r in results)


class TestBackendIntegration:
    def test_dashboard_reflects_traffic(self, system, small_kb):
        from repro.service.backend import BackendService

        backend = BackendService(system.engine, system.clock, seed=1)
        token = backend.login("員工")
        questions = generate_human_dataset(small_kb, HumanDatasetConfig(num_questions=10, seed=4))
        for query in questions:
            backend.serve(token, query.text)
        snapshot = backend.metrics.snapshot()
        assert snapshot.queries == 10
        assert snapshot.users == 1
        assert sum(snapshot.queries_per_bucket) == 10
