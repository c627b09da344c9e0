"""Unit tests for the frontend service."""

from __future__ import annotations

import pytest

from repro.service.backend import BackendService
from repro.service.frontend import FrontendSession, render_answer_page


@pytest.fixture()
def frontend(system):
    backend = BackendService(system.engine, system.clock, seed=2)
    return FrontendSession(backend, "mario.rossi"), backend


class TestFrontendSession:
    def _question(self, small_kb) -> str:
        topic = next(iter(small_kb.topics.values()))
        return f"Come posso {topic.action.canonical} {topic.entity.canonical}?"

    def test_search_renders_answer_and_sources(self, frontend, small_kb):
        session, _ = frontend
        page = session.search(self._question(small_kb))
        assert "Fonti:" in page
        assert "Documenti trovati:" in page
        assert session.last_answer is not None

    def test_guardrailed_page_still_lists_documents(self, frontend):
        session, _ = frontend
        page = session.search("Qual è la ricetta della carbonara al tartufo?")
        if session.last_answer is not None and not session.last_answer.answered:
            assert "⚠" in page

    def test_feedback_roundtrip(self, frontend, small_kb):
        session, backend = frontend
        session.search(self._question(small_kb))
        form = session.feedback_form()
        payload = form.submit(helpful=True, retrieved_relevant=True, rating=5)
        session.submit_feedback(payload)
        assert len(backend.feedback_store) == 1
        assert backend.feedback_store.feedbacks[0].user_id == "mario.rossi"

    def test_feedback_before_query_rejected(self, system):
        backend = BackendService(system.engine, system.clock, seed=3)
        session = FrontendSession(backend, "anna.bianchi")
        with pytest.raises(RuntimeError):
            session.feedback_form()

    def test_feedback_links_collected(self, frontend, small_kb):
        session, backend = frontend
        session.search(self._question(small_kb))
        payload = session.feedback_form().submit(
            helpful=False,
            retrieved_relevant=False,
            rating=1,
            links=("kb/topic-0000/v0",),
            comments="La risposta è incompleta.",
        )
        session.submit_feedback(payload)
        links = backend.feedback_store.ground_truth_links()
        assert list(links.values()) == [("kb/topic-0000/v0",)]


class TestRenderAnswerPage:
    def test_render_limits_document_list(self, system, small_kb):
        topic = next(iter(small_kb.topics.values()))
        answer = system.engine.answer(f"{topic.action.canonical} {topic.entity.canonical}").answer
        page = render_answer_page(answer)
        listed = [line for line in page.splitlines() if line.startswith(("   1.", "   2.", "  1", "  2"))]
        assert len([l for l in page.splitlines() if "(kb/" in l and ". " in l]) <= 10

    def test_render_contains_question(self, system):
        answer = system.engine.answer("Come posso consultare il cedolino stipendio?").answer
        assert "cedolino" in render_answer_page(answer)
