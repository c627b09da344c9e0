"""Unit tests for the frontend service."""

from __future__ import annotations

from repro.core.answer import (
    OUTCOME_ANSWERED,
    OUTCOME_GUARDRAIL_CITATION,
    OUTCOME_NO_RESULTS,
    AnswerContent,
    Citation,
    UniAskAnswer,
)
from repro.search.results import RetrievedChunk
from repro.search.schema import ChunkRecord
from repro.service.frontend import RESULT_LIST_SIZE, SNIPPET_COUNT, render_answer_page


class TestRenderAnswerPage:
    def test_answer_page_lists_sources_and_documents(self, system, small_kb):
        topic = next(iter(small_kb.topics.values()))
        answer = system.engine.answer(
            f"Come posso {topic.action.canonical} {topic.entity.canonical}?"
        ).answer
        page = render_answer_page(answer)
        assert "Fonti:" in page
        assert "Documenti trovati:" in page

    def test_guardrailed_page_still_lists_documents(self, system):
        answer = system.engine.answer("Qual è la ricetta della carbonara al tartufo?").answer
        assert not answer.answered
        page = render_answer_page(answer)
        assert "⚠" in page
        assert "Documenti trovati:" in page

    def test_render_limits_document_list(self, system, small_kb):
        topic = next(iter(small_kb.topics.values()))
        answer = system.engine.answer(f"{topic.action.canonical} {topic.entity.canonical}").answer
        page = render_answer_page(answer)
        listed = [line for line in page.splitlines() if line.startswith(("   1.", "   2.", "  1", "  2"))]
        assert len([l for l in page.splitlines() if "(kb/" in l and ". " in l]) <= 10

    def test_render_contains_question(self, system):
        answer = system.engine.answer("Come posso consultare il cedolino stipendio?").answer
        assert "cedolino" in render_answer_page(answer)


def _chunk(index: int) -> RetrievedChunk:
    record = ChunkRecord(
        chunk_id=f"kb/doc-{index}#0",
        doc_id=f"kb/doc-{index}",
        title=f"Documento {index}",
        content="Per attivare la carta di credito accedere a GestCarte. Confermare con le credenziali.",
    )
    return RetrievedChunk(record=record, score=1.0 / index)


def _page(outcome: str, text: str, citations=(), documents=()) -> str:
    content = AnswerContent(
        answer_text=text,
        raw_answer=text,
        outcome=outcome,
        citations=tuple(citations),
        documents=tuple(documents),
    )
    return render_answer_page(UniAskAnswer(content=content, question="attivare carta di credito"))


class TestRenderAnswerPageLayout:
    CITATION = Citation(key="1", chunk_id="kb/doc-1#0", doc_id="kb/doc-1", title="Documento 1")

    def test_first_line_is_the_question(self):
        page = _page(OUTCOME_ANSWERED, "Accedere a GestCarte [1].")
        assert page.splitlines()[0] == "❓ attivare carta di credito"

    def test_citation_lines_name_key_title_and_document(self):
        page = _page(OUTCOME_ANSWERED, "Accedere a GestCarte [1].", citations=[self.CITATION])
        lines = page.splitlines()
        assert "Accedere a GestCarte [1]." in lines
        assert lines[lines.index("Fonti:") + 1] == "  [1] Documento 1 (kb/doc-1)"

    def test_answer_without_citations_has_no_sources_block(self):
        page = _page(OUTCOME_ANSWERED, "Accedere a GestCarte.", documents=[_chunk(1)])
        assert "Fonti:" not in page
        assert "Documenti trovati:" in page

    def test_guardrailed_answer_shows_warning_and_no_sources(self):
        page = _page(OUTCOME_GUARDRAIL_CITATION, "Mi dispiace.", documents=[_chunk(1)])
        assert "⚠ Mi dispiace." in page.splitlines()
        assert "Fonti:" not in page

    def test_no_documents_no_document_block(self):
        page = _page(OUTCOME_NO_RESULTS, "Nessun risultato.")
        assert "Documenti trovati:" not in page

    def test_document_list_is_capped_and_numbered(self):
        documents = [_chunk(i) for i in range(1, RESULT_LIST_SIZE + 3)]
        page = _page(OUTCOME_ANSWERED, "Accedere a GestCarte.", documents=documents)
        listed = [line for line in page.splitlines() if line.endswith(")") and ". Documento" in line]
        assert len(listed) == RESULT_LIST_SIZE
        assert listed[0] == "   1. Documento 1 (kb/doc-1)"
        assert listed[-1] == f"  {RESULT_LIST_SIZE:2d}. Documento {RESULT_LIST_SIZE} (kb/doc-{RESULT_LIST_SIZE})"

    def test_only_the_first_documents_get_a_snippet(self):
        documents = [_chunk(i) for i in range(1, SNIPPET_COUNT + 3)]
        page = _page(OUTCOME_ANSWERED, "Accedere a GestCarte.", documents=documents)
        snippets = [line for line in page.splitlines() if line.startswith("      ")]
        assert len(snippets) == SNIPPET_COUNT
        assert all("«" in line for line in snippets)
