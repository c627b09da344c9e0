"""Unit tests for the guardrails and their pipeline."""

from __future__ import annotations

import pytest

from repro.guardrails.citation import CitationGuardrail, extract_citations
from repro.guardrails.clarification import ClarificationGuardrail
from repro.guardrails.pipeline import APOLOGY_TEXT, CLARIFICATION_TEXT, GuardrailPipeline
from repro.guardrails.rouge import RougeGuardrail
from repro.search.results import RetrievedChunk
from repro.search.schema import ChunkRecord

CONTEXT_TEXT = (
    "Per attivare la carta di credito occorre accedere a GestCarte, selezionare "
    "la funzione dedicata e confermare l'operazione con le proprie credenziali."
)


@pytest.fixture()
def context() -> list[RetrievedChunk]:
    return [
        RetrievedChunk(
            record=ChunkRecord(chunk_id="a#0", doc_id="a", title="Guida", content=CONTEXT_TEXT),
            score=1.0,
        ),
        RetrievedChunk(
            record=ChunkRecord(
                chunk_id="b#0",
                doc_id="b",
                title="Cassa",
                content="La quadratura di cassa si esegue ogni sera in filiale.",
            ),
            score=0.5,
        ),
    ]


GROUNDED = "Per attivare la carta di credito occorre accedere a GestCarte [doc1]."
HALLUCINATED = (
    "Ogni richiesta relativa ai mutui ipotecari va inoltrata direttamente allo "
    "studio notarile convenzionato, allegando tre buste paga recenti [doc1]."
)
NO_CITATION = "Per attivare la carta di credito occorre accedere a GestCarte."


class TestCitationGuardrail:
    def test_extract_citations(self):
        assert extract_citations("frase [doc1] e poi [doc2].") == ["doc1", "doc2"]

    def test_valid_citation_passes(self, context):
        assert CitationGuardrail().check("q", GROUNDED, context).passed

    def test_no_citation_fires(self, context):
        verdict = CitationGuardrail().check("q", NO_CITATION, context)
        assert not verdict.passed
        assert verdict.guardrail == "citation"

    def test_unresolvable_citation_fires(self, context):
        verdict = CitationGuardrail().check("q", "risposta [doc9].", context)
        assert not verdict.passed

    def test_citation_beyond_context_size(self, context):
        # Only doc1..doc2 exist with two context chunks.
        assert not CitationGuardrail().check("q", "ecco [doc3].", context).passed


class TestRougeGuardrail:
    def test_grounded_answer_passes(self, context):
        verdict = RougeGuardrail().check("q", GROUNDED, context)
        assert verdict.passed
        assert verdict.score >= 0.15

    def test_hallucinated_answer_fires(self, context):
        verdict = RougeGuardrail().check("q", HALLUCINATED, context)
        assert not verdict.passed
        assert verdict.guardrail == "rouge"

    def test_max_over_chunks(self, context):
        """Similarity is the max over all context chunks, not the first."""
        answer = "La quadratura di cassa si esegue ogni sera in filiale [doc2]."
        assert RougeGuardrail().check("q", answer, context).passed

    def test_similarity_is_max_of_pairwise_rouge(self, context):
        from repro.text.similarity import rouge_l

        for answer in (GROUNDED, HALLUCINATED, ""):
            assert RougeGuardrail().similarity(answer, context) == max(
                rouge_l(answer, chunk.record.content) for chunk in context
            )

    def test_empty_context_fires(self):
        assert not RougeGuardrail().check("q", GROUNDED, []).passed

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RougeGuardrail(threshold=1.5)

    def test_custom_threshold(self, context):
        strict = RougeGuardrail(threshold=0.99)
        assert not strict.check("q", GROUNDED[:40], context).passed


class TestClarificationGuardrail:
    def test_plain_answer_passes(self, context):
        assert ClarificationGuardrail().check("q", GROUNDED, context).passed

    def test_clarification_request_fires(self, context):
        answer = GROUNDED + " Potresti fornire maggiori dettagli sulla tua richiesta?"
        verdict = ClarificationGuardrail().check("q", answer, context)
        assert not verdict.passed
        assert verdict.guardrail == "clarification"

    def test_question_without_detail_request_passes(self, context):
        answer = GROUNDED + " Tutto chiaro?"
        assert ClarificationGuardrail().check("q", answer, context).passed

    def test_detail_phrase_mid_answer_passes(self, context):
        answer = "Se servono maggiori dettagli, vedere il manuale. " + GROUNDED
        assert ClarificationGuardrail().check("q", answer, context).passed

    def test_empty_answer_passes(self, context):
        assert ClarificationGuardrail().check("q", "", context).passed

    @pytest.mark.parametrize(
        "request_",
        ["Quale carta intendi?", "Puoi specificare il tipo di carta?", "PUOI PRECISARE il conto?"],
    )
    def test_other_detail_requests_fire(self, context, request_):
        verdict = ClarificationGuardrail().check("q", f"{GROUNDED} {request_}", context)
        assert not verdict.passed

    def test_detail_phrase_without_question_mark_passes(self, context):
        answer = GROUNDED + " Servono maggiori dettagli."
        assert ClarificationGuardrail().check("q", answer, context).passed


class TestGuardrailPipeline:
    def test_all_pass(self, context):
        report = GuardrailPipeline().run("q", GROUNDED, context)
        assert report.passed
        assert report.fired == ""
        assert len(report.verdicts) == 3

    def test_first_failure_wins(self, context):
        # No citation AND hallucinated: the citation guardrail is first.
        report = GuardrailPipeline().run("q", "Risposta inventata senza fonti.", context)
        assert report.fired == "citation"
        assert report.user_message == APOLOGY_TEXT

    def test_rouge_failure_after_citation_pass(self, context):
        report = GuardrailPipeline().run("q", HALLUCINATED, context)
        assert report.fired == "rouge"

    def test_clarification_message(self, context):
        answer = GROUNDED + " Puoi indicare maggiori dettagli?"
        report = GuardrailPipeline().run("q", answer, context)
        assert report.fired == "clarification"
        assert report.user_message == CLARIFICATION_TEXT

    def test_names_in_order(self):
        assert GuardrailPipeline().guardrail_names == ("citation", "rouge", "clarification")

    def test_custom_guardrail_list(self, context):
        pipeline = GuardrailPipeline([RougeGuardrail()])
        report = pipeline.run("q", NO_CITATION, context)
        assert report.passed  # citation check absent
