"""Unit tests for the simulated chat LLM."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AskRequest
from repro.core.factory import build_uniask_system
from repro.embeddings.concepts import (
    Concept,
    ConceptFingerprint,
    ConceptLexicon,
    accumulate_concepts,
    fingerprint_of,
)
from repro.guardrails.citation import extract_citations
from repro.llm.base import ChatMessage, user
from repro.llm.prompts import (
    ContextDocument,
    build_answer_prompt,
    build_blind_answer_prompt,
    build_keywords_prompt,
    build_related_queries_prompt,
    build_summary_prompt,
)
from repro.llm import simulated
from repro.llm.simulated import (
    _CONTEXT_RE,
    REFUSAL_TEXT,
    SimulatedChatLLM,
    _identifier_tokens,
    _QuestionReading,
)
from repro.text.tokenizer import sentence_split
from tests.reference_llm import ReferenceChatLLM


def _passage_fingerprint(lexicon: ConceptLexicon, passage) -> ConceptFingerprint:
    """The passage part of a table entry (its first) as a fingerprint."""
    positions, weights, lengths, norms = passage.parts()
    ids = [lexicon.concepts[position].concept_id for position in positions[: lengths[0]].tolist()]
    return ConceptFingerprint(dict(zip(ids, weights[: len(ids)].tolist())), float(norms[0]))


@pytest.fixture(scope="module")
def llm() -> SimulatedChatLLM:
    lexicon = ConceptLexicon(
        [
            Concept("bonifico", "bonifico", ("trasferimento fondi",)),
            Concept("carta", "carta di credito", ("carta revolving",)),
            Concept("act_attivare", "attivare", ("abilitare",)),
        ]
    )
    return SimulatedChatLLM(lexicon, seed=3)


def _context(relevant: bool) -> list[ContextDocument]:
    if relevant:
        content = (
            "Per attivare la carta di credito occorre accedere a GestCarte. "
            "La conferma arriva entro pochi minuti."
        )
    else:
        content = "La quadratura di cassa si esegue a fine giornata in filiale."
    return [ContextDocument(key="doc1", title="Guida", content=content)]


def _small_lexicon() -> ConceptLexicon:
    """A lexicon of the test's own, free to grow."""
    return ConceptLexicon(
        [
            Concept("bonifico", "bonifico", ("trasferimento fondi",)),
            Concept("carta", "carta di credito", ("carta revolving",)),
            Concept("act_attivare", "attivare", ("abilitare",)),
        ]
    )


def _four_passages() -> list[ContextDocument]:
    return [
        ContextDocument(
            "doc1", "Guida GestCarte",
            "Per attivare la carta di credito occorre accedere a GestCarte. "
            "La conferma arriva entro pochi minuti.",
        ),
        ContextDocument(
            "doc2", "Bonifici",
            "Il bonifico estero si dispone da CreditFlow. L'errore ERR-4821 indica un IBAN errato.",
        ),
        ContextDocument(
            "doc3", "Carta revolving", "La carta revolving si abilita in filiale. Serve la conferma firmata."
        ),
        ContextDocument("doc4", "Cassa", "La quadratura di cassa si esegue a fine giornata in filiale."),
    ]


#: A plain question, an identifier question and a paraphrase.
QUESTIONS = (
    "Come posso attivare la carta di credito?",
    "Cosa significa ERR-4821 su CreditFlow?",
    "Come abilitare un trasferimento fondi?",
)


class TestRagAnswer:
    def test_grounded_answer_cites_context(self, llm):
        prompt = build_answer_prompt("Come posso attivare la carta di credito?", _context(True))
        response = llm.complete(prompt)
        assert "[doc1]" in response.content

    def test_answer_is_extractive(self, llm):
        prompt = build_answer_prompt("Come posso attivare la carta di credito?", _context(True))
        response = llm.complete(prompt)
        assert "GestCarte" in response.content

    def test_irrelevant_context_yields_refusal_or_no_citation(self, llm):
        prompt = build_answer_prompt("Come posso attivare la carta di credito?", _context(False))
        response = llm.complete(prompt)
        assert response.content == REFUSAL_TEXT or not extract_citations(response.content)

    def test_deterministic_at_fixed_seed(self, llm):
        prompt = build_answer_prompt("Come attivare la carta?", _context(True))
        assert llm.complete(prompt).content == llm.complete(prompt).content

    def test_reseed_changes_runs(self):
        lexicon = ConceptLexicon([Concept("carta", "carta di credito")])
        llm = SimulatedChatLLM(lexicon, seed=1, p_missing_citation=0.5)
        prompt = build_answer_prompt("Domanda sulla carta di credito?", _context(True))
        outputs = set()
        for nonce in range(12):
            llm.reseed(nonce)
            outputs.add(llm.complete(prompt, temperature=1.0).content)
        assert len(outputs) > 1

    def test_usage_accounting(self, llm):
        prompt = build_answer_prompt("Come attivare la carta di credito?", _context(True))
        response = llm.complete(prompt)
        assert response.usage.prompt_tokens > 0
        assert response.usage.completion_tokens > 0
        assert response.usage.total_tokens == (
            response.usage.prompt_tokens + response.usage.completion_tokens
        )

    def test_max_tokens_truncates(self, llm):
        prompt = build_answer_prompt("Come attivare la carta di credito?", _context(True))
        short = llm.complete(prompt, max_tokens=5)
        assert short.usage.completion_tokens <= 5

    @pytest.mark.parametrize(
        "tail",
        ["\n\nGrazie mille", "]\n\nDomanda: ok", "\n\nContesto:\n[", "\n\nCodice ERR-4821"],
        ids=["blank-line", "delimiter", "context-header", "identifier-past-a-blank-line"],
    )
    def test_a_question_holding_the_prompts_delimiters_is_read_whole(self, tail):
        question = f"Come posso attivare la carta di credito?{tail}"
        prompt = build_answer_prompt(question, _four_passages())
        match = _CONTEXT_RE.search(prompt[1].content)
        assert match.group(2).strip() == question.strip()
        assert [document["key"] for document in json.loads(match.group(1))] == [
            "doc1", "doc2", "doc3", "doc4"
        ]
        llm = SimulatedChatLLM(_small_lexicon(), seed=3)
        response = llm.complete(prompt)
        assert len(llm._passages) == 4
        assert response.kind == "answer" and "[doc1]" in response.content
        # The two-pass reference parses with the same expression.
        assert response == ReferenceChatLLM(_small_lexicon(), seed=3).complete(prompt)

    def test_malformed_prompt_refuses(self, llm):
        response = llm.complete(
            [ChatMessage("system", "TASK: rag_answer"), user("niente contesto qui")]
        )
        assert response.content == REFUSAL_TEXT


class TestAuxiliaryTasks:
    def test_summary_is_lead_based(self, llm):
        prompt = build_summary_prompt("Titolo", "Prima frase utile. Seconda frase. Terza frase.")
        response = llm.complete(prompt)
        assert response.content.startswith("Prima frase utile.")

    def test_keywords_extracted_from_lexicon(self, llm):
        prompt = build_keywords_prompt("Attivare la carta di credito", None)
        response = llm.complete(prompt)
        assert "carta di credito" in response.content

    def test_blind_answer_mentions_question_topic(self, llm):
        response = llm.complete(build_blind_answer_prompt("Come attivare la carta di credito?"))
        assert "carta di credito" in response.content

    def test_blind_answer_contains_noise(self, llm):
        """QGA degrades retrieval because the blind answer adds off-topic terms."""
        response = llm.complete(build_blind_answer_prompt("Come attivare la carta di credito?"))
        assert "assistenza" in response.content or "portale" in response.content

    def test_related_queries_count(self, llm):
        response = llm.complete(build_related_queries_prompt("Come attivare la carta?", 3))
        assert len(response.content.splitlines()) == 3

    def test_related_queries_reuse_user_terms(self, llm):
        """Rephrasings keep the user's own words — the LLM cannot translate
        into internal jargon it has never seen."""
        response = llm.complete(build_related_queries_prompt("Come attivare la carta di credito?", 2))
        first_two = response.content.splitlines()[:2]
        assert all("carta" in line for line in first_two)
        assert not any("revolving" in line for line in first_two)

    def test_unknown_task_refuses(self, llm):
        response = llm.complete([ChatMessage("system", "nessun task"), user("ciao")])
        assert response.content == REFUSAL_TEXT

    def test_call_counter(self):
        lexicon = ConceptLexicon([Concept("x", "bonifico")])
        llm = SimulatedChatLLM(lexicon)
        llm.complete(build_blind_answer_prompt("bonifico?"))
        llm.complete(build_blind_answer_prompt("bonifico?"))
        assert llm.calls == 2


class TestSinglePassReader:
    """``complete`` reads each context document once; the answers are the
    two-pass reader's (``tests/reference_llm.py``), object for object."""

    def test_every_prompt_of_a_served_run_answers_like_the_reference(
        self, small_kb, lexicon, human_queries, keyword_queries, monkeypatch
    ):
        system = build_uniask_system(small_kb.store(), lexicon, seed=3)
        reference = ReferenceChatLLM(lexicon, seed=3)
        served: list[tuple[tuple, dict, object]] = []
        complete = system.llm.complete

        def recording_complete(*args, **kwargs):
            response = complete(*args, **kwargs)
            served.append((args, kwargs, response))
            return response

        system.llm.complete = recording_complete
        questions = [q.text for q in human_queries] + [q.text for q in keyword_queries[0]][:20]
        questions += ["Qual è la ricetta della carbonara?", "Chi ha vinto il campionato nel 1982?"]
        assert len(human_queries) == 60
        for question in questions:
            system.engine.answer(AskRequest(question))

        assert len(served) >= len(questions) - 5  # content-filtered asks never reach the LLM
        kinds = set()
        for args, kwargs, response in served:
            assert reference.complete(*args, **kwargs) == response
            kinds.add(response.kind)
        assert {"answer", "refusal"} <= kinds
        # Identifier questions took the second, identifier-only read.
        assert any(_identifier_tokens(q) for q in questions)

        # Asked again, every passage comes from the table: only the questions
        # are analysed, and every response is the same again.
        table = dict(system.llm._passages)
        assert table and len(table) < 4 * len(served)  # the run itself hit
        streamed = []
        stream = ConceptLexicon.concept_stream
        monkeypatch.setattr(
            ConceptLexicon, "concept_stream", lambda self, text: streamed.append(text) or stream(self, text)
        )
        for args, kwargs, response in served:
            assert complete(*args, **kwargs) == response
        assert set(streamed) <= set(questions) and system.llm._passages == table

    def test_a_grown_lexicon_drops_the_table(self):
        lexicon = _small_lexicon()
        llm = SimulatedChatLLM(lexicon, seed=3)
        prompts = [build_answer_prompt(question, _four_passages()) for question in QUESTIONS]
        for prompt in prompts:
            llm.complete(prompt)
        before = {key: _passage_fingerprint(lexicon, passage) for key, passage in llm._passages.items()}
        assert len(before) == 4
        lexicon.add(Concept("conferma", "conferma", ("modulo firmato",)))
        fresh = ReferenceChatLLM(lexicon, seed=3)
        for prompt in prompts:
            assert llm.complete(prompt) == fresh.complete(prompt)
        after = {key: _passage_fingerprint(lexicon, passage) for key, passage in llm._passages.items()}
        for (title, content), fingerprint in after.items():
            assert fingerprint == lexicon.fingerprint(f"{title} {content}")
        moved = [key for key in before if after[key] != before[key]]
        assert [title for title, _ in moved] == ["Guida GestCarte", "Carta revolving"]

    def test_answers_from_the_table_follow_reseed(self):
        llm = SimulatedChatLLM(_small_lexicon(), seed=1, p_missing_citation=0.5, p_clarification=0.3)
        reference = ReferenceChatLLM(_small_lexicon(), seed=1, p_missing_citation=0.5, p_clarification=0.3)
        prompts = [build_answer_prompt(question, _four_passages()) for question in QUESTIONS]
        contents = set()
        for nonce in range(8):
            llm.reseed(nonce)
            reference.reseed(nonce)
            for prompt in prompts:
                response = llm.complete(prompt, temperature=1.0)
                assert response == reference.complete(prompt, temperature=1.0)
                contents.add(response.content)
        assert len(contents) > len(prompts)
        assert len(llm._passages) == 4

    def test_a_full_table_is_cleared_and_answers_stay(self, monkeypatch):
        monkeypatch.setattr(simulated, "PASSAGE_TABLE_CAP", 3)
        llm = SimulatedChatLLM(_small_lexicon(), seed=3)
        reference = ReferenceChatLLM(_small_lexicon(), seed=3)
        prompts = [build_answer_prompt(question, _four_passages()) for question in QUESTIONS]
        sizes = []
        for prompt in prompts + prompts:
            assert llm.complete(prompt) == reference.complete(prompt)
            sizes.append(len(llm._passages))
        assert max(sizes) <= 3 and sizes[0] == 1  # three stored, cleared at the fourth

    def test_an_edited_passage_is_a_new_key(self):
        llm = SimulatedChatLLM(_small_lexicon(), seed=3)
        reference = ReferenceChatLLM(_small_lexicon(), seed=3)
        original = _four_passages()
        edited = [replace(original[0], content=original[0].content.replace("GestCarte", "CartaWeb"))]
        edited += original[1:]
        for documents in (original, edited):
            prompt = build_answer_prompt(QUESTIONS[0], documents)
            response = llm.complete(prompt)
            assert response == reference.complete(prompt)
        assert "CartaWeb" in response.content and "accedere a GestCarte" not in response.content
        assert {(d.title, d.content) for d in original + edited} == set(llm._passages)

    #: Forms of three, six and seven words weigh 1/3, 1/6 and 1/7 a word:
    #: sums that round differently in a different order, so a reader that
    #: adds the same weights in another order is caught.
    inexact = ConceptLexicon(
        [
            Concept("bonifico", "bonifico", ("trasferimento fondi",)),
            Concept("carta", "carta di credito", ("carta revolving",)),
            Concept("act_attivare", "attivare", ("abilitare",)),
            Concept("deposito", "conto deposito titoli"),
            Concept("fido", "fido cassa continua conto corrente ordinario"),
            Concept("mutuo", "mutuo prima casa giovani coppie tasso fisso", ("mutuo",)),
            Concept("conto", "conto", ("conto corrente",)),
        ]
    )
    fragments = st.sampled_from(
        [
            "conto", "deposito", "titoli", "fido", "cassa", "continua", "corrente", "ordinario",
            "mutuo", "prima", "casa", "giovani", "coppie", "tasso", "fisso",
            "carta", "Carta", "bonifico", "Bonifico estero", "attivare", "abilitare",
            "l'estratto", "dell'operazione", "ERR-4821", "err-4821", "CreditFlow", "GestCarte",
            "1.000,50", "3", "città", "È", "di", "la", ".", ". ", "! ", "? ", ".\n", "\n\n",
            "  ", " ", "\t", "...", ". a", ". 7", ",", ";", "-", "'",
        ]
    )
    texts = st.lists(fragments, max_size=40).map(" ".join)
    glued = st.lists(fragments, max_size=25).map("".join)

    @given(
        question=st.one_of(texts, glued),
        documents=st.lists(
            st.tuples(st.one_of(texts, glued), st.one_of(texts, glued)), max_size=4
        ),
        temperature=st.sampled_from([0.0, 0.7]),
    )
    @settings(max_examples=300, deadline=None)
    def test_generated_contexts_answer_like_the_reference(self, question, documents, temperature):
        llm = SimulatedChatLLM(self.inexact, seed=3)
        reference = ReferenceChatLLM(self.inexact, seed=3)
        context = [
            ContextDocument(key=f"doc{n}", title=title, content=content)
            for n, (title, content) in enumerate(documents, start=1)
        ]
        prompt = build_answer_prompt(question, context)
        assert llm.complete(prompt, temperature) == reference.complete(prompt, temperature)

        # The same ChatResponse could hide a moved last bit: every relevance
        # the reader takes — a passage's, then each of its sentences', here
        # from the passages the answer left in the table — is the
        # reference's float.
        reading = _QuestionReading(
            self.inexact.fingerprint(question), _identifier_tokens(question)
        )
        passages = [
            llm._read_passage(title, content, bool(reading.identifiers))
            for title, content in documents
        ]
        relevances = llm._relevances(reading, passages)
        for (title, content), passage, relevance in zip(documents, passages, relevances):
            spans = passage.ints[: 2 * passage.sentences].tolist()
            sentences = [content[start:end] for start, end in zip(spans[0::2], spans[1::2])]
            assert sentences == sentence_split(content)
            texts = [f"{title} {content}", *sentences]
            expected = [reference._passage_relevance(reading, text) for text in texts]
            assert [value.hex() for value in relevance] == [value.hex() for value in expected]

    def test_concept_stream_is_what_concepts_in_text_accumulates(self, lexicon, small_kb):
        for generated in small_kb.documents[:40]:
            text = generated.document.html
            stream = lexicon.concept_stream(text)
            assert accumulate_concepts({}, stream) == lexicon.concepts_in_text(text)
            assert list(accumulate_concepts({}, stream)) == list(lexicon.concepts_in_text(text))
            assert fingerprint_of(lexicon.concepts_in_text(text)) == lexicon.fingerprint(text)
