"""Simulated chat LLM.

Offline stand-in for the gpt-3.5-turbo deployment of Section 5.  The
simulation is *behavioural*: it consumes the exact prompts produced by
:mod:`repro.llm.prompts` (JSON context, citation instructions, task tags)
and reproduces the externally observable behaviours the paper measures —

* **grounded answering**: when the context contains chunks relevant to the
  question, the model answers extractively in Italian, citing sources in
  the required ``[docK]`` format;
* **honest refusal**: when the context does not support an answer, the
  model says it does not know (no citations — which is exactly what the
  citation guardrail keys on);
* **failure modes**, drawn from a seeded RNG and scaled by temperature:
  dropping citations, drifting off-context (low ROUGE vs. context), and
  ending with a request for clarification.  Their default rates are
  calibrated so the guardrail distribution of Table 5 emerges from the
  pipeline rather than being hard-coded;
* **auxiliary tasks** used elsewhere in the system: lead-based document
  summaries, keyword extraction, context-free (blind) answers for QGA, and
  related-query generation for MQ1/MQ2.

Determinism: each call derives its RNG from (seed, run_nonce, prompt), so a
fixed configuration replays exactly, while :meth:`reseed` models the
run-to-run non-determinism the paper accounts for when testing guardrails.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from repro.embeddings.concepts import (
    ConceptFingerprint,
    ConceptLexicon,
    accumulate_concepts,
    fingerprint_cosine,
    fingerprint_of,
)
from repro.llm.base import (
    RESPONSE_KIND_ANSWER,
    RESPONSE_KIND_CLARIFICATION,
    RESPONSE_KIND_REFUSAL,
    ChatMessage,
    ChatResponse,
    ChatUsage,
)
from repro.llm.prompts import (
    _REPEATED_INSTRUCTIONS,
    TASK_ANSWER,
    TASK_BLIND_ANSWER,
    TASK_KEYWORDS,
    TASK_RELATED_QUERIES,
    TASK_SUMMARY,
)
from repro.text.stopwords import ITALIAN_STOPWORDS
from repro.text.tokenizer import DEFAULT_TOKEN_COUNTER, sentence_split, word_tokenize

#: The refusal the prompt instructs the model to produce when the context
#: does not support an answer.
REFUSAL_TEXT = "Mi dispiace, non conosco la risposta a questa domanda in base alla documentazione disponibile."
REFUSAL_TEXT_EN = "I am sorry, I do not know the answer to this question based on the available documentation."

#: The context is the one line after ``Contesto:`` (``json.dumps`` escapes
#: every newline); the question is all between ``Domanda:`` and the closing
#: instructions, so a blank line or the delimiter inside it is read as text.
_CONTEXT_RE = re.compile(
    r"Contesto:\n(\[[^\n]*\])\n\nDomanda: (.*?)(?:\n\n" + re.escape(_REPEATED_INSTRUCTIONS) + r")?\Z",
    re.DOTALL,
)

#: Context passages a stand-in keeps read before it clears the table (DESIGN
#: §16): a harness deployment reads 206-301 distinct ones (seed 11).
PASSAGE_TABLE_CAP = 1024

#: The kept identifiers of a text that has none: one shared empty set, not
#: 216 bytes a sentence.
_NO_IDENTIFIERS: frozenset[str] = frozenset()


def _identifier_tokens(text: str) -> set[str]:
    """Jargon identifiers in *text*: codes and product names.

    A token qualifies when it contains a digit (error/procedure codes) or
    an upper-case letter past its first character (CamelCase application
    names, acronyms).  Matching is case-insensitive on the result.
    """
    identifiers = set()
    for token in word_tokenize(text):
        if any(ch.isdigit() for ch in token) or any(ch.isupper() for ch in token[1:]):
            identifiers.add(token.lower())
    return identifiers


class _QuestionReading(NamedTuple):
    """What relevance scoring needs of the question, taken once per answer."""

    fingerprint: ConceptFingerprint
    identifiers: set[str]


@dataclass(slots=True, eq=False)
class _PassageReading:
    """What reading one context passage derives: its fingerprint and its
    sentences as ``(text, concept_stream, norm)``; the passage's identifiers
    and each sentence's are None until an identifier question needs them."""

    fingerprint: ConceptFingerprint
    sentences: list[tuple[str, list[tuple[str, float]], float]]
    identifiers: set[str] | None = None
    sentence_identifiers: list[set[str] | frozenset[str]] | None = None


#: Per-language text resources; "it" is the deployment language, "en"
#: exists for the paper's "adapt to other languages" future work.
_LANGUAGE_PACKS: dict[str, dict] = {
    "it": {
        "refusal": REFUSAL_TEXT,
        "openers": (
            "In base alla documentazione interna,",
            "Secondo le informazioni disponibili,",
            "Come indicato nella knowledge base,",
        ),
        "clarification": (
            " Per fornire una risposta più precisa, potresti indicare maggiori "
            "dettagli sulla tua richiesta?"
        ),
        "hallucinations": (
            "La procedura per {a} prevede di contattare il servizio {b} entro due giorni lavorativi.",
            "Per gestire {a} è necessario aprire una richiesta tramite {b} e attendere l'approvazione.",
            "Il sistema {b} consente di completare {a} direttamente dal portale dei dipendenti.",
        ),
    },
    "en": {
        "refusal": REFUSAL_TEXT_EN,
        "openers": (
            "According to the internal documentation,",
            "Based on the available information,",
            "As stated in the knowledge base,",
        ),
        "clarification": (
            " To give a more precise answer, could you provide more details "
            "about your request?"
        ),
        "hallucinations": (
            "The procedure for {a} requires contacting the {b} service within two business days.",
            "To handle {a} you need to open a request through {b} and wait for approval.",
            "The {b} system lets you complete {a} directly from the employee portal.",
        ),
    },
}


class SimulatedChatLLM:
    """Deterministic, seeded simulation of a chat-completion LLM.

    Args:
        lexicon: concept lexicon used to judge question/context relevance
            and to produce fluent-but-wrong hallucinations.
        seed: model identity seed.
        relevance_threshold: minimum concept overlap for a context chunk to
            count as supporting the question.
        p_missing_citation: probability of producing a grounded answer but
            forgetting the ``[docK]`` citations (caught by the citation
            guardrail).
        p_off_context: probability of drifting into generic prose unrelated
            to the context (caught by the ROUGE guardrail).
        p_clarification: probability of ending the answer with a request for
            more details (caught by the clarification guardrail).
        temperature_failure_scale: how strongly temperature amplifies the
            failure probabilities.
    """

    def __init__(
        self,
        lexicon: ConceptLexicon,
        seed: int = 7,
        relevance_threshold: float = 0.12,
        p_missing_citation: float = 0.035,
        p_off_context: float = 0.011,
        p_clarification: float = 0.002,
        temperature_failure_scale: float = 1.0,
        language: str = "it",
        registry=None,
    ) -> None:
        from repro.obs.metrics import NULL_REGISTRY

        if language not in _LANGUAGE_PACKS:
            raise ValueError(f"unsupported language {language!r}")
        registry = registry or NULL_REGISTRY
        self._m_completions = registry.counter(
            "uniask_llm_completions_total", "Chat completions served by the LLM."
        )
        self._m_tokens = registry.counter(
            "uniask_llm_tokens_total", "Tokens processed by the LLM, by kind.", ("kind",)
        )
        self._pack = _LANGUAGE_PACKS[language]
        self._lexicon = lexicon
        self._seed = seed
        self._run_nonce = 0
        self._relevance_threshold = relevance_threshold
        self._p_missing_citation = p_missing_citation
        self._p_off_context = p_off_context
        self._p_clarification = p_clarification
        self._temperature_scale = temperature_failure_scale
        self._counter = DEFAULT_TOKEN_COUNTER
        self._passages: dict[tuple[str, str], _PassageReading] = {}
        self._passages_version = lexicon.version
        self.calls = 0

    def reseed(self, run_nonce: int) -> None:
        """Start a new "run": same prompts may now draw different failures.

        Models the LLM non-determinism the paper handles by assessing
        guardrails over multiple runs (Section 6).
        """
        self._run_nonce = run_nonce

    def complete(
        self,
        messages: list[ChatMessage],
        temperature: float = 0.0,
        max_tokens: int = 512,
    ) -> ChatResponse:
        """Answer a chat conversation; dispatches on the prompt's task tag."""
        self.calls += 1
        system_text = "\n".join(m.content for m in messages if m.role == "system")
        user_text = "\n".join(m.content for m in messages if m.role == "user")
        rng = self._rng_for(system_text + "\x00" + user_text, temperature)

        kind = RESPONSE_KIND_ANSWER
        if TASK_ANSWER in system_text:
            content, kind = self._rag_answer(user_text, temperature, rng)
        elif TASK_SUMMARY in system_text:
            content = self._summarize(user_text)
        elif TASK_KEYWORDS in system_text:
            content = self._keywords(user_text)
        elif TASK_BLIND_ANSWER in system_text:
            content = self._blind_answer(user_text, rng)
        elif TASK_RELATED_QUERIES in system_text:
            content = self._related_queries(system_text, user_text)
        else:
            content = self._pack["refusal"]
            kind = RESPONSE_KIND_REFUSAL

        content = self._counter.truncate(content, max_tokens) if max_tokens else content
        prompt_tokens = self._counter.count(system_text) + self._counter.count(user_text)
        usage = ChatUsage(prompt_tokens=prompt_tokens, completion_tokens=self._counter.count(content))
        self._m_completions.inc()
        self._m_tokens.labels("prompt").inc(usage.prompt_tokens)
        self._m_tokens.labels("completion").inc(usage.completion_tokens)
        return ChatResponse(content=content, usage=usage, kind=kind)

    # -- RAG answering -------------------------------------------------------

    def _rag_answer(
        self, user_text: str, temperature: float, rng: random.Random
    ) -> tuple[str, str]:
        """The (content, kind) of one RAG answer.

        The typed kind classifies the observable behaviour — grounded or
        hallucinated prose is an *answer*, honest refusals are *refusals*,
        and an appended request for details marks the whole reply a
        *clarification request* — so a caller can read the outcome
        instead of re-parsing the text.
        """
        match = _CONTEXT_RE.search(user_text)
        if not match:
            return self._pack["refusal"], RESPONSE_KIND_REFUSAL
        try:
            documents = json.loads(match.group(1))
        except json.JSONDecodeError:
            return self._pack["refusal"], RESPONSE_KIND_REFUSAL
        question = match.group(2).strip()
        reading = _QuestionReading(
            self._lexicon.fingerprint(question), _identifier_tokens(question)
        )

        scored = []
        for document in documents:
            passage = self._read_passage(document, bool(reading.identifiers))
            relevance = self._relevance(reading, passage.fingerprint, passage.identifiers)
            scored.append((relevance, document, passage))
        scored.sort(key=lambda triple: -triple[0])

        supporting = [entry for entry in scored if entry[0] >= self._relevance_threshold]
        failure_scale = 1.0 + self._temperature_scale * temperature

        if not supporting:
            # A weakly related context sometimes seduces the model into a
            # fluent, ungrounded answer instead of an honest refusal.
            best = scored[0][0] if scored else 0.0
            if best > self._relevance_threshold / 2 and rng.random() < 0.25:
                return self._hallucinate(question, rng), RESPONSE_KIND_ANSWER
            return self._pack["refusal"], RESPONSE_KIND_REFUSAL

        answer = self._compose_grounded_answer(reading, supporting, rng)

        if rng.random() < self._p_off_context * failure_scale:
            return self._hallucinate(question, rng), RESPONSE_KIND_ANSWER
        if rng.random() < self._p_missing_citation * failure_scale:
            answer = re.sub(r"\s*\[doc\d+\]", "", answer)
        if rng.random() < self._p_clarification * failure_scale:
            return answer + self._pack["clarification"], RESPONSE_KIND_CLARIFICATION
        return answer, RESPONSE_KIND_ANSWER

    def _read_passage(self, document: dict, identifiers: bool) -> _PassageReading:
        """The reading of the passage ``"{title} {content}"``, made once per text.

        The model sees only the prompt, so it reads the text itself; it keeps
        the reading under ``(title, content)`` until the lexicon grows or the
        table is cleared at :data:`PASSAGE_TABLE_CAP`.  The fingerprint adds
        the title's concept stream, then each sentence's: one pass over the
        passage, as sentences split at whitespace; each sentence keeps its
        fingerprint's norm.  Identifiers are tokenised when *identifiers*
        first asks for them.
        """
        if self._passages_version != self._lexicon.version:  # the lexicon grew
            self._passages, self._passages_version = {}, self._lexicon.version
        title, content = f"{document.get('title', '')}", f"{document.get('content', '')}"
        passage = self._passages.get((title, content))
        if passage is None:
            weights = accumulate_concepts({}, self._lexicon.concept_stream(title))
            sentences = []
            for text in sentence_split(content):
                stream = self._lexicon.concept_stream(text)
                accumulate_concepts(weights, stream)
                sentences.append((text, stream, fingerprint_of(accumulate_concepts({}, stream)).norm))
            passage = _PassageReading(fingerprint_of(weights), sentences)
            if len(self._passages) >= PASSAGE_TABLE_CAP:
                self._passages.clear()
            self._passages[title, content] = passage
        if identifiers and passage.identifiers is None:
            passage.sentence_identifiers = [
                _identifier_tokens(text) or _NO_IDENTIFIERS for text, *_ in passage.sentences
            ]
            passage.identifiers = _identifier_tokens(title).union(*passage.sentence_identifiers)
        return passage

    @staticmethod
    def _relevance(
        reading: _QuestionReading, fingerprint: ConceptFingerprint, identifiers: set[str] | None
    ) -> float:
        """How strongly a text with this reading supports the question.

        Blends concept-level agreement (paraphrase understanding) with
        identifier overlap — an LLM reading the context trivially matches
        literal tokens like error codes ("ERR-1003") and application names
        ("CreditFlow") that the concept lexicon does not cover.  Ordinary
        words do not count here, or any shared boilerplate would look like
        support.
        """
        conceptual = fingerprint_cosine(reading.fingerprint, fingerprint)
        question_ids = reading.identifiers
        if not question_ids:
            return conceptual
        return max(conceptual, len(question_ids & identifiers) / len(question_ids))

    def _compose_grounded_answer(
        self,
        reading: _QuestionReading,
        supporting: list[tuple[float, dict, _PassageReading]],
        rng: random.Random,
    ) -> str:
        """Extract the most question-relevant sentences, citing their sources."""
        candidate_sentences: list[tuple[float, str, str]] = []
        question = reading.fingerprint.weights
        for relevance, document, passage in supporting[:3]:
            key = document.get("key", "doc1")
            sentence_identifiers = passage.sentence_identifiers or repeat(None)
            for (text, concepts, norm), identifiers in zip(passage.sentences, sentence_identifiers):
                # The question's concepts alone, with the sentence's norm: the same cosine.
                shared = [entry for entry in concepts if entry[0] in question]
                fingerprint = ConceptFingerprint(accumulate_concepts({}, shared), norm)
                sentence_relevance = self._relevance(reading, fingerprint, identifiers)
                candidate_sentences.append((sentence_relevance + 0.25 * relevance, text, key))
        candidate_sentences.sort(key=lambda triple: -triple[0])

        picked = candidate_sentences[:3]
        if not picked:
            # Only a supporting context of titles alone has no sentence.
            document = supporting[0][1]
            picked = [(0.0, document.get("title", ""), document.get("key", "doc1"))]

        openers = self._pack["openers"]
        opener = openers[rng.randrange(len(openers))]
        parts = []
        for position, (_, sentence, key) in enumerate(picked):
            body = sentence.rstrip(".")
            prefix = f"{opener} " if position == 0 else ""
            parts.append(f"{prefix}{body} [{key}].")
        return " ".join(parts)

    def _hallucinate(self, question: str, rng: random.Random) -> str:
        """A fluent, plausible, *wrong* answer built from off-context concepts."""
        concepts = self._lexicon.concepts
        if not concepts:
            return "La richiesta può essere gestita tramite il portale interno della banca."
        a = concepts[rng.randrange(len(concepts))].canonical
        b = concepts[rng.randrange(len(concepts))].canonical
        templates = self._pack["hallucinations"]
        return templates[rng.randrange(len(templates))].format(a=a, b=b)

    # -- auxiliary tasks -------------------------------------------------------

    def _summarize(self, user_text: str) -> str:
        body = user_text.split("\n\n", 1)[-1]
        sentences = sentence_split(body)
        return " ".join(sentences[:2]) if sentences else body[:200]

    def _keywords(self, user_text: str) -> str:
        weights = self._lexicon.concepts_in_text(user_text)
        ranked = sorted(weights.items(), key=lambda pair: (-pair[1], pair[0]))
        terms = [self._lexicon.get(concept_id).canonical for concept_id, _ in ranked[:8]]
        return ", ".join(terms)

    def _blind_answer(self, question: str, rng: random.Random) -> str:
        """QGA: an answer produced with no context — topical but noisy.

        Mixes the question's own concepts with generic banking boilerplate
        and a couple of *unrelated* concepts, which is why expanding the
        query with this text degrades retrieval (Table 3).
        """
        weights = self._lexicon.concepts_in_text(question)
        own = [self._lexicon.get(cid).canonical for cid in sorted(weights, key=weights.get, reverse=True)[:3]]
        concepts = self._lexicon.concepts
        noise = [concepts[rng.randrange(len(concepts))].canonical for _ in range(3)] if concepts else []
        topic = ", ".join(own) if own else "la tua richiesta"
        extras = ", ".join(noise)
        return (
            f"Per quanto riguarda {topic}, la procedura standard prevede di accedere al portale "
            f"interno e seguire le istruzioni operative. In alcuni casi è necessario verificare "
            f"anche {extras} contattando l'assistenza di filiale."
        )

    def _related_queries(self, system_text: str, question: str) -> str:
        """MQ1/MQ2: rephrase the question swapping concept surface forms."""
        requested = 3
        match = re.search(r"Genera (\d+) domande", system_text)
        if match:
            requested = int(match.group(1))

        # The LLM rephrases with the *user's own* topical words — it has no
        # access to the bank's internal jargon (precisely why RAG is needed),
        # so it cannot translate a paraphrase into the canonical term.  Two
        # rephrasings reuse the question's content words under different
        # scaffolds; the rest are generic procedural questions, the noise
        # that keeps MQ expansion from helping (Table 3).
        content_words = [
            token for token in word_tokenize(question) if token.lower() not in ITALIAN_STOPWORDS
        ]
        topic = " ".join(content_words[:6]) if content_words else "la richiesta del cliente"
        lines = [
            f"Qual è la procedura corretta per {topic}?",
            f"Quali passaggi operativi servono per {topic}?",
            "Quali sono le istruzioni per completare la richiesta del cliente in filiale?",
            "Dove trovo la documentazione operativa aggiornata?",
        ]
        while len(lines) < requested:
            lines.append(f"{question} (dettagli operativi)")
        return "\n".join(lines[:requested])

    # -- internals -------------------------------------------------------------

    def _rng_for(self, prompt: str, temperature: float) -> random.Random:
        digest = hashlib.blake2b(
            f"{self._seed}:{self._run_nonce}:{temperature}:{prompt}".encode("utf-8"),
            digest_size=8,
        ).digest()
        return random.Random(int.from_bytes(digest, "little"))
