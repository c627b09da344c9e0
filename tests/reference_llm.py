"""The passage-then-sentences context reader as ``src/`` carried it (PR 23).

Test oracle only: :mod:`tests.test_llm_simulated` requires
:meth:`SimulatedChatLLM.complete`, which reads each context document once,
to return the same ``ChatResponse`` as this class for every prompt of a
served run and for generated hostile contexts.  The three method bodies are
the parent commit's ``_rag_answer`` / ``_relevance`` /
``_compose_grounded_answer`` unchanged but for their names: every document
is analyzed whole (``"{title} {content}"``) for relevance, and the
supporting ones a second time, sentence by sentence, to compose.
Everything else — the RNG, token accounting, hallucinations, truncation —
is inherited, so a difference can only come from the reader.
:func:`fingerprint_cosine` is the cosine ``src/`` carried until the reader
and the reranker shared one array kernel
(:func:`~repro.embeddings.concepts.part_cosines`), unchanged.
Do not optimise this file.
"""

from __future__ import annotations

import json
import random
import re

from repro.embeddings.concepts import ConceptFingerprint
from repro.llm.base import (
    RESPONSE_KIND_ANSWER,
    RESPONSE_KIND_CLARIFICATION,
    RESPONSE_KIND_REFUSAL,
)
from repro.llm.simulated import (
    _CONTEXT_RE,
    SimulatedChatLLM,
    _identifier_tokens,
    _QuestionReading,
)
from repro.text.tokenizer import sentence_split


def fingerprint_cosine(a: ConceptFingerprint, b: ConceptFingerprint) -> float:
    """Cosine of two concept fingerprints; 0.0 when either is empty.

    The products are added one by one in *a*'s first-seen concept order: the
    same float under any hash seed (a set would iterate in hash order) and
    any Python (``sum()`` is compensated from 3.12 on).
    """
    weights_b = b.weights
    if not a.weights or not weights_b:
        return 0.0
    dot = 0.0
    for cid, w in a.weights.items():
        if cid in weights_b:
            dot += w * weights_b[cid]
    return dot / (a.norm * b.norm) if a.norm and b.norm else 0.0


class ReferenceChatLLM(SimulatedChatLLM):
    """``SimulatedChatLLM`` with the two-pass reader."""

    def _rag_answer(
        self, user_text: str, temperature: float, rng: random.Random
    ) -> tuple[str, str]:
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
            passage = f"{document.get('title', '')} {document.get('content', '')}"
            relevance = self._passage_relevance(reading, passage)
            scored.append((relevance, document))
        scored.sort(key=lambda pair: -pair[0])

        supporting = [(rel, doc) for rel, doc in scored if rel >= self._relevance_threshold]
        failure_scale = 1.0 + self._temperature_scale * temperature

        if not supporting:
            best = scored[0][0] if scored else 0.0
            if best > self._relevance_threshold / 2 and rng.random() < 0.25:
                return self._hallucinate(question, rng), RESPONSE_KIND_ANSWER
            return self._pack["refusal"], RESPONSE_KIND_REFUSAL

        answer = self._compose_from_texts(reading, supporting, rng)

        if rng.random() < self._p_off_context * failure_scale:
            return self._hallucinate(question, rng), RESPONSE_KIND_ANSWER
        if rng.random() < self._p_missing_citation * failure_scale:
            answer = re.sub(r"\s*\[doc\d+\]", "", answer)
        if rng.random() < self._p_clarification * failure_scale:
            return answer + self._pack["clarification"], RESPONSE_KIND_CLARIFICATION
        return answer, RESPONSE_KIND_ANSWER

    def _passage_relevance(self, reading: _QuestionReading, passage: str) -> float:
        conceptual = fingerprint_cosine(reading.fingerprint, self._lexicon.fingerprint(passage))
        question_ids = reading.identifiers
        if question_ids:
            passage_ids = _identifier_tokens(passage)
            lexical = len(question_ids & passage_ids) / len(question_ids)
        else:
            lexical = 0.0
        return max(conceptual, lexical)

    def _compose_from_texts(
        self,
        reading: _QuestionReading,
        supporting: list[tuple[float, dict]],
        rng: random.Random,
    ) -> str:
        candidate_sentences: list[tuple[float, str, str]] = []
        for relevance, document in supporting[:3]:
            key = document.get("key", "doc1")
            for sentence in sentence_split(document.get("content", "")):
                sentence_relevance = self._passage_relevance(reading, sentence)
                candidate_sentences.append((sentence_relevance + 0.25 * relevance, sentence, key))
        candidate_sentences.sort(key=lambda triple: -triple[0])

        picked = candidate_sentences[:3]
        if not picked:
            _, document = supporting[0]
            first = sentence_split(document.get("content", ""))[:1]
            picked = [(0.0, first[0] if first else document.get("title", ""), document.get("key", "doc1"))]

        openers = self._pack["openers"]
        opener = openers[rng.randrange(len(openers))]
        parts = []
        for position, (_, sentence, key) in enumerate(picked):
            body = sentence.rstrip(".")
            prefix = f"{opener} " if position == 0 else ""
            parts.append(f"{prefix}{body} [{key}].")
        return " ".join(parts)
