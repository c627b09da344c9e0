"""ROUGE-L topical guardrail — the primary hallucination defence.

Section 6: after generation, compute ROUGE-L between the answer and *each*
chunk of the retrieval context, keep the **maximum** score, and invalidate
the answer when that maximum falls below a threshold heuristically set to
**0.15** on real user questions.  An answer that shares so little surface
material with every retrieved chunk cannot be grounded in them.
"""

from __future__ import annotations

from repro.guardrails.base import GuardrailVerdict
from repro.search.reading import rouge_tokens_of
from repro.search.results import RetrievedChunk
from repro.text.similarity import rouge_l_tokens, rouge_tokens

#: The production threshold from the paper.
DEFAULT_ROUGE_THRESHOLD = 0.15


class RougeGuardrail:
    """Max-over-chunks ROUGE-L threshold check."""

    def __init__(self, threshold: float = DEFAULT_ROUGE_THRESHOLD) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        self._threshold = threshold

    @property
    def name(self) -> str:
        """Guardrail identifier."""
        return "rouge"

    def similarity(self, answer: str, context: list[RetrievedChunk]) -> float:
        """Max ROUGE-L of *answer* against any context chunk.

        Only the answer is analysed here; a chunk's tokens are kept on its
        reading from the first time it reached a context.
        """
        if not context:
            return 0.0
        answer_tokens = rouge_tokens(answer)
        return max(
            rouge_l_tokens(answer_tokens, rouge_tokens_of(chunk.record)).fmeasure
            for chunk in context
        )

    def check(
        self, question: str, answer: str, context: list[RetrievedChunk]
    ) -> GuardrailVerdict:
        """Fire when the answer is not syntactically grounded in the context."""
        score = self.similarity(answer, context)
        if score < self._threshold:
            return GuardrailVerdict(
                passed=False,
                guardrail=self.name,
                detail=f"max ROUGE-L {score:.3f} below threshold {self._threshold}",
                score=score,
            )
        return GuardrailVerdict(passed=True, score=score)
