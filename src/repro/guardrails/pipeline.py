"""Guardrail pipeline.

Runs the answer-side guardrails of Section 6 in a fixed order — citation,
ROUGE-L, clarification — and reports the first failure.  The order mirrors
the paper's reporting in Table 5 (the citation guardrail fires most often
and is checked first; the clarification requirement applies on top of both).
When a guardrail invalidates the answer, the system returns an apology
message but still displays the retrieved document list, because a fired
guardrail is a failure of the generation module, not of retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.guardrails.base import Guardrail, GuardrailVerdict
from repro.guardrails.citation import CitationGuardrail
from repro.guardrails.clarification import ClarificationGuardrail
from repro.guardrails.rouge import RougeGuardrail
from repro.obs import spans
from repro.obs.trace import NULL_CONTEXT, RequestContext
from repro.search.results import RetrievedChunk

#: The apology shown when a guardrail invalidates the generated answer.
APOLOGY_TEXT = (
    "Ci scusiamo: il sistema non è riuscito a generare una risposta affidabile "
    "per la tua domanda. Puoi consultare la lista dei documenti recuperati."
)

#: The invitation shown when the clarification guardrail fires.
CLARIFICATION_TEXT = (
    "La domanda necessita di maggiori dettagli: ti invitiamo a riformularla "
    "in modo più specifico."
)


@dataclass(frozen=True)
class GuardrailReport:
    """Aggregate result of running the pipeline on one answer.

    Attributes:
        passed: True when every guardrail passed.
        fired: name of the guardrail that invalidated the answer ("" if none).
        verdicts: every individual verdict, in execution order.
        user_message: what the frontend should display instead of the answer
            when invalidated.
    """

    passed: bool
    fired: str = ""
    verdicts: tuple[GuardrailVerdict, ...] = field(default_factory=tuple)
    user_message: str = ""


class GuardrailPipeline:
    """Ordered execution of answer guardrails with first-failure semantics."""

    def __init__(self, guardrails: list[Guardrail] | None = None, registry=None) -> None:
        from repro.obs.metrics import NULL_REGISTRY

        if guardrails is None:
            guardrails = [CitationGuardrail(), RougeGuardrail(), ClarificationGuardrail()]
        self._guardrails = guardrails
        registry = registry or NULL_REGISTRY
        self._m_checks = registry.counter(
            "uniask_guardrail_checks_total",
            "Guardrail checks run, by guardrail and result.",
            ("guardrail", "result"),
        )

    @property
    def guardrail_names(self) -> tuple[str, ...]:
        """Names in execution order."""
        return tuple(guardrail.name for guardrail in self._guardrails)

    def run(
        self,
        question: str,
        answer: str,
        context: list[RetrievedChunk],
        ctx: RequestContext = NULL_CONTEXT,
    ) -> GuardrailReport:
        """Validate *answer*; stop at the first guardrail that fires."""
        trace = ctx.trace
        verdicts: list[GuardrailVerdict] = []
        for guardrail in self._guardrails:
            with trace.span(spans.guardrail_stage(guardrail.name)) as span:
                verdict = guardrail.check(question, answer, context)
                span.set("passed", verdict.passed)
                if verdict.score is not None:
                    span.set("score", round(verdict.score, 4))
            self._m_checks.labels(
                guardrail.name, "passed" if verdict.passed else "fired"
            ).inc()
            verdicts.append(verdict)
            if not verdict.passed:
                message = (
                    CLARIFICATION_TEXT if verdict.guardrail == "clarification" else APOLOGY_TEXT
                )
                return GuardrailReport(
                    passed=False,
                    fired=verdict.guardrail,
                    verdicts=tuple(verdicts),
                    user_message=message,
                )
        return GuardrailReport(passed=True, verdicts=tuple(verdicts))
