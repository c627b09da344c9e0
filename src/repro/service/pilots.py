"""Pilot phase simulations (Section 8).

Re-creates the three pre-deployment test phases as executable scenarios:

* **Phase 1** — 200 SMEs for 2 months, 6 000 questions, ~3 000 feedbacks.
  Two releases: release 1 ships a guardrail **bug** (the ROUGE check
  compares the answer against only the *first* context chunk instead of
  taking the max over all chunks), inflating triggers to ~25%; release 2
  fixes it, lifting proper-answer rate to ~90%.  SMEs start with their old
  keyword habit and are trained mid-phase.
* **Phase 2** — 500 branch users for 1 month, trained in advance,
  > 11 000 feedbacks, ~91% proper answers and a peak 84% positive.
* **UAT** — the composed 210-question dataset, reviewed against ground
  truth: % correct answers, % guardrails triggered successfully, and
  % guardrails improperly triggered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.corpus.queries import KIND_OUT_OF_SCOPE, LabeledQuery, UatDataset
from repro.core.engine import UniAskEngine
from repro.guardrails.base import GuardrailVerdict
from repro.guardrails.citation import CitationGuardrail
from repro.guardrails.clarification import ClarificationGuardrail
from repro.guardrails.pipeline import GuardrailPipeline
from repro.guardrails.rouge import RougeGuardrail
from repro.search.results import RetrievedChunk
from repro.service.backend import BackendService
from repro.service.users import SimulatedUser


class BuggyRougeGuardrail(RougeGuardrail):
    """The release-1 bug: ROUGE computed against the first chunk only.

    Taking a single chunk instead of the max over the context makes the
    guardrail fire whenever the answer happens to be grounded in any other
    chunk — exactly the kind of inflation the paper attributes to "a bug
    that we fixed for the second release".
    """

    def similarity(self, answer: str, context: list[RetrievedChunk]) -> float:
        if not context:
            return 0.0
        from repro.text.similarity import rouge_l

        return rouge_l(answer, context[0].record.content)


def buggy_guardrail_pipeline(threshold: float | None = None) -> GuardrailPipeline:
    """The guardrail stack as shipped in Phase 1 release 1."""
    rouge = BuggyRougeGuardrail() if threshold is None else BuggyRougeGuardrail(threshold)
    return GuardrailPipeline([CitationGuardrail(), rouge, ClarificationGuardrail()])


@dataclass(frozen=True)
class ReleaseReport:
    """Aggregate results of one release within a pilot phase."""

    questions: int
    proper_answers: int
    guardrails_triggered: int
    feedbacks: int
    positive_feedbacks: int

    @property
    def proper_answer_rate(self) -> float:
        """Share of questions answered with citations (not guardrailed)."""
        return self.proper_answers / self.questions if self.questions else 0.0

    @property
    def positive_rate(self) -> float:
        """Share of positive feedbacks among collected feedbacks."""
        return self.positive_feedbacks / self.feedbacks if self.feedbacks else 0.0


@dataclass(frozen=True)
class PhaseReport:
    """One pilot phase: its per-release reports."""

    releases: tuple[ReleaseReport, ...]


def run_release(
    backend: BackendService,
    users: list[SimulatedUser],
    questions: list[LabeledQuery],
    seed: int = 5,
) -> ReleaseReport:
    """Play *questions* through *backend* with *users*, collecting feedback."""
    rng = random.Random(seed)
    proper = 0
    guardrails = 0
    feedbacks = 0
    positive = 0
    tokens = {user.user_id: backend.login(user.user_id) for user in users}

    for query in questions:
        user = users[rng.randrange(len(users))]
        text = user.phrase_question(query)
        record = backend.serve(tokens[user.user_id], text)
        if record.answer.answered:
            proper += 1
        elif record.answer.guardrail_fired:
            guardrails += 1
        feedback = user.maybe_give_feedback(record, query)
        if feedback is not None:
            backend.feedback(tokens[user.user_id], feedback)
            feedbacks += 1
            if feedback.positive:
                positive += 1

    return ReleaseReport(
        questions=len(questions),
        proper_answers=proper,
        guardrails_triggered=guardrails,
        feedbacks=feedbacks,
        positive_feedbacks=positive,
    )


# -- UAT ------------------------------------------------------------------------


@dataclass(frozen=True)
class UatReport:
    """Section 8 UAT summary."""

    total: int
    correct_answers: int
    guardrails_expected: int
    guardrails_correct: int
    guardrails_improper: int

    @property
    def correct_rate(self) -> float:
        """Share of correct answers over in-scope questions."""
        in_scope = self.total - self.guardrails_expected
        return self.correct_answers / in_scope if in_scope else 0.0

    @property
    def guardrail_success_rate(self) -> float:
        """Share of expected guardrail triggers that did fire."""
        if not self.guardrails_expected:
            return 0.0
        return self.guardrails_correct / self.guardrails_expected

    @property
    def improper_guardrail_rate(self) -> float:
        """Share of in-scope questions improperly blocked."""
        in_scope = self.total - self.guardrails_expected
        return self.guardrails_improper / in_scope if in_scope else 0.0


def run_uat(engine: UniAskEngine, dataset: UatDataset) -> UatReport:
    """Run the UAT questions and score them against ground truth.

    A *correct answer* is an accepted answer citing at least one
    ground-truth document (for questions with known relevant documents) or
    any accepted grounded answer (for SME free-form questions).  For
    out-of-scope questions the *expected* behaviour is a guardrail/refusal.
    """
    correct = 0
    expected_guardrails = 0
    guardrails_correct = 0
    improper = 0

    for query in dataset.all_queries:
        answer = engine.answer(query.text).answer
        if query.kind == KIND_OUT_OF_SCOPE:
            expected_guardrails += 1
            if not answer.answered:
                guardrails_correct += 1
            continue
        if answer.answered:
            if query.relevant_docs:
                cited_docs = {citation.doc_id for citation in answer.citations}
                if cited_docs & query.relevant_docs:
                    correct += 1
            else:
                correct += 1
        elif answer.guardrail_fired:
            improper += 1

    return UatReport(
        total=len(dataset.all_queries),
        correct_answers=correct,
        guardrails_expected=expected_guardrails,
        guardrails_correct=guardrails_correct,
        guardrails_improper=improper,
    )
