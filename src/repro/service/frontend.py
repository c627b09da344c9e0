"""Frontend service.

Section 3: "The FrontEnd service provides an interface users can interact
with.  It exposes a search box to query the engine and a feedback form
where the user can provide information about the answer quality."

The in-process equivalent renders the result page as text (answer block
with resolved citations, the retrieved document list that stays visible
even when a guardrail fires, and the granular feedback modal of Section 8)
and forwards submitted forms to the backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.types import AskRequest
from repro.core.answer import UniAskAnswer
from repro.service.backend import BackendService, QueryRecord
from repro.service.feedback import GranularFeedback
from repro.text.analyzer import FULL_ANALYZER
from repro.text.tokenizer import sentence_split, word_tokenize

#: How many documents the result page lists under the answer.
RESULT_LIST_SIZE = 10

#: How many listed documents get a highlighted snippet.
SNIPPET_COUNT = 3


def highlight_snippet(query: str, content: str, max_length: int = 160) -> str:
    """The content sentence that best matches *query*, with terms marked.

    Matching happens at the analyzer (stem) level, so inflected forms
    highlight too; matched words are wrapped in «guillemets», the
    convention of the original frontend.
    """
    query_terms = FULL_ANALYZER.analyze_unique(query)
    if not query_terms:
        return content[:max_length]

    best_sentence = ""
    best_hits = -1
    for sentence in sentence_split(content):
        hits = len(FULL_ANALYZER.analyze_unique(sentence) & query_terms)
        if hits > best_hits:
            best_sentence, best_hits = sentence, hits

    marked_words = []
    for word in best_sentence.split():
        tokens = FULL_ANALYZER.analyze_unique(" ".join(word_tokenize(word)))
        if tokens & query_terms:
            marked_words.append(f"«{word}»")
        else:
            marked_words.append(word)
    snippet = " ".join(marked_words)
    if len(snippet) > max_length:
        snippet = snippet[: max_length - 1].rsplit(" ", 1)[0] + "…"
    return snippet


@dataclass(frozen=True)
class FeedbackForm:
    """The granular feedback modal, pre-bound to a served query."""

    query_id: str
    user_id: str

    def submit(
        self,
        helpful: bool,
        retrieved_relevant: bool,
        rating: int,
        links: tuple[str, ...] = (),
        comments: str = "",
    ) -> GranularFeedback:
        """Build the feedback payload from the form fields."""
        return GranularFeedback(
            query_id=self.query_id,
            user_id=self.user_id,
            helpful=helpful,
            retrieved_relevant=retrieved_relevant,
            rating=rating,
            links=links,
            comments=comments,
        )


def render_answer_page(answer: UniAskAnswer) -> str:
    """Render one result page as the frontend displays it."""
    lines = [f"❓ {answer.question}", ""]
    if answer.answered:
        lines.append(answer.answer_text)
        if answer.citations:
            lines.append("")
            lines.append("Fonti:")
            for citation in answer.citations:
                lines.append(f"  [{citation.key}] {citation.title} ({citation.doc_id})")
    else:
        lines.append(f"⚠ {answer.answer_text}")

    if answer.documents:
        lines.append("")
        lines.append("Documenti trovati:")
        for position, chunk in enumerate(answer.documents[:RESULT_LIST_SIZE], start=1):
            lines.append(f"  {position:2d}. {chunk.record.title} ({chunk.doc_id})")
            if position <= SNIPPET_COUNT:
                snippet = highlight_snippet(answer.question, chunk.record.content)
                lines.append(f"      {snippet}")
    return "\n".join(lines)


class FrontendSession:
    """One logged-in user's view of UniAsk."""

    def __init__(self, backend: BackendService, user_id: str) -> None:
        self._backend = backend
        self._user_id = user_id
        self._token = backend.login(user_id)
        self._last_record: QueryRecord | None = None

    def search(self, question: str) -> str:
        """Type *question* into the search box; returns the rendered page."""
        self._last_record = self._backend.serve(self._token, AskRequest.of(question))
        return render_answer_page(self._last_record.answer)

    @property
    def last_answer(self) -> UniAskAnswer | None:
        """The raw answer behind the last rendered page."""
        return self._last_record.answer if self._last_record else None

    def feedback_form(self) -> FeedbackForm:
        """Open the feedback modal for the last answer."""
        if self._last_record is None:
            raise RuntimeError("no query has been made in this session")
        return FeedbackForm(query_id=self._last_record.query_id, user_id=self._user_id)

    def submit_feedback(self, form_payload: GranularFeedback) -> None:
        """Send a filled feedback form to the backend."""
        self._backend.feedback(self._token, form_payload)
