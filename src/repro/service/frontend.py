"""Frontend service.

Section 3: "The FrontEnd service provides an interface users can interact
with.  It exposes a search box to query the engine and a feedback form
where the user can provide information about the answer quality."

The in-process equivalent renders the result page as text: the answer
with resolved citations and the retrieved document list, which stays
visible when a guardrail fires.  Section 8's feedback form is a
``GranularFeedback`` sent to ``BackendService.feedback``.
"""

from __future__ import annotations

from repro.core.answer import UniAskAnswer
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
