"""LLM metadata enrichment.

Section 3: "We augment the metadata generating via LLM a *summary* of the
whole document and a list of *keywords*."  The enrichment step runs inside
the indexing service, once per (re)indexed document, and its outputs become
the ``summary`` (searchable, retrievable) field of every chunk and the
optional ``llm_keywords`` field used by the Table 4 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.base import ChatCompletionClient
from repro.llm.prompts import build_keywords_prompt, build_summary_prompt


def extract_llm_keywords(
    llm: ChatCompletionClient, title: str, content: str | None = None
) -> tuple[str, ...]:
    """Ask the LLM for comma-separated keywords of a document: from the
    title only (HSS-KT) when *content* is None, else from title and content
    (HSS-KTC)."""
    response = llm.complete(build_keywords_prompt(title, content), max_tokens=64)
    return tuple(part.strip() for part in response.content.split(",") if part.strip())


@dataclass(frozen=True)
class DocumentEnrichment:
    """The LLM-generated metadata of one document."""

    summary: str
    keywords: tuple[str, ...]


class MetadataEnricher:
    """Generates the summary + keyword metadata via the chat LLM."""

    def __init__(self, llm: ChatCompletionClient, keyword_variant: str = "none") -> None:
        if keyword_variant not in ("none", "kt", "ktc"):
            raise ValueError("keyword_variant must be 'none', 'kt' or 'ktc'")
        self._llm = llm
        self._keyword_variant = keyword_variant

    def enrich(self, title: str, text: str) -> DocumentEnrichment:
        """Summarize the whole document and optionally extract keywords."""
        summary_response = self._llm.complete(build_summary_prompt(title, text), max_tokens=96)

        variant = self._keyword_variant
        content = text if variant == "ktc" else None
        keywords = () if variant == "none" else extract_llm_keywords(self._llm, title, content)
        return DocumentEnrichment(summary=summary_response.content, keywords=keywords)
