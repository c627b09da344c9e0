"""Cache-key normalization.

Two questions that differ only in casing, punctuation, stop words or
inflection ("Come sblocco la carta?" vs "come sbloccare le carte") retrieve
the same chunks and generate near-identical answers, so the answer cache
keys on the **analyzer-normalized term sequence** rather than the raw
string — the same normalization authority (:mod:`repro.text.analyzer`) the
inverted index and the reranker already share.  Filters participate in the
key as a sorted tuple: the same question under different metadata filters
is a different request.

The index epoch is deliberately *not* part of the stored key: entries are
stamped with the epoch they were computed at and validated against the
current epoch on lookup, so a corpus write invalidates stale entries
lazily without rehashing the whole cache.
"""

from __future__ import annotations

from typing import Mapping

#: An answer-cache key: (normalized question terms, sorted filter items).
CacheKey = tuple[tuple[str, ...], tuple[tuple[str, str], ...]]


def filters_key(filters: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    """Order-insensitive canonical form of a filter mapping."""
    if not filters:
        return ()
    return tuple(sorted(filters.items()))


def answer_cache_key(question: str, filters: Mapping[str, str] | None, analyzer) -> CacheKey:
    """The exact-tier cache key of *question* under *filters*.

    *analyzer* is any object with an ``analyze(text) -> list[str]``
    method (an :class:`~repro.text.analyzer.ItalianAnalyzer` in
    production).  A question whose analysis is empty (all stop words)
    falls back to its whitespace-normalized lower-cased surface so that
    distinct degenerate questions do not collide on the empty key.
    """
    terms = tuple(analyzer.analyze(question))
    if not terms:
        terms = tuple(question.lower().split())
    return (terms, filters_key(filters))


def retrieval_cache_key(
    query: str,
    filters: Mapping[str, str] | None,
    mode: str,
    text_n: int,
    vector_k: int,
) -> tuple:
    """The per-shard retrieval-cache key of one scatter leg.

    Keyed on the **raw** query string (retrieval is surface-sensitive:
    BM25 and the embedder both see the raw text) plus the leg-shaping
    retrieval parameters, so a config change never serves stale shapes.
    """
    return (query, filters_key(filters), mode, text_n, vector_k)
