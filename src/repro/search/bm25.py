"""Okapi BM25 ranking (Robertson & Spärck Jones).

The scoring function of the full-text half of Hybrid Search (Section 4).
Implements the standard Lucene-compatible formulation:

    idf(t)       = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(d, q)  = Σ_t idf(t) · tf · (k1 + 1) / (tf + k1 · (1 - b + b · |d|/avgdl))

with the usual defaults k1 = 1.2, b = 0.75.  The scorer works against one
field's postings reader; multi-field scoring with per-field boosts (Azure
"scoring profiles") is composed one level up in
:mod:`repro.search.fulltext`.  This is the only BM25 implementation in
``src/``: the doc-at-a-time Python loop it is held bit-identical to lives in
``tests/reference_bm25.py``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs.work import WORK_DOCS_SCORED, WORK_SEGMENTS_TOUCHED
from repro.search.inverted import InvertedIndex
from repro.search.kernels import bm25_scores


@dataclass(frozen=True)
class Bm25Parameters:
    """BM25 free parameters."""

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must lie in [0, 1]")


@dataclass(frozen=True)
class Bm25Statistics:
    """The collection statistics one analyzed query scores against.

    Everything BM25 needs from the *collection* (as opposed to the postings
    it walks): computed once by :meth:`Bm25Scorer.statistics` and handed to
    any number of scorers — on a cluster the router takes them from the
    global view once per request and every shard leg scores against the
    same value (query-then-fetch).

    Attributes:
        term_idfs: the analyzed query as ``(term, idf)`` pairs, in query
            order with repeats preserved.
        average_length: mean field length, 1.0 for an empty collection.
    """

    term_idfs: tuple[tuple[str, float], ...]
    average_length: float


class Bm25Scorer:
    """Reads one field's collection statistics and explains its scores.

    Ranking is :func:`score_fields`, every field of a request in one
    kernel pass; :meth:`term_contributions` re-evaluates the same arrays
    for a handful of already-ranked documents, term by term.

    *index* may be a plain :class:`~repro.search.inverted.InvertedIndex`,
    a segmented field view, or a cluster view with global statistics —
    anything exposing the reader surface (``__len__`` /
    ``document_frequencies`` / ``average_length`` / ``kernel_views`` /
    ``analyze_query``).
    """

    def __init__(self, index: InvertedIndex, parameters: Bm25Parameters | None = None) -> None:
        self._index = index
        self._parameters = parameters or Bm25Parameters()

    def statistics(self, query_terms: list[str]) -> Bm25Statistics:
        """The collection statistics *query_terms* score against.

        The only reader of ``len(index)``, ``document_frequencies`` (every
        distinct term in one call) and ``average_length``, each read once —
        on a cluster view every one of them is a sum over every shard.
        """
        n = len(self._index)
        idfs = dict.fromkeys(query_terms, 0.0)  # an empty collection scores nothing
        if n:
            terms = list(idfs)
            for term, df in zip(terms, self._index.document_frequencies(terms)):
                idfs[term] = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        return Bm25Statistics(
            term_idfs=tuple((term, idfs[term]) for term in query_terms),
            average_length=self._index.average_length or 1.0,
        )

    def term_contributions(
        self,
        query_terms: list[str],
        doc_ids: np.ndarray,
        statistics: Bm25Statistics | None = None,
    ) -> dict[int, dict[str, float]]:
        """Each analyzed term's share of the scores of *doc_ids* (explain).

        ``result[doc_id][term]`` is the summed BM25 contribution of *term*
        to that (live) document, terms keyed in query order of their first
        match.  Each distinct term is its own group of the kernel pass
        :func:`score_fields` ranks with, once per occurrence in the query,
        so a repeated term accumulates by repeated addition and the
        per-term values sum to the score up to float reassociation.
        *statistics* as in :func:`score_fields`: handed the value the
        ranking was scored with, the explanation cannot disagree with it.
        Books no work: explaining a request must not change what it cost.
        """
        if statistics is None:
            statistics = self.statistics(query_terms)
        views = self._index.kernel_views()
        occurrences = Counter(term for term, _ in statistics.term_idfs)
        distinct = dict(statistics.term_idfs)
        groups = [
            (views, [(term, idf)] * occurrences[term], statistics.average_length)
            for term, idf in distinct.items()
        ]
        scored = bm25_scores(groups, self._parameters.k1, self._parameters.b)
        per_term: dict[int, dict[str, float]] = {}
        for term, (ids, scores) in zip(distinct, scored):
            keep = np.isin(ids, doc_ids)
            for doc_id, value in zip(ids[keep].tolist(), scores[keep].tolist()):
                per_term.setdefault(doc_id, {})[term] = value
        return per_term


def score_fields(
    fields: Sequence[tuple[InvertedIndex, Bm25Statistics]],
    parameters: Bm25Parameters | None = None,
    work=None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """BM25 scores of every live document matching a query term, per field.

    *fields* pairs each field's reader with the :meth:`Bm25Scorer
    .statistics` its query scores against; one
    :func:`~repro.search.kernels.bm25_scores` pass returns each field's
    ``(doc_ids, scores)``, bit-identical to ``tests/reference_bm25.py`` on
    that field alone.  *work* (an optional
    :class:`~repro.obs.work.WorkCounters`) is booked ``segments_touched``,
    ``postings_scanned`` and ``docs_scored``, summed over the fields.
    """
    parameters = parameters or Bm25Parameters()
    groups = [(reader.kernel_views(), s.term_idfs, s.average_length) for reader, s in fields]
    segments = sum(len(views) for views, _, _ in groups)
    if work is not None and segments:
        work.add(WORK_SEGMENTS_TOUCHED, segments)
    results = bm25_scores(groups, parameters.k1, parameters.b, work)
    scored = sum(ids.size for ids, _ in results)
    if work is not None and scored:
        work.add(WORK_DOCS_SCORED, scored)
    return results
