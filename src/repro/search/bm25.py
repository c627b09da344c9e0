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

import numpy as np

from repro.obs.work import WORK_DOCS_SCORED, WORK_SEGMENTS_TOUCHED
from repro.search.inverted import InvertedIndex
from repro.search.kernels import KernelView, bm25_scores


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
    """Scores an analyzed query against one field's postings.

    :meth:`score_arrays` ranks: contiguous postings arrays
    (:mod:`repro.search.kernels`) of every view scored in one vectorized
    pass.  :meth:`term_contributions` explains: it re-evaluates the same
    arrays for a handful of already-ranked documents, term by term.

    *index* may be a plain :class:`~repro.search.inverted.InvertedIndex`,
    a segmented field view, or a cluster view with global statistics —
    anything exposing the reader surface (``__len__`` /
    ``document_frequency`` / ``average_length`` / ``kernel_views`` /
    ``analyze_query``).
    """

    def __init__(self, index: InvertedIndex, parameters: Bm25Parameters | None = None) -> None:
        self._index = index
        self._parameters = parameters or Bm25Parameters()

    def idf(self, term: str) -> float:
        """Lucene-style lower-bounded inverse document frequency of *term*."""
        return self.statistics([term]).term_idfs[0][1]

    def statistics(self, query_terms: list[str]) -> Bm25Statistics:
        """The collection statistics *query_terms* score against.

        The only reader of ``len(index)``, ``document_frequency`` and
        ``average_length``: each is read once per call (per distinct term
        for the document frequency) — on a cluster view every one of them
        is a sum over every shard's segments.
        """
        n = len(self._index)
        idfs = dict.fromkeys(query_terms, 0.0)  # an empty collection scores nothing
        if n:
            for term in idfs:
                df = self._index.document_frequency(term)
                idfs[term] = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        return Bm25Statistics(
            term_idfs=tuple((term, idfs[term]) for term in query_terms),
            average_length=self._index.average_length or 1.0,
        )

    def score_arrays(
        self, query_terms: list[str], work=None, statistics: Bm25Statistics | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """BM25 scores of every live document matching a query term.

        Returns parallel ``(doc_ids, scores)`` arrays from one
        :func:`~repro.search.kernels.bm25_scores` pass over every view,
        bit-identical to ``tests/reference_bm25.py``.

        *statistics* are :meth:`statistics` of *query_terms* when the
        caller already holds them; the index's statistics are then not
        read.  *work* is an optional :class:`~repro.obs.work.WorkCounters`.
        """
        views: list[KernelView] = self._index.kernel_views()
        if work is not None and views:
            work.add(WORK_SEGMENTS_TOUCHED, len(views))
        if statistics is None:
            statistics = self.statistics(query_terms)
        ids, scores = self._scores(views, statistics.term_idfs, statistics.average_length, work)
        if work is not None and ids.size:
            work.add(WORK_DOCS_SCORED, ids.size)
        return ids, scores

    def term_contributions(
        self,
        query_terms: list[str],
        doc_ids: np.ndarray,
        statistics: Bm25Statistics | None = None,
    ) -> dict[int, dict[str, float]]:
        """Each analyzed term's share of the scores of *doc_ids* (explain).

        ``result[doc_id][term]`` is the summed BM25 contribution of *term*
        to that (live) document, terms keyed in query order of their first
        match.  Each distinct term is scored alone by the pass
        :meth:`score_arrays` ranks with, once per occurrence in the query,
        so a repeated term accumulates by repeated addition and the
        per-term values sum to the score up to float reassociation.
        *statistics* as in :meth:`score_arrays`: handed the value the
        ranking was scored with, the explanation cannot disagree with it.
        Books no work: explaining a request must not change what it cost.
        """
        if statistics is None:
            statistics = self.statistics(query_terms)
        views = self._index.kernel_views()
        occurrences = Counter(term for term, _ in statistics.term_idfs)
        per_term: dict[int, dict[str, float]] = {}
        for term, idf in dict(statistics.term_idfs).items():
            repeats = [(term, idf)] * occurrences[term]
            ids, scores = self._scores(views, repeats, statistics.average_length)
            keep = np.isin(ids, doc_ids)
            for doc_id, value in zip(ids[keep].tolist(), scores[keep].tolist()):
                per_term.setdefault(doc_id, {})[term] = value
        return per_term

    def _scores(self, views, term_idfs, average_length: float, work=None):
        k1, b = self._parameters.k1, self._parameters.b
        return bm25_scores(views, term_idfs, k1, b, average_length, work)
