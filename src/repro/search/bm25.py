"""Okapi BM25 ranking (Robertson & Spärck Jones).

The scoring function of the full-text half of Hybrid Search (Section 4).
Implements the standard Lucene-compatible formulation:

    idf(t)       = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(d, q)  = Σ_t idf(t) · tf · (k1 + 1) / (tf + k1 · (1 - b + b · |d|/avgdl))

with the usual defaults k1 = 1.2, b = 0.75.  The scorer works against a
single :class:`~repro.search.inverted.InvertedIndex`; multi-field scoring
with per-field boosts (Azure "scoring profiles") is composed one level up in
:mod:`repro.search.fulltext`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs.work import WORK_DOCS_SCORED, WORK_POSTINGS_SCANNED, WORK_SEGMENTS_TOUCHED
from repro.search.inverted import InvertedIndex
from repro.search.kernels import KernelView


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


class Bm25Scorer:
    """Scores an analyzed query against one inverted index.

    Two formulations of the same arithmetic:

    * :meth:`score_arrays` — the serving path: contiguous postings arrays
      (:mod:`repro.search.kernels`) scored term-at-a-time with vectorized
      numpy;
    * :meth:`score_all` / :meth:`score_all_explained` — the per-term loop,
      doc-at-a-time in pure Python.  It serves explain requests (the only
      path that needs per-term contributions) and is the reference the
      tests hold :meth:`score_arrays` bit-identical to.

    *index* may be a plain :class:`~repro.search.inverted.InvertedIndex`,
    a segmented field view, or a cluster view with global statistics —
    anything exposing the reader surface (``postings`` /
    ``document_length`` / ``document_frequency`` / ``average_length`` /
    ``__len__`` / ``kernel_views``).
    """

    def __init__(self, index: InvertedIndex, parameters: Bm25Parameters | None = None) -> None:
        self._index = index
        self._parameters = parameters or Bm25Parameters()

    def idf(self, term: str) -> float:
        """Lucene-style lower-bounded inverse document frequency of *term*."""
        return self._idf(term, len(self._index))

    def _idf(self, term: str, n: int) -> float:
        """:meth:`idf` for a collection of *n* documents."""
        if n == 0:
            return 0.0
        df = self._index.document_frequency(term)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def _score_loop(
        self, query_terms: list[str], per_term: dict[int, dict[str, float]] | None, work
    ) -> dict[int, float]:
        """The doc-at-a-time loop; fills *per_term* when one is passed."""
        parameters = self._parameters
        average_length = self._index.average_length or 1.0
        scores: dict[int, float] = {}
        scanned = 0
        for term in query_terms:
            postings = self._index.postings(term)
            if not postings:
                continue
            scanned += len(postings)
            idf = self.idf(term)
            for doc_id, tf in postings.items():
                length_norm = 1.0 - parameters.b + parameters.b * (
                    self._index.document_length(doc_id) / average_length
                )
                contribution = idf * tf * (parameters.k1 + 1.0) / (tf + parameters.k1 * length_norm)
                scores[doc_id] = scores.get(doc_id, 0.0) + contribution
                if per_term is not None:
                    breakdown = per_term.setdefault(doc_id, {})
                    breakdown[term] = breakdown.get(term, 0.0) + contribution
        if work is not None:
            if scanned:
                work.add(WORK_POSTINGS_SCANNED, scanned)
            if scores:
                work.add(WORK_DOCS_SCORED, len(scores))
        return scores

    def score_all(self, query_terms: list[str], work=None) -> dict[int, float]:
        """BM25 scores of every document matching at least one query term.

        *work* is an optional :class:`~repro.obs.work.WorkCounters`; the
        loop books ``postings_scanned`` and ``docs_scored`` itself.
        """
        return self._score_loop(query_terms, None, work)

    def score_all_explained(
        self, query_terms: list[str], work=None
    ) -> tuple[dict[int, float], dict[int, dict[str, float]]]:
        """Like :meth:`score_all`, plus a per-term contribution breakdown.

        Returns ``(scores, per_term)`` where ``per_term[doc_id][term]`` is
        the summed BM25 contribution of *term* to that document (repeated
        query terms accumulate, exactly as in :meth:`score_all`).  Both
        run the same loop, so the ``scores`` half is bitwise-identical to
        the non-explained path; the per-term sums equal the total up to
        floating-point reassociation when a term repeats in the analyzed
        query.
        """
        per_term: dict[int, dict[str, float]] = {}
        return self._score_loop(query_terms, per_term, work), per_term

    def _term_sequence(self, query_terms: list[str]) -> list[tuple[str, float]]:
        """The analyzed query as ``(term, idf)`` pairs, repeats preserved."""
        # One len() per query: on a cluster view it is a sum over every
        # shard's segments.
        n = len(self._index)
        idf_cache: dict[str, float] = {}
        sequence: list[tuple[str, float]] = []
        for term in query_terms:
            idf = idf_cache.get(term)
            if idf is None:
                idf = idf_cache[term] = self._idf(term, n)
            sequence.append((term, idf))
        return sequence

    def score_arrays(
        self, query_terms: list[str], work=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized equivalent of :meth:`score_all`, as parallel arrays.

        Returns ``(doc_ids, scores)`` covering every live document matching
        at least one query term.  The id→score mapping is bit-identical to
        the :meth:`score_all` dict: contributions are accumulated
        term-at-a-time in analyzed-query order with the loop scorer's exact
        operator sequence (see :mod:`repro.search.kernels`).
        """
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        views: list[KernelView] = self._index.kernel_views()
        if not views:
            return empty
        if work is not None:
            work.add(WORK_SEGMENTS_TOUCHED, len(views))
        sequence = self._term_sequence(query_terms)
        k1, b = self._parameters.k1, self._parameters.b
        average_length = self._index.average_length or 1.0
        id_parts: list[np.ndarray] = []
        score_parts: list[np.ndarray] = []
        scored = 0
        for view in views:
            acc, touched = view.kernel.accumulate_bm25(
                sequence, k1, b, average_length, work=work
            )
            slots = view.live_slots(np.nonzero(touched)[0])
            if slots.size:
                scored += int(slots.size)
                id_parts.append(view.kernel.doc_ids[slots])
                score_parts.append(acc[slots])
        if work is not None and scored:
            work.add(WORK_DOCS_SCORED, scored)
        if not id_parts:
            return empty
        return np.concatenate(id_parts), np.concatenate(score_parts)
