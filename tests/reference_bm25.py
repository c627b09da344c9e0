"""The per-term BM25 loop as it stood while ``src/`` still carried it (PR 18).

Test oracle only: :mod:`tests.test_search_kernels`,
:mod:`tests.test_search_inverted_bm25` and
:mod:`tests.test_search_sequence_oracle` build a plain
:class:`~repro.search.inverted.InvertedIndex` over the live documents, score
it with this class, and require the serving
:mod:`repro.search.bm25` (``score_fields`` for the ranking,
``Bm25Scorer.term_contributions`` for explain) to return the same ids, the
same float bits and the same per-term key order.  The bodies are the parent
commit's ``Bm25Scorer.idf`` / ``_score_loop`` / ``score_all`` /
``score_all_explained`` unchanged but for reading a document frequency
through ``document_frequencies``: doc-at-a-time, one dict lookup and a
handful of interpreted float operations per (term, document) pair.  Do not
optimise this file.
"""

from __future__ import annotations

import math

from repro.obs.work import WORK_DOCS_SCORED, WORK_POSTINGS_SCANNED
from repro.search.bm25 import Bm25Parameters
from repro.search.inverted import InvertedIndex


class ReferenceBm25Scorer:
    """Scores an analyzed query against one plain inverted index."""

    def __init__(self, index: InvertedIndex, parameters: Bm25Parameters | None = None) -> None:
        self._index = index
        self._parameters = parameters or Bm25Parameters()

    def idf(self, term: str) -> float:
        """Lucene-style lower-bounded inverse document frequency of *term*."""
        n = len(self._index)
        if n == 0:
            return 0.0
        [df] = self._index.document_frequencies([term])
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
        """BM25 scores of every document matching at least one query term."""
        return self._score_loop(query_terms, None, work)

    def score_all_explained(
        self, query_terms: list[str], work=None
    ) -> tuple[dict[int, float], dict[int, dict[str, float]]]:
        """Like :meth:`score_all`, plus a per-term contribution breakdown.

        Returns ``(scores, per_term)`` where ``per_term[doc_id][term]`` is
        the summed BM25 contribution of *term* to that document (repeated
        query terms accumulate, exactly as in :meth:`score_all`).
        """
        per_term: dict[int, dict[str, float]] = {}
        return self._score_loop(query_terms, per_term, work), per_term
