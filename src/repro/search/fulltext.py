"""Full-text search executor with scoring profiles.

The text half of Hybrid Search (Section 4): the query is analyzed with the
Italian analyzer and scored with Okapi BM25 against every searchable field;
per-field scores combine through a *scoring profile* — multiplicative field
weights, the mechanism the paper uses for the title-boost experiments of
Table 3 (T ∈ {5, 50, 500}).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import spans
from repro.obs.trace import NULL_CONTEXT, RequestContext
from repro.search.bm25 import Bm25Parameters, Bm25Scorer
from repro.search.index import SearchIndex
from repro.search.results import RetrievedChunk


@dataclass(frozen=True)
class ScoringProfile:
    """Multiplicative per-field weights applied to BM25 scores.

    Fields missing from ``weights`` default to 1.0.  ``title_boost(T)``
    builds the Table 3 profiles.
    """

    weights: dict[str, float] = field(default_factory=dict)

    def weight(self, field_name: str) -> float:
        """The boost applied to *field_name* (1.0 when unspecified)."""
        return self.weights.get(field_name, 1.0)

    @staticmethod
    def title_boost(factor: float) -> "ScoringProfile":
        """Profile boosting term matches on the document title by *factor*."""
        return ScoringProfile(weights={"title": factor})


class FullTextSearch:
    """BM25 search across the searchable fields of a :class:`SearchIndex`."""

    def __init__(
        self,
        index: SearchIndex,
        profile: ScoringProfile | None = None,
        parameters: Bm25Parameters | None = None,
        search_fields: tuple[str, ...] | None = None,
    ) -> None:
        self._index = index
        self._profile = profile or ScoringProfile()
        self._parameters = parameters or Bm25Parameters()
        self._fields = search_fields or index.schema.searchable_fields

    def search(
        self,
        query: str,
        n: int = 50,
        filters: dict[str, str] | None = None,
        ctx: RequestContext = NULL_CONTEXT,
    ) -> list[RetrievedChunk]:
        """Top-*n* chunks for *query* by profile-weighted BM25."""
        with ctx.span(spans.STAGE_FULLTEXT, n=n) as span:
            if n <= 0:
                results = []
            elif ctx.explain:
                results = self._search_explained(query, n, filters, work=ctx.work)
            else:
                results = self._search_kernel(query, n, filters, work=ctx.work)
            span.set("results", len(results))
        return results

    def _search_explained(
        self, query: str, n: int, filters: dict[str, str] | None, work=None
    ) -> list[RetrievedChunk]:
        """The explain request: the per-term loop scorer, field by field.

        Same scores and order as :meth:`_search_kernel` (the tests hold the
        two bit-identical); the loop is kept because it is the only path
        that yields each term's contribution.
        """
        combined: dict[int, float] = {}
        per_field: dict[int, dict[str, float]] = {}
        for field_name in self._fields:
            inverted = self._index.inverted_index(field_name)
            terms = inverted.analyze_query(query)
            if not terms:
                continue
            scorer = Bm25Scorer(inverted, self._parameters)
            weight = self._profile.weight(field_name)
            scores, per_term = scorer.score_all_explained(terms, work=work)
            for internal, score in scores.items():
                if not self._index.is_live(internal):
                    continue
                if not self._index.matches_filters(internal, filters):
                    continue
                combined[internal] = combined.get(internal, 0.0) + weight * score
                breakdown = per_field.setdefault(internal, {})
                breakdown[f"bm25_{field_name}"] = score
                # Per-term contributions of this field's BM25 score, raw
                # (unweighted), keyed `bm25_<field>:<term>` for explain.
                for term, contribution in per_term.get(internal, {}).items():
                    breakdown[f"bm25_{field_name}:{term}"] = contribution

        ranked = sorted(combined.items(), key=lambda pair: (-pair[1], pair[0]))[:n]
        return [
            RetrievedChunk(
                record=self._index.record(internal),
                score=score,
                components=per_field.get(internal, {}),
            )
            for internal, score in ranked
        ]

    def _search_kernel(
        self, query: str, n: int, filters: dict[str, str] | None, work=None
    ) -> list[RetrievedChunk]:
        """The serving path: vectorized multi-field scoring.

        Per-field kernel scores land in a dense accumulator indexed by
        internal id, added field-by-field in the same order as the explain
        loop — each document's combined score is therefore the same
        sequence of ``+= weight * score`` additions, hence the same bits.
        Liveness/filter checks move *after* combination (scores of distinct
        documents are independent, so late masking changes nothing), which
        keeps the hot loop free of per-document Python calls.
        """
        field_results: list[tuple[str, float, np.ndarray, np.ndarray]] = []
        max_internal = -1
        for field_name in self._fields:
            inverted = self._index.inverted_index(field_name)
            terms = inverted.analyze_query(query)
            if not terms:
                continue
            scorer = Bm25Scorer(inverted, self._parameters)
            ids, scores = scorer.score_arrays(terms, work=work)
            if ids.size:
                weight = self._profile.weight(field_name)
                field_results.append((field_name, weight, ids, scores))
                max_internal = max(max_internal, int(ids.max()))
        if max_internal < 0:
            return []
        combined = np.zeros(max_internal + 1, dtype=np.float64)
        touched = np.zeros(max_internal + 1, dtype=bool)
        for _, weight, ids, scores in field_results:
            combined[ids] += weight * scores
            touched[ids] = True
        candidates = np.nonzero(touched)[0]
        ranked = np.lexsort((candidates, -combined[candidates]))
        selected: list[tuple[int, float]] = []
        for position in ranked:
            internal = int(candidates[position])
            if not self._index.is_live(internal):
                continue
            if not self._index.matches_filters(internal, filters):
                continue
            selected.append((internal, float(combined[internal])))
            if len(selected) == n:
                break
        if not selected:
            return []
        selected_ids = np.array([internal for internal, _ in selected], dtype=np.int64)
        per_field: dict[int, dict[str, float]] = {}
        for field_name, _, ids, scores in field_results:
            mask = np.isin(ids, selected_ids)
            for internal, score in zip(ids[mask], scores[mask]):
                per_field.setdefault(int(internal), {})[f"bm25_{field_name}"] = float(score)
        return [
            RetrievedChunk(
                record=self._index.record(internal),
                score=score,
                components=per_field.get(internal, {}),
            )
            for internal, score in selected
        ]
