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
from repro.search.bm25 import Bm25Parameters, Bm25Scorer, Bm25Statistics
from repro.search.index import SearchIndex
from repro.search.results import Heads


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


#: What :meth:`FullTextSearch.plan` makes of a question: per searchable
#: field that analyzes to something, the analyzed terms and the collection
#: statistics they score against.
TextPlan = dict[str, tuple[list[str], Bm25Statistics]]


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

    def plan(self, query: str) -> TextPlan:
        """Analyze *query* and read the collection statistics it scores against.

        Everything about a request that does not depend on which postings
        are walked.  The question is analyzed once: every searchable field
        shares the store's one analyzer.  :meth:`search` builds a plan
        itself; a cluster router takes it once from the global-statistics
        view of any shard and hands it to every shard's :meth:`search` (all
        shards share one analyzer and one schema).
        """
        plan: TextPlan = {}
        terms: list[str] | None = None
        for field_name in self._fields:
            inverted = self._index.inverted_index(field_name)
            if terms is None:
                terms = inverted.analyze_query(query)
                if not terms:
                    break
            scorer = Bm25Scorer(inverted, self._parameters)
            plan[field_name] = (terms, scorer.statistics(terms))
        return plan

    def search(
        self,
        query: str,
        n: int = 50,
        filters: dict[str, str] | None = None,
        ctx: RequestContext = NULL_CONTEXT,
        plan: TextPlan | None = None,
    ) -> Heads:
        """The top-*n* internal ids for *query* by profile-weighted BM25, as heads.

        *plan* is :meth:`plan` of *query* when the caller already holds it.

        Per-field kernel scores land in a dense accumulator indexed by
        internal id, added field-by-field — each document's combined score
        is one fixed sequence of ``+= weight * score`` additions.
        Liveness/filter checks come *after* combination (scores of distinct
        documents are independent, so late masking changes nothing), which
        keeps the hot loop free of per-document Python calls.

        Only an explain request (``ctx.explain``) gets provenance: for the
        ids a fetch asks for, the per-field BM25 score (``bm25_<field>``)
        and each analyzed term's raw (unweighted) contribution
        (``bm25_<field>:<term>``).
        """
        with ctx.span(spans.STAGE_FULLTEXT, n=n) as span:
            field_results: list[
                tuple[str, float, np.ndarray, np.ndarray, Bm25Scorer]
            ] = []
            max_internal = -1
            if n <= 0:
                plan = {}  # scores nothing
            elif plan is None:
                plan = self.plan(query)
            for field_name, (terms, statistics) in plan.items():
                scorer = Bm25Scorer(self._index.inverted_index(field_name), self._parameters)
                ids, scores = scorer.score_arrays(terms, work=ctx.work, statistics=statistics)
                if ids.size:
                    weight = self._profile.weight(field_name)
                    field_results.append((field_name, weight, ids, scores, scorer))
                    max_internal = max(max_internal, int(ids.max()))
            combined = np.zeros(max_internal + 1, dtype=np.float64)
            touched = np.zeros(max_internal + 1, dtype=bool)
            for _, weight, ids, scores, _ in field_results:
                combined[ids] += weight * scores
                touched[ids] = True
            candidates = np.nonzero(touched)[0]
            ranked = np.lexsort((candidates, -combined[candidates]))
            selected: list[int] = []
            for internal in map(int, candidates[ranked]):
                if self._index.is_live(internal) and self._index.matches_filters(internal, filters):
                    selected.append(internal)
                    if len(selected) == n:
                        break
            span.set("results", len(selected))
        ids = np.array(selected, dtype=np.int64)

        def provenance(keys: list[int]) -> dict[int, dict[str, float]]:
            asked = np.array(keys, dtype=np.int64)
            chosen = np.zeros(max_internal + 1, dtype=bool)
            chosen[asked] = True
            per_field: dict[int, dict[str, float]] = {key: {} for key in keys}
            for field_name, _, ids, scores, scorer in field_results:
                key = f"bm25_{field_name}"  # one string per field, shared by every breakdown
                mask = chosen[ids]
                terms, statistics = plan[field_name]
                per_term = scorer.term_contributions(terms, asked, statistics)
                for internal, score in zip(ids[mask].tolist(), scores[mask].tolist()):
                    breakdown = per_field[internal]
                    breakdown[key] = score
                    for term, contribution in per_term[internal].items():
                        breakdown[f"{key}:{term}"] = contribution
            return per_field

        return Heads(ids, combined[ids], self._index, explain=provenance if ctx.explain else None)
