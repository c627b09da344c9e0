"""Retrieval evaluation harness.

Runs any retriever — production HSS, its ablations, the legacy engine, a
query-expansion variant — over a labeled query dataset and aggregates the
paper's metrics with the paper's conventions:

* metrics are computed at **document** granularity (chunk rankings are
  collapsed to their best chunk per document);
* dataset averages are taken **over the queries for which a non-empty
  result list was obtained**, and the answered fraction is reported
  separately — this is how Table 1 can show the legacy engine's numbers
  even though it fails to return anything for ~81% of human questions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.baselines.keyword_engine import PrevKeywordEngine
from repro.corpus.queries import LabeledQuery
from repro.eval.metrics import RetrievalMetrics, average_metrics, compute_query_metrics
from repro.search.hybrid import HybridSemanticSearch
from repro.search.results import dedupe_by_document

#: A retriever maps a query string to a ranked list of document ids.
Retriever = Callable[[str], list[str]]


@dataclass(frozen=True)
class QueryOutcome:
    """Evaluation record of one query."""

    query_id: str
    answered: bool
    metrics: RetrievalMetrics


@dataclass(frozen=True)
class EvaluationResult:
    """Aggregate evaluation of one retriever on one dataset."""

    metrics: RetrievalMetrics
    answered: int
    total: int
    outcomes: tuple[QueryOutcome, ...] = field(default_factory=tuple)

    @property
    def answered_fraction(self) -> float:
        """Share of queries with a non-empty result list."""
        return self.answered / self.total if self.total else 0.0


class RetrievalEvaluator:
    """Evaluates retrievers over labeled datasets."""

    def evaluate(self, retrieve: Retriever, dataset: list[LabeledQuery]) -> EvaluationResult:
        """Run *retrieve* on every query and aggregate the paper's metrics."""
        outcomes: list[QueryOutcome] = []
        answered_metrics: list[RetrievalMetrics] = []
        for query in dataset:
            ranked = retrieve(query.text)
            answered = bool(ranked)
            metrics = compute_query_metrics(ranked, query.relevant_docs)
            outcomes.append(QueryOutcome(query_id=query.query_id, answered=answered, metrics=metrics))
            if answered:
                answered_metrics.append(metrics)
        return EvaluationResult(
            metrics=average_metrics(answered_metrics),
            answered=len(answered_metrics),
            total=len(dataset),
            outcomes=tuple(outcomes),
        )


def hss_retriever(searcher: HybridSemanticSearch) -> Retriever:
    """Adapt a hybrid searcher into a document-id retriever."""
    return searcher_retriever(searcher.search)


def prev_retriever(engine: PrevKeywordEngine, n: int = 50) -> Retriever:
    """Adapt the legacy keyword engine into a document-id retriever."""

    def retrieve(query: str) -> list[str]:
        return [result.doc_id for result in engine.search(query, n=n)]

    return retrieve


def searcher_retriever(search: Callable[[str], list], name: str = "") -> Retriever:
    """Adapt any ``search(query) -> list[RetrievedChunk]`` callable.

    Used for the expansion variants (QGA/MQ1/MQ2), which expose ``search``
    but are not :class:`HybridSemanticSearch` instances.
    """

    def retrieve(query: str) -> list[str]:
        return [result.doc_id for result in dedupe_by_document(search(query))]

    return retrieve
