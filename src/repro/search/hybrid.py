"""Hybrid Search with Semantic reranking (HSS) — the production retriever.

Orchestrates the full retrieval algorithm of Section 4:

1. full-text BM25 retrieves the top ``text_n`` (= 50) chunks;
2. vector search retrieves the top ``vector_k`` (= 15) chunks per vector
   field (title and content embeddings);
3. Reciprocal Rank Fusion merges the rankings (c = 60);
4. the semantic reranker adds its score to each fused result;
5. the final ranking of ``final_n`` (= 50) chunks is returned.

The class also exposes the two ablation modes of Table 2 (text-only and
vector-only) through ``mode`` so the benchmarks exercise the exact same code
path minus one component.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import spans
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import NULL_CONTEXT, RequestContext
from repro.search.fulltext import FullTextSearch, ScoringProfile
from repro.search.fusion import DEFAULT_RRF_CONSTANT, reciprocal_rank_fusion
from repro.search.index import SearchIndex
from repro.search.reranker import SemanticReranker
from repro.search.results import Heads, RetrievedChunk
from repro.search.vector import VectorSearch

#: Retrieval modes: production hybrid plus the Table 2 ablations.
MODES = ("hybrid", "text", "vector")


@dataclass(frozen=True)
class HybridSearchConfig:
    """Tunable parameters of the HSS retriever (paper defaults)."""

    text_n: int = 50
    vector_k: int = 15
    final_n: int = 50
    rrf_c: float = DEFAULT_RRF_CONSTANT
    mode: str = "hybrid"
    use_reranker: bool = True

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if min(self.text_n, self.vector_k, self.final_n) <= 0:
            raise ValueError("result sizes must be positive")


class HybridSemanticSearch:
    """The HSS retrieval algorithm over a :class:`SearchIndex`."""

    def __init__(
        self,
        index: SearchIndex,
        reranker: SemanticReranker | None = None,
        config: HybridSearchConfig | None = None,
        profile: ScoringProfile | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or HybridSearchConfig()
        if self.config.use_reranker and reranker is None:
            raise ValueError("a reranker is required unless use_reranker=False")
        #: The underlying search index.
        self.index = index
        self._reranker = reranker
        self._fulltext = FullTextSearch(index, profile=profile)
        self._vector = VectorSearch(index)
        registry = registry or NULL_REGISTRY
        self._m_searches = registry.counter(
            "uniask_searches_total", "Hybrid retrievals served, by mode.", ("mode",)
        )
        self._m_fused = registry.histogram(
            "uniask_fusion_candidates",
            "Candidates entering RRF fusion per retrieval.",
            buckets=(10.0, 25.0, 50.0, 100.0, 200.0),
        )

    def search(
        self,
        query: str,
        filters: dict[str, str] | None = None,
        ctx: RequestContext = NULL_CONTEXT,
    ) -> list[RetrievedChunk]:
        """Retrieve the final ranking of chunks for *query*."""
        return self._ranking(query, filters, ctx).fetch()

    def _ranking(self, query: str, filters: dict[str, str] | None, ctx: RequestContext) -> Heads:
        """:meth:`search`'s final ranking, not fetched."""
        self.index.schema.check_filters(filters)
        config = self.config
        self._m_searches.labels(config.mode).inc()
        rankings: dict[str, Heads] = {}

        if config.mode in ("hybrid", "text"):
            rankings["text"] = self._fulltext.search(
                query, n=config.text_n, filters=filters, ctx=ctx
            )
        if config.mode in ("hybrid", "vector"):
            for field_name, ranking in self._vector.search(
                query, k=config.vector_k, filters=filters, ctx=ctx
            ).items():
                rankings[f"vector_{field_name}"] = ranking

        return self._fuse_and_rerank(query, rankings, ctx)

    def search_degraded(
        self,
        query: str,
        filters: dict[str, str] | None = None,
        ctx: RequestContext = NULL_CONTEXT,
    ) -> list[RetrievedChunk]:
        """BM25-only retrieval: the full-text ranking alone.

        No query embedding, no vector legs, no reranker — just the
        full-text ranking, truncated to ``final_n``.  Exists separately
        from the ``text`` ablation mode so a hybrid deployment's text leg
        can be read per call without touching its config (a freshness
        probe, the sequence oracles).
        """
        self.index.schema.check_filters(filters)
        self._m_searches.labels("degraded").inc()
        ranking = self._fulltext.search(query, n=self.config.text_n, filters=filters, ctx=ctx)
        return ranking.head(self.config.final_n).fetch()

    def search_fused_vector(
        self,
        query_text: str,
        query_vector,
        filters: dict[str, str] | None = None,
        ctx: RequestContext = NULL_CONTEXT,
    ) -> list[RetrievedChunk]:
        """Hybrid search with an externally supplied query embedding.

        The text ranking uses *query_text*; the vector rankings use
        *query_vector*.  This is the entry point for the MQ2 expansion
        variant, which concatenates generated query texts and averages their
        embeddings.
        """
        self.index.schema.check_filters(filters)
        config = self.config
        rankings: dict[str, Heads] = {
            "text": self._fulltext.search(query_text, n=config.text_n, filters=filters, ctx=ctx)
        }
        for field_name, ranking in self._vector.search_by_vector(
            query_vector, k=config.vector_k, filters=filters, ctx=ctx
        ).items():
            rankings[f"vector_{field_name}"] = ranking
        return self._fuse_and_rerank(query_text, rankings, ctx).fetch()

    def search_multi(
        self,
        queries: list[str],
        filters: dict[str, str] | None = None,
        ctx: RequestContext = NULL_CONTEXT,
    ) -> list[RetrievedChunk]:
        """Multi-query hybrid search (the MQ1 expansion variant).

        Runs a full hybrid search per query and fuses the per-query
        rankings with RRF.  Duplicate sub-queries (the LLM frequently
        regenerates the original question) reuse the ranking already
        computed for this request instead of re-running retrieval and the
        reranker; the trace records a ``subquery`` span per input with a
        ``cached`` attribute.
        """
        if not queries:
            return []
        trace, config = ctx.trace, self.config
        filter_key = tuple(sorted(filters.items())) if filters else None
        cached_rankings: dict[tuple, Heads] = {}
        per_query: dict[str, Heads] = {}
        for i, query in enumerate(queries):
            key = (query, filter_key)
            cached = key in cached_rankings
            with trace.span(spans.STAGE_SUBQUERY, index=i, cached=cached) as span:
                if not cached:
                    cached_rankings[key] = self._ranking(query, filters, ctx)
                span.set("results", len(cached_rankings[key]))
            per_query[f"q{i}"] = cached_rankings[key]
        with trace.span(
            spans.STAGE_FUSION, sources=len(per_query), multi_query=True
        ) as span:
            fused = reciprocal_rank_fusion(per_query, config.rrf_c, config.final_n, ctx.explain)
            span.set("results", len(fused))
        return fused.fetch()

    def _fuse_and_rerank(self, query: str, rankings: dict[str, Heads], ctx) -> Heads:
        """Observe the fusion input, then run the shared tail."""
        self._m_fused.observe(float(sum(len(ranking) for ranking in rankings.values())))
        return fuse_and_rerank(query, rankings, self.config, self._reranker, ctx)

    # -- the searcher contract, single-index half (see ClusterSearcher) ------

    def take_scatter_report(self) -> None:
        """A single index never scatters: there is no report to take."""

    def status(self) -> None:
        """A single index has no cluster status."""


def fuse_and_rerank(
    query: str,
    rankings: dict[str, Heads],
    config: HybridSearchConfig,
    reranker: SemanticReranker | None,
    ctx: RequestContext,
) -> Heads:
    """The fuse → rerank → truncate tail of every hybrid retrieval.

    A function, not a base-class method: both searchers end here and
    neither inherits ``search`` from the other.  The result is the final
    ranking, not yet fetched.
    """
    candidates = sum(len(ranking) for ranking in rankings.values())
    with ctx.trace.span(spans.STAGE_FUSION, sources=len(rankings), candidates=candidates) as span:
        fused = reciprocal_rank_fusion(rankings, config.rrf_c, config.final_n, ctx.explain)
        span.set("results", len(fused))
    if config.use_reranker and reranker is not None:
        fused = reranker.rerank(query, fused, ctx=ctx)
    return fused.head(config.final_n)
