"""Span taxonomy of the staged request pipeline.

Stage names are stable identifiers: the monitoring dashboard keys its
per-stage latency series on them and the tests assert on them, so treat
renames as breaking changes.  The canonical trace of a fully answered
question nests as::

    ask
      content_filter
      retrieval
        fulltext
        embed_query
        vector_title
        vector_content
        fusion
        rerank
      prompt_build
      llm
      guardrails
        guardrail_citation
        guardrail_rouge
        guardrail_clarification
      citations

Multi-query retrieval (MQ1) additionally records one ``subquery`` span per
generated query (attribute ``cached=True`` when a duplicate query reused
the per-query ranking already recorded in the trace) and a final top-level
``fusion`` span.

Clustered retrieval (``repro.cluster``) replaces the per-index search
stages with a scatter-gather block under ``retrieval``::

    retrieval
      embed_query
      scatter
        shard_0
        shard_1
        ...
      scatter_wait
      fusion
      rerank

Each ``shard_<i>`` span is a leaf carrying the replica that served the
shard, the simulated replica latency, and whether a hedged retry fired;
``scatter_wait`` models the barrier of the parallel fan-out (its cost is
the *maximum* replica latency, not the sum, because shards are queried
concurrently in a real deployment).

Stage names also key the telemetry layer: the backend observes each leaf
stage's duration into the ``uniask_stage_seconds{stage=<name>}`` histogram
of the metrics registry, and when the request's trace is retained by the
sampler the histogram bucket keeps the request id as an **exemplar** — the
trace id of the slowest sample in that bucket — so a per-stage latency
spike in the ``/metrics`` exposition links back to a concrete retained
trace (see :mod:`repro.obs.metrics` and :mod:`repro.obs.sampling`).
"""

from __future__ import annotations

#: Root span of one engine request.
STAGE_ASK = "ask"

#: Input screening (the Azure content filter stand-in).
STAGE_CONTENT_FILTER = "content_filter"

#: The whole retrieval module (parent of the search stages).
STAGE_RETRIEVAL = "retrieval"

#: BM25 full-text search across searchable fields.
STAGE_FULLTEXT = "fulltext"

#: Query embedding ahead of the per-field ANN searches.
STAGE_EMBED_QUERY = "embed_query"

#: Prefix of the per-field ANN search spans (``vector_title`` …).
VECTOR_STAGE_PREFIX = "vector_"

#: Reciprocal Rank Fusion of the per-source rankings.
STAGE_FUSION = "fusion"

#: Semantic reranking of the fused ranking.
STAGE_RERANK = "rerank"

#: One sub-query of a multi-query (MQ1) retrieval.
STAGE_SUBQUERY = "subquery"

#: Generation-prompt assembly (context JSON + messages).
STAGE_PROMPT_BUILD = "prompt_build"

#: The chat-completion call.
STAGE_LLM = "llm"

#: The guardrail pipeline (parent of the per-guardrail spans).
STAGE_GUARDRAILS = "guardrails"

#: Prefix of the per-guardrail spans (``guardrail_citation`` …).
GUARDRAIL_STAGE_PREFIX = "guardrail_"

#: Citation resolution of the accepted answer.
STAGE_CITATIONS = "citations"

#: Scatter of the query legs across all shards (parent of the shard spans).
STAGE_SCATTER = "scatter"

#: Prefix of the per-shard scatter spans (``shard_0`` …).
SHARD_STAGE_PREFIX = "shard_"

#: The gather barrier: waiting for the slowest successful shard replica.
STAGE_SCATTER_WAIT = "scatter_wait"

#: Answer-cache lookup (attribute ``hit``: "exact" / "semantic" / "" and
#: ``scanned``: semantic-tier candidates compared).  A cache hit makes the
#: whole request trace collapse to ``ask → cache_lookup``.
STAGE_CACHE_LOOKUP = "cache_lookup"

#: Answer-cache store of a freshly computed cacheable answer.
STAGE_CACHE_STORE = "cache_store"

#: Background segment maintenance sweep (seals/merges/compactions), with
#: one attribute per performed op kind carrying its count.
STAGE_INDEX_MAINTENANCE = "index_maintenance"

#: Explicit tombstone reclamation: ANN graph rebuild + segment compaction.
STAGE_VACUUM = "vacuum"


def vector_stage(field_name: str) -> str:
    """Span name of the ANN search over *field_name*."""
    return f"{VECTOR_STAGE_PREFIX}{field_name}"


def shard_stage(shard_id: int | str) -> str:
    """Span name of the scatter leg sent to shard *shard_id*."""
    return f"{SHARD_STAGE_PREFIX}{shard_id}"


def guardrail_stage(guardrail_name: str) -> str:
    """Span name of one guardrail check."""
    return f"{GUARDRAIL_STAGE_PREFIX}{guardrail_name}"
