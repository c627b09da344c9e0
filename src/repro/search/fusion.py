"""Reciprocal Rank Fusion (RRF).

Merges the rankings produced by text search (one ranking) and vector search
(one ranking per vector field) exactly as described in Section 4: each
document/ranking pair contributes a reciprocal-rank score ``1 / (rank + c)``
— rank starting at 1, ``c = 60`` (the Azure AI Search default) — and a
document's fused score is the sum of its contributions across rankings.
"""

from __future__ import annotations

from repro.search.results import RetrievedChunk

DEFAULT_RRF_CONSTANT = 60.0


def reciprocal_rank_fusion(
    rankings: dict[str, list[RetrievedChunk]],
    c: float = DEFAULT_RRF_CONSTANT,
    top_n: int | None = None,
    explain: bool = False,
) -> list[RetrievedChunk]:
    """Fuse named *rankings* into a single ranking by RRF.

    Args:
        rankings: mapping from a ranking name (e.g. ``"text"``,
            ``"vector_content"``) to an ordered result list.
        c: the RRF smoothing constant (≥ 0; Azure default 60).
        top_n: truncate the fused ranking (None keeps everything).
        explain: build the fused results' components; without it they
            carry none.

    With *explain*, the fused :class:`RetrievedChunk` keeps a per-ranking
    component breakdown (``rrf_<name>``) so the explain report can see
    where a result came from.  Source-leg components
    (``bm25_*`` per-field/per-term scores, ``cosine_*`` similarities, shard
    attribution) are merged into the fused breakdown too, first-seen wins —
    so explain reports retain full provenance.  Components belonging to a
    *previous* fusion/rerank tier (``rrf_*`` keys of an inner fusion, its
    ``rerank_adjust``) are deliberately dropped: keeping them would make
    "sum of ``rrf_*`` == fused score" ambiguous for nested fusions such as
    multi-query expansion.
    """
    if c < 0:
        raise ValueError("c must be non-negative")

    fused_scores: dict[str, float] = {}
    components: dict[str, dict[str, float]] = {}
    payload: dict[str, RetrievedChunk] = {}

    for name, ranking in rankings.items():
        rrf_key = f"rrf_{name}"
        for position, result in enumerate(ranking, start=1):
            chunk_id = result.record.chunk_id
            contribution = 1.0 / (position + c)
            fused_scores[chunk_id] = fused_scores.get(chunk_id, 0.0) + contribution
            # Keep the first payload seen; records are identical across rankings.
            payload.setdefault(chunk_id, result)
            if not explain:
                continue
            merged = components.setdefault(chunk_id, {})
            for key, value in result.components.items():
                if key.startswith("rrf_") or key == "rerank_adjust":
                    continue
                merged.setdefault(key, value)
            merged[rrf_key] = contribution

    ordered = sorted(fused_scores.items(), key=lambda pair: (-pair[1], pair[0]))
    if top_n is not None:
        ordered = ordered[:top_n]
    return [
        RetrievedChunk(
            record=payload[chunk_id].record,
            score=score,
            components=components.get(chunk_id, {}),
        )
        for chunk_id, score in ordered
    ]
