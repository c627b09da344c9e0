"""Reciprocal Rank Fusion (RRF).

Merges the rankings produced by text search (one ranking) and vector search
(one ranking per vector field) exactly as described in Section 4: each
document/ranking pair contributes a reciprocal-rank score ``1 / (rank + c)``
— rank starting at 1, ``c = 60`` (the Azure AI Search default) — and a
document's fused score is the sum of its contributions across rankings.
"""

from __future__ import annotations

import numpy as np

from repro.search.results import Heads

DEFAULT_RRF_CONSTANT = 60.0


def reciprocal_rank_fusion(
    rankings: dict[str, Heads],
    c: float = DEFAULT_RRF_CONSTANT,
    top_n: int | None = None,
    explain: bool = False,
) -> Heads:
    """Fuse named *rankings* (heads over one key space) into one ranking by RRF.

    Args:
        rankings: ranking name (e.g. ``"text"``, ``"vector_content"``) → ranking.
        c: the RRF smoothing constant (≥ 0; Azure default 60).
        top_n: truncate the fused ranking (None keeps everything).
        explain: give the fused ranking provenance.

    Each key's contributions are added in ranking order, starting from
    0.0; equal fused scores break on the chunk id, so the result carries
    its records.  With *explain*, a fetched chunk keeps a per-ranking
    component breakdown (``rrf_<name>``) so the explain report can see
    where a result came from.  Source-leg components (``bm25_*``
    per-field/per-term scores, ``cosine_*`` similarities, shard attribution)
    are merged into the fused breakdown too, first-seen wins — so explain
    reports retain full provenance.  Components belonging to a *previous*
    fusion/rerank tier (``rrf_*`` keys of an inner fusion, its
    ``rerank_adjust``) are deliberately dropped: keeping them would make
    "sum of ``rrf_*`` == fused score" ambiguous for nested fusions such as
    multi-query expansion.
    """
    if c < 0:
        raise ValueError("c must be non-negative")
    source = next(iter(rankings.values())).source if rankings else None
    fused_scores: dict[int, float] = {}
    for ranking in rankings.values():
        for position, key in enumerate(ranking.ids.tolist(), start=1):
            fused_scores[key] = fused_scores.get(key, 0.0) + 1.0 / (position + c)
    records = {key: source.record(key) for key in fused_scores}
    ordered = sorted(fused_scores.items(), key=lambda pair: (-pair[1], records[pair[0]].chunk_id))
    keys = [key for key, _ in ordered[:top_n]]

    def provenance(asked: list[int]) -> dict[int, dict[str, float]]:
        components: dict[int, dict[str, float]] = {key: {} for key in asked}
        for name, ranking in rankings.items():
            ids = ranking.ids.tolist()
            positions = {key: at for at, key in enumerate(ids, 1) if key in components}
            inner = ranking.explain(list(positions)) if ranking.explain and positions else {}
            for key, position in positions.items():
                merged = components[key]
                for component, value in inner.get(key, {}).items():
                    if not component.startswith("rrf_") and component != "rerank_adjust":
                        merged.setdefault(component, value)
                merged[f"rrf_{name}"] = 1.0 / (position + c)
        return components

    return Heads(
        np.array(keys, dtype=np.int64),
        np.array([score for _, score in ordered[:top_n]], dtype=np.float64),
        source,
        tuple(records[key] for key in keys),
        provenance if explain else None,
    )
