"""Shared result types for the retrieval executors.

Retrieval is *query-then-fetch*: every stage before the final ranking (the
legs, a cluster's shard merge, RRF, the reranker) passes :class:`Heads`,
and one fetch builds the only :class:`RetrievedChunk` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.search.schema import ChunkRecord


@dataclass(frozen=True)
class RetrievedChunk:
    """One chunk returned by a retrieval algorithm.

    Attributes:
        record: the chunk payload (retrievable fields).
        score: the final relevance score used for ordering.
        components: named score breakdown — for hybrid search e.g.
            ``{"bm25_title": ..., "cosine_content": ..., "rrf_text": ...,
            "rrf_vector_content": ..., "rerank_adjust": ...}``; explain
            requests add per-term BM25 keys (``bm25_<field>:<term>``) and
            cluster shard attribution (``shard``).  The fused score is the
            sum of the ``rrf_*`` entries; the final score adds
            ``rerank_adjust``.
    """

    record: ChunkRecord
    score: float
    components: dict[str, float] = field(default_factory=dict)

    @property
    def doc_id(self) -> str:
        """Source document id of the chunk."""
        return self.record.doc_id


@dataclass(frozen=True, slots=True, eq=False)
class Heads:
    """A ranking before its fetch: int64 keys and float64 scores, best first.

    ``source.record(key)`` resolves a key (a single index's internal id, a
    cluster's ``internal × shards + shard position``); ``records`` holds
    them once a stage has.  Only an explain request sets ``explain``: the
    components of the keys a fetch asks for, built for those alone.
    """

    ids: np.ndarray
    scores: np.ndarray
    source: Any
    records: tuple[ChunkRecord, ...] | None = None
    explain: Callable[[list[int]], dict[int, dict[str, float]]] | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def head(self, n: int) -> Heads:
        records = None if self.records is None else self.records[:n]
        return Heads(self.ids[:n], self.scores[:n], self.source, records, self.explain)

    def chunk_records(self) -> tuple[ChunkRecord, ...]:
        known = self.records
        return known if known is not None else tuple(map(self.source.record, self.ids.tolist()))

    def fetch(self) -> list[RetrievedChunk]:
        """The ranking as chunks, with components when ``explain`` is set."""
        records, scores, keys = self.chunk_records(), self.scores.tolist(), self.ids.tolist()
        components = self.explain(keys) if self.explain else dict.fromkeys(keys, None)
        return [RetrievedChunk(r, s, components[k] or {}) for r, s, k in zip(records, scores, keys)]


def dedupe_by_document(results: list[RetrievedChunk]) -> list[RetrievedChunk]:
    """Keep only the best-ranked chunk of each source document.

    Retrieval metrics in the paper are computed at document granularity;
    this helper collapses a chunk ranking into a document ranking while
    preserving order.
    """
    seen: set[str] = set()
    collapsed: list[RetrievedChunk] = []
    for result in results:
        if result.doc_id not in seen:
            seen.add(result.doc_id)
            collapsed.append(result)
    return collapsed
