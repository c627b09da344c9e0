"""Semantic reranker.

Stands in for the proprietary multi-lingual deep reranking model (Bing /
Microsoft Research, multi-task learning) integrated in Azure AI Search that
the paper adds on top of RRF (Section 4).  A cross-encoder of that family
judges *semantic agreement* between query and passage rather than term
overlap; we reproduce that with the concept lexicon: the reranker score
blends

* concept-fingerprint cosine between the query and the chunk content,
* concept overlap with the chunk title (titles are strong relevance cues in
  short enterprise documents),
* a small lexical-overlap term that rewards exact jargon/code matches.

Scores are scaled to ``[0, max_score]`` with Azure's 0–4 range as default;
the final hybrid relevance is ``RRF sum + reranker score``, as the paper
states.

Each text is analyzed once: the query's fingerprint and term set once per
:meth:`SemanticReranker.rerank`, a chunk's once per chunk *version* — its
reading (:mod:`repro.search.reading`) is made when the chunk is written and
rides on the record, so no chunk text is analyzed; one array pass scores all.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.embeddings.concepts import part_cosines
from repro.obs import spans
from repro.obs.trace import NULL_CONTEXT, RequestContext
from repro.search.reading import ChunkReading, read_chunk
from repro.search.results import Heads, RetrievedChunk
from repro.search.schema import ChunkRecord
from repro.text.analyzer import FULL_ANALYZER, ItalianAnalyzer


class SemanticReranker:
    """Concept-level query/passage scorer added on top of fused rank.

    Args:
        lexicon: concept lexicon defining shared meaning.
        max_score: upper bound of the reranker score (Azure uses 4.0).
        title_weight / content_weight / lexical_weight: blend weights;
            they are normalized internally so only ratios matter.
        noise: amplitude of the deterministic per-(query, chunk) score
            perturbation modelling cross-encoder judgement error; 0 makes
            the reranker an oracle, which no deployed model is.
    """

    def __init__(
        self,
        lexicon: ConceptLexicon,
        max_score: float = 4.0,
        title_weight: float = 0.35,
        content_weight: float = 0.45,
        lexical_weight: float = 0.30,
        noise: float = 0.35,
        analyzer: ItalianAnalyzer | None = None,
    ) -> None:
        if max_score <= 0:
            raise ValueError("max_score must be positive")
        total = title_weight + content_weight + lexical_weight
        if total <= 0:
            raise ValueError("at least one blend weight must be positive")
        self._lexicon = lexicon
        self._max_score = max_score
        self._title_weight = title_weight / total
        self._content_weight = content_weight / total
        self._lexical_weight = lexical_weight / total
        self._noise = noise
        self._analyzer = analyzer if analyzer is not None else FULL_ANALYZER

    def score(self, query: str, result: RetrievedChunk) -> float:
        """Semantic relevance of *result* to *query* in [0, max_score]."""
        return float(self._scores(query, [result.record])[0])

    def _scores(self, query: str, records: Sequence[ChunkRecord]) -> np.ndarray:
        """Each record's score: the formula's blend, clamp (``max``/``min``'s
        pick: a bound only when strictly beyond) and noise, elementwise."""
        if not records:
            return np.zeros(0)
        lexicon, analyzer = self._lexicon, self._analyzer
        readings = [read_chunk(record, lexicon, analyzer) for record in records]
        # The cosine with each reading's title (part 2i) and content (2i + 1).
        lengths = [n for r in readings for n in (r.title_concepts, r.concepts.size - r.title_concepts)]
        norms = np.array([norm for r in readings for norm in (r.title_norm, r.content_norm)])
        concepts = np.concatenate([reading.concepts for reading in readings])
        weights = np.concatenate([reading.weights for reading in readings])
        fingerprint = lexicon.fingerprint(query)
        agreements = part_cosines(lexicon, fingerprint, concepts, weights, lengths, norms)
        terms = analyzer.analyze_unique(query)  # no terms: every share is 0 / 1
        shared = [len(terms & reading.content_terms.keys()) for reading in readings]
        lexical = np.array(shared, dtype=np.float64) / max(len(terms), 1)
        blended = (
            self._title_weight * agreements[0::2]
            + self._content_weight * agreements[1::2]
            + self._lexical_weight * lexical
        )
        blended = np.where(0.0 > blended, 0.0, blended)
        score = self._max_score * np.where(1.0 < blended, 1.0, blended)
        # blake2b of "query\0chunk_id": the query's prefix, copied per chunk.
        prefix = hashlib.blake2b(f"{query}\x00".encode("utf-8"), digest_size=8)
        noise = []
        for record in records:
            digest = prefix.copy()
            digest.update(record.chunk_id.encode("utf-8"))
            noise.append(int.from_bytes(digest.digest(), "little") / 2**63 - 1.0)
        score = score + self._noise * np.array(noise, dtype=np.float64)
        return np.where(score > 0.0, score, 0.0)

    def rerank(
        self,
        query: str,
        candidates: Heads,
        ctx: RequestContext = NULL_CONTEXT,
    ) -> Heads:
        """Add the reranker score to each fused candidate and re-sort.

        The input scores are assumed to be RRF sums; the output score is
        ``rrf + reranker`` per the paper's hybrid ranking definition, ties
        broken on the chunk id.  On an explain request (``ctx.explain``)
        the fetch keeps the pre-rerank components and records the
        reranker's delta as ``rerank_adjust``.
        """
        with ctx.trace.span(spans.STAGE_RERANK, candidates=len(candidates)):
            records = candidates.chunk_records()
            adjust = self._scores(query, records)
            final = candidates.scores + adjust
            scores = final.tolist()
            order = sorted(range(len(records)), key=lambda i: (-scores[i], records[i].chunk_id))
        explain, inner = None, candidates.explain
        if ctx.explain:
            adjust_of = dict(zip(candidates.ids.tolist(), adjust.tolist()))

            def explain(keys: list[int]) -> dict[int, dict[str, float]]:
                components = inner(keys) if inner else dict.fromkeys(keys, {})
                return {key: {**components[key], "rerank_adjust": adjust_of[key]} for key in keys}

        records = tuple(records[i] for i in order)
        return Heads(candidates.ids[order], final[order], candidates.source, records, explain)
