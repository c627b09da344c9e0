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
rides on the record, so the reranker analyzes no chunk text at all.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.embeddings.concepts import ConceptFingerprint, ConceptLexicon, fingerprint_cosine
from repro.obs import spans
from repro.obs.trace import NULL_CONTEXT, RequestContext
from repro.search.reading import read_chunk
from repro.search.results import RetrievedChunk
from repro.search.schema import ChunkRecord
from repro.text.analyzer import FULL_ANALYZER, ItalianAnalyzer


def _hash_noise(query: str, chunk_id: str) -> float:
    """Deterministic pseudo-noise in [-1, 1) keyed on the (query, chunk) pair."""
    digest = hashlib.blake2b(f"{query}\x00{chunk_id}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2**63 - 1.0


@dataclass(frozen=True, slots=True)
class _QueryFeatures:
    fingerprint: ConceptFingerprint
    terms: set[str]


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
        return self._score(query, self._query_features(query), result.record)

    def _score(self, query: str, features: _QueryFeatures, record: ChunkRecord) -> float:
        chunk = read_chunk(record, self._lexicon, self._analyzer)
        title_agreement = fingerprint_cosine(features.fingerprint, chunk.title_fingerprint)
        content_agreement = fingerprint_cosine(features.fingerprint, chunk.content_fingerprint)
        if features.terms:
            lexical = len(features.terms & chunk.content_terms.keys()) / len(features.terms)
        else:
            lexical = 0.0
        blended = (
            self._title_weight * title_agreement
            + self._content_weight * content_agreement
            + self._lexical_weight * lexical
        )
        score = self._max_score * min(max(blended, 0.0), 1.0)
        return max(0.0, score + self._noise * _hash_noise(query, record.chunk_id))

    def _query_features(self, query: str) -> _QueryFeatures:
        return _QueryFeatures(
            self._lexicon.fingerprint(query), self._analyzer.analyze_unique(query)
        )

    def rerank(
        self,
        query: str,
        results: list[RetrievedChunk],
        ctx: RequestContext = NULL_CONTEXT,
    ) -> list[RetrievedChunk]:
        """Add the reranker score to each fused result and re-sort.

        The input scores are assumed to be RRF sums; the output score is
        ``rrf + reranker`` per the paper's hybrid ranking definition.  On an
        explain request (``ctx.explain``) the pre-rerank component breakdown
        is preserved and the reranker's delta recorded as ``rerank_adjust``,
        so score provenance survives all the way to the answer layer; a
        plain request's results carry no components.
        """
        with ctx.trace.span(spans.STAGE_RERANK, candidates=len(results)):
            return self._rerank(query, results, ctx.explain)

    def _rerank(
        self, query: str, results: list[RetrievedChunk], explain: bool
    ) -> list[RetrievedChunk]:
        features = self._query_features(query)
        rescored = []
        for result in results:
            reranker_score = self._score(query, features, result.record)
            components = {}
            if explain:
                components = dict(result.components)
                components["rerank_adjust"] = reranker_score
            rescored.append(
                RetrievedChunk(
                    record=result.record,
                    score=result.score + reranker_score,
                    components=components,
                )
            )
        rescored.sort(key=lambda r: (-r.score, r.record.chunk_id))
        return rescored
