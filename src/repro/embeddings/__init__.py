"""Embedding substrate: concept lexicon, deterministic embedders, adapters."""

from repro.embeddings.adapter import (
    AdaptedEmbedder,
    LinearQueryAdapter,
    TrainingPair,
    pairs_from_labeled_queries,
    train_query_adapter,
)
from repro.embeddings.cache import CachingEmbedder
from repro.embeddings.concepts import (
    Concept,
    ConceptFingerprint,
    ConceptLexicon,
    ConceptOverlap,
    concept_overlap,
    fingerprint_cosine,
)
from repro.embeddings.model import EmbeddingModel, SyntheticAdaEmbedder

__all__ = [
    "AdaptedEmbedder",
    "LinearQueryAdapter",
    "TrainingPair",
    "pairs_from_labeled_queries",
    "train_query_adapter",
    "CachingEmbedder",
    "Concept",
    "ConceptFingerprint",
    "ConceptLexicon",
    "ConceptOverlap",
    "concept_overlap",
    "fingerprint_cosine",
    "EmbeddingModel",
    "SyntheticAdaEmbedder",
]
