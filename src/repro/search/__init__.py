"""Search substrate: index, BM25, vector search, fusion, reranking, HSS."""

from repro.search.bm25 import Bm25Parameters, Bm25Scorer, Bm25Statistics
from repro.search.expansion import Mq1Expansion, Mq2Expansion, QgaExpansion
from repro.search.fulltext import FullTextSearch, ScoringProfile
from repro.search.fusion import DEFAULT_RRF_CONSTANT, reciprocal_rank_fusion
from repro.search.hybrid import HybridSearchConfig, HybridSemanticSearch
from repro.search.index import SearchIndex
from repro.search.inverted import InvertedIndex
from repro.search.persistence import load_index, save_index
from repro.search.reranker import SemanticReranker
from repro.search.results import RetrievedChunk, dedupe_by_document
from repro.search.schema import ChunkRecord, FieldDefinition, IndexSchema, uniask_schema
from repro.search.vector import VectorSearch

__all__ = [
    "Bm25Parameters",
    "Bm25Scorer",
    "Bm25Statistics",
    "Mq1Expansion",
    "Mq2Expansion",
    "QgaExpansion",
    "FullTextSearch",
    "ScoringProfile",
    "DEFAULT_RRF_CONSTANT",
    "reciprocal_rank_fusion",
    "HybridSearchConfig",
    "HybridSemanticSearch",
    "SearchIndex",
    "InvertedIndex",
    "load_index",
    "save_index",
    "SemanticReranker",
    "RetrievedChunk",
    "dedupe_by_document",
    "ChunkRecord",
    "FieldDefinition",
    "IndexSchema",
    "uniask_schema",
    "VectorSearch",
]
