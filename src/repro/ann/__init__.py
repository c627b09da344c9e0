"""Approximate nearest neighbour substrate: HNSW and exact k-NN."""

from repro.ann.distance import batch_cosine_distance, cosine_distance
from repro.ann.exact import ExactKnnIndex
from repro.ann.hnsw import HnswIndex

__all__ = [
    "batch_cosine_distance",
    "cosine_distance",
    "ExactKnnIndex",
    "HnswIndex",
]
