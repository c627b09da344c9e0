"""Approximate nearest neighbour substrate: HNSW and exact k-NN."""

from repro.ann.distance import cosine_distance, cosine_distances
from repro.ann.exact import ExactKnnIndex
from repro.ann.hnsw import HnswIndex

__all__ = [
    "cosine_distance",
    "cosine_distances",
    "ExactKnnIndex",
    "HnswIndex",
]
