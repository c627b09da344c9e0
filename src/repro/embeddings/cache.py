"""Embedding cache.

Embedding calls are the expensive step of indexing (in the paper they are
remote Azure OpenAI calls billed per token).  The indexing service wraps its
model in a :class:`CachingEmbedder` so that re-ingesting an unchanged
document — which happens every 15-minute polling cycle — never re-embeds it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.embeddings.model import EmbeddingModel


class CachingEmbedder:
    """LRU cache wrapper around any :class:`EmbeddingModel`.

    Args:
        inner: the wrapped model.
        capacity: maximum number of distinct texts kept; least recently used
            entries are evicted first.

    When the wrapped model draws on a concept lexicon (it exposes
    ``lexicon``), a text's vector is only good for the lexicon version it
    was embedded under: the cache is dropped when the version moves.
    """

    def __init__(self, inner: EmbeddingModel, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._inner = inner
        self._capacity = capacity
        self._cache: OrderedDict[str, np.ndarray] = OrderedDict()
        self._cache_version = 0
        self.hits = 0
        self.misses = 0

    @property
    def dim(self) -> int:
        """Embedding dimensionality of the wrapped model."""
        return self._inner.dim

    @property
    def lexicon(self):
        """The wrapped model's concept lexicon (None when it has none)."""
        return getattr(self._inner, "lexicon", None)

    def embed(self, text: str) -> np.ndarray:
        """Embed *text*, serving repeated texts from the cache."""
        lexicon = self.lexicon
        version = lexicon.version if lexicon is not None else 0
        if version != self._cache_version:
            self._cache.clear()
            self._cache_version = version
        cached = self._cache.get(text)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(text)
            return cached
        self.misses += 1
        vector = self._inner.embed(text)
        self._cache[text] = vector
        if len(self._cache) > self._capacity:
            self._cache.popitem(last=False)
        return vector

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed many texts through the cache."""
        if not texts:
            return np.zeros((0, self.dim))
        return np.stack([self.embed(text) for text in texts])

    @property
    def hit_rate(self) -> float:
        """Fraction of embed calls answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
