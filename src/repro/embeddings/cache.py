"""Embedding cache: the vectors of recent query texts.

A question is embedded once per request by the vector leg, again by the
answer cache's semantic tier and by multi-query expansion, and a repeated
question is embedded again on every repeat.  :class:`CachingEmbedder`
serves those repeats from a small LRU bound (``CACHE_CAPACITY`` texts).
Document vectors are not its job: the row store keeps one copy of each
indexed title and content, and re-ingesting an unchanged page embeds
nothing because :meth:`~repro.search.index.SearchIndex.replace_document`
leaves an equal chunk alone and relabels an unchanged field's stored
vector.  The stored vectors are read-only: every hit returns the same
array, so a write into one would corrupt every later hit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.embeddings.model import EmbeddingModel

#: Distinct texts kept: a query-scale bound, not one entry per indexed field.
CACHE_CAPACITY = 256


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

    def __init__(self, inner: EmbeddingModel, capacity: int = CACHE_CAPACITY) -> None:
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
        """Embed *text*, serving repeated texts from the cache (read-only)."""
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
        vector.flags.writeable = False
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
