"""Deterministic synthetic text embedder.

Stands in for Azure OpenAI's ``text-embedding-ada-002`` (Section 4 of the
paper), which cannot be called offline.  The substitution preserves the two
properties hybrid search depends on:

1. **Paraphrase proximity** — all surface forms of one concept share a base
   direction (drawn from the :class:`~repro.embeddings.concepts.ConceptLexicon`),
   so a question phrased with jargon or synonyms lands near the document
   phrased with canonical terms.
2. **Lexical sensitivity** — out-of-lexicon tokens get stable hashed random
   directions, so unrelated texts stay far apart and exact-term matches
   still help.

Everything is deterministic: a term's vector is derived from a BLAKE2 digest
of the term plus the model seed, never from global RNG state.
"""

from __future__ import annotations

import hashlib
from typing import Protocol, Sequence

import numpy as np

from repro.embeddings.concepts import ConceptLexicon
from repro.text.analyzer import ItalianAnalyzer, remember_word
from repro.text.stemmer import stem


class EmbeddingModel(Protocol):
    """Anything that can embed text into fixed-width float vectors.

    A model whose vectors draw on a :class:`ConceptLexicon` also exposes it
    as ``lexicon``: the index reads its chunks under it, and caches in front
    of the model follow its ``version``.
    """

    @property
    def dim(self) -> int:
        """Embedding dimensionality."""
        ...

    def embed(self, text: str) -> np.ndarray:
        """Embed one text into a unit-norm vector of length :attr:`dim`."""
        ...

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed many texts into a ``(len(texts), dim)`` matrix."""
        ...


#: Memory the per-token vector table may hold (dim × 8 bytes per token); it
#: is cleared at the cap like the analyzer's word table (DESIGN.md §19).
_TERM_CACHE_BYTES = 32 << 20


def _seeded_vector(key: str, seed: int, dim: int) -> np.ndarray:
    """A stable Gaussian direction for *key*: same key, same vector, always."""
    digest = hashlib.blake2b(f"{seed}:{key}".encode("utf-8"), digest_size=8).digest()
    generator = np.random.default_rng(int.from_bytes(digest, "little"))
    return generator.standard_normal(dim)


class SyntheticAdaEmbedder:
    """Concept-aware deterministic embedder (the ada-002 stand-in).

    Args:
        lexicon: concept lexicon that defines which surface forms share
            meaning; ``None`` degrades to a purely lexical hashed embedder.
        dim: embedding width (ada-002 uses 1536; 256 keeps the benchmarks
            fast with no change in ranking behaviour).
        seed: model identity — two embedders with the same seed and lexicon
            produce identical vectors.
        analyzer: language pack analyzer (None → Italian), must match the
            lexicon's.
        form_noise: standard deviation of the per-surface-form perturbation
            added to the concept base direction.  Small values make synonyms
            nearly identical; large values make the model "more lexical".
        oov_weight: contribution weight of out-of-lexicon tokens.

    A word's vector depends on the lexicon, so the per-token table is
    dropped when ``lexicon.version`` moves: the next :meth:`embed` equals a
    fresh embedder's.  Vectors already handed out — the document vectors an
    index stores — are not re-embedded; that is a re-index.
    """

    def __init__(
        self,
        lexicon: ConceptLexicon | None = None,
        dim: int = 256,
        seed: int = 17,
        form_noise: float = 0.50,
        oov_weight: float = 0.80,
        analyzer: ItalianAnalyzer | None = None,
    ) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self._lexicon = lexicon
        self._dim = dim
        self._seed = seed
        self._form_noise = form_noise
        self._oov_weight = oov_weight
        if analyzer is None:
            analyzer = ItalianAnalyzer(remove_stopwords=True, apply_stemming=False)
        self._analyzer = analyzer
        self._stem = analyzer.stem_fn if analyzer.stem_fn is not None else stem
        self._term_cache: dict[str, np.ndarray] = {}
        self._term_cache_cap = _TERM_CACHE_BYTES // (dim * 8)
        self._term_cache_version = lexicon.version if lexicon is not None else 0
        self.calls = 0  # embed() invocations, for cache-effectiveness tests

    @property
    def dim(self) -> int:
        """Embedding dimensionality."""
        return self._dim

    @property
    def lexicon(self) -> ConceptLexicon | None:
        """The lexicon the vectors are drawn from (None: purely lexical)."""
        return self._lexicon

    def embed(self, text: str) -> np.ndarray:
        """Embed *text* into a unit-norm float64 vector.

        The vector is the weighted sum of per-token vectors; empty or
        all-stop-word input maps to a stable "null direction" so that
        downstream cosine math never divides by zero.
        """
        self.calls += 1
        if self._lexicon is not None and self._term_cache_version != self._lexicon.version:
            self._term_cache.clear()
            self._term_cache_version = self._lexicon.version
        vector = np.zeros(self._dim)
        for token in self._analyzer.analyze(text.lower()):
            vector += self._token_vector(token)
        norm = float(np.linalg.norm(vector))
        if norm < 1e-12:
            vector = _seeded_vector("<empty>", self._seed, self._dim)
            norm = float(np.linalg.norm(vector))
        return vector / norm

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed a sequence of texts into a ``(n, dim)`` matrix."""
        if not texts:
            return np.zeros((0, self._dim))
        return np.stack([self.embed(text) for text in texts])

    def _token_vector(self, token: str) -> np.ndarray:
        cached = self._term_cache.get(token)
        if cached is not None:
            return cached

        stemmed = self._stem(token)
        concept_entries = self._lexicon.concepts_for_stem(stemmed) if self._lexicon else []
        if concept_entries:
            vector = np.zeros(self._dim)
            for concept_id, weight in concept_entries:
                base = _seeded_vector(f"concept:{concept_id}", self._seed, self._dim)
                noise = _seeded_vector(f"form:{stemmed}", self._seed, self._dim)
                vector += weight * (base + self._form_noise * noise)
        else:
            vector = self._oov_weight * _seeded_vector(f"oov:{stemmed}", self._seed, self._dim)

        remember_word(self._term_cache, token, vector, cap=self._term_cache_cap)
        return vector
