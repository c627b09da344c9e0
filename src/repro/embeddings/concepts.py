"""Concept lexicon: the semantic backbone of the synthetic embedder.

A real embedding model (text-embedding-ada-002 in the paper) maps different
surface forms of the same meaning — a formal term, its banking jargon
equivalent, an abbreviation — to nearby vectors.  Since the proprietary model
is not available offline, we reproduce that *property* explicitly: a
:class:`ConceptLexicon` groups surface forms into concepts, and the embedder
(:mod:`repro.embeddings.model`) assigns every form of a concept the same base
direction plus a small form-specific perturbation.

The lexicon is a plain data structure; the Italian banking instance used by
the benchmarks is built in :mod:`repro.corpus.vocabulary`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.text.analyzer import ItalianAnalyzer, remember_word
from repro.text.stemmer import stem


@dataclass(frozen=True, slots=True)
class ConceptFingerprint:
    """The meaning fingerprint of one text, ready for repeated comparison.

    Attributes:
        weights: concept_id → accumulated weight, in first-seen order (the
            order :func:`part_cosines` sums a query's products in).
        norm: Euclidean norm of the weights.
    """

    weights: dict[str, float]
    norm: float


@dataclass(frozen=True)
class Concept:
    """One unit of meaning with its alternative surface forms.

    Attributes:
        concept_id: stable unique identifier (e.g. ``"bonifico"``).
        canonical: the preferred surface form, used in document prose.
        synonyms: alternative forms (jargon, abbreviations, paraphrases)
            that user questions may use instead of the canonical form.
        domain: topical domain the concept belongs to.
    """

    concept_id: str
    canonical: str
    synonyms: tuple[str, ...] = ()
    domain: str = ""

    @property
    def forms(self) -> tuple[str, ...]:
        """All surface forms, canonical first."""
        return (self.canonical, *self.synonyms)


class ConceptLexicon:
    """Mapping from surface-form stems to concepts.

    Lookup happens at the *stem* level so that inflected variants
    (``bonifico`` / ``bonifici``) hit the same concept, exactly as an
    embedding model generalizes across inflection.

    Multi-word forms are registered under the stem of each content word with
    fractional weight, which approximates the distributed representation a
    neural encoder gives to compounds.
    """

    def __init__(
        self,
        concepts: list[Concept] | None = None,
        analyzer: ItalianAnalyzer | None = None,
    ) -> None:
        self._concepts: dict[str, Concept] = {}
        #: concept_id → insertion position (how the reranker's arrays name it).
        self.positions: dict[str, int] = {}
        self._stem_to_concepts: dict[str, list[tuple[str, float]]] = {}
        # Surface forms are analyzed without stemming (the stem is applied
        # separately so inflected lookups hit the same key); pass a
        # language pack's analyzer to localize the lexicon.
        if analyzer is None:
            analyzer = ItalianAnalyzer(remove_stopwords=True, apply_stemming=False)
        self._analyzer = analyzer
        self._stem = analyzer.stem_fn if analyzer.stem_fn is not None else stem
        self._version = 0
        # analysed word → concepts_for_stem(stem(word)) as a tuple; the word
        # table of :class:`ItalianAnalyzer`, one step further.
        self._word_concepts: dict[str, tuple[tuple[str, float], ...]] = {}
        for concept in concepts or []:
            self.add(concept)

    def add(self, concept: Concept) -> None:
        """Register *concept* and index all its surface forms."""
        if concept.concept_id in self._concepts:
            raise ValueError(f"duplicate concept id: {concept.concept_id}")
        self.positions[concept.concept_id] = len(self._concepts)
        self._concepts[concept.concept_id] = concept
        self._version += 1
        self._word_concepts.clear()  # a tabled stem may gain an entry below
        for form in concept.forms:
            words = self._analyzer.analyze(form.lower())
            if not words:
                continue
            weight = 1.0 / len(words)
            for word in words:
                key = self._stem(word)
                entries = self._stem_to_concepts.setdefault(key, [])
                if all(existing_id != concept.concept_id for existing_id, _ in entries):
                    entries.append((concept.concept_id, weight))

    def get(self, concept_id: str) -> Concept:
        """Return the concept registered under *concept_id*."""
        return self._concepts[concept_id]

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self._concepts

    def __len__(self) -> int:
        return len(self._concepts)

    @property
    def version(self) -> int:
        """Bumped by every :meth:`add`; fingerprints taken under an older
        version are stale."""
        return self._version

    @property
    def concepts(self) -> list[Concept]:
        """All registered concepts, in insertion order."""
        return list(self._concepts.values())

    def concepts_for_stem(self, stemmed_token: str) -> list[tuple[str, float]]:
        """Concepts (with weights) whose surface forms contain this stem."""
        return self._stem_to_concepts.get(stemmed_token, [])

    def concept_stream(self, text: str) -> list[tuple[str, float]]:
        """The ``(concept_id, weight)`` entries of *text*'s words, in word order.

        What :meth:`concepts_in_text` accumulates.  A reader that needs the
        fingerprint of a text *and* of its parts takes the parts' streams
        once and accumulates them twice (:func:`accumulate_concepts`): the
        same additions in the same order, so the same floats.
        """
        stream: list[tuple[str, float]] = []
        table = self._word_concepts
        for word in self._analyzer.analyze(text.lower()):
            entries = table.get(word)
            if entries is None:
                entries = tuple(self.concepts_for_stem(self._stem(word)))
                remember_word(table, word, entries)
            stream.extend(entries)
        return stream

    def concepts_in_text(self, text: str) -> dict[str, float]:
        """Aggregate concept weights present in *text*.

        Returns a concept_id → accumulated weight map; this is the "meaning
        fingerprint" used by the semantic reranker and the simulated LLM.
        """
        return accumulate_concepts({}, self.concept_stream(text))

    def fingerprint(self, text: str) -> ConceptFingerprint:
        """:meth:`concepts_in_text` plus the norm, computed once per text."""
        return fingerprint_of(self.concepts_in_text(text))


def accumulate_concepts(
    weights: dict[str, float], stream: list[tuple[str, float]]
) -> dict[str, float]:
    """Add a :meth:`ConceptLexicon.concept_stream` into *weights*; returns it."""
    for concept_id, weight in stream:
        weights[concept_id] = weights.get(concept_id, 0.0) + weight
    return weights


def fingerprint_of(weights: dict[str, float]) -> ConceptFingerprint:
    """The fingerprint of accumulated concept *weights* (squares added in order)."""
    total = 0.0
    for weight in weights.values():
        total += weight * weight
    return ConceptFingerprint(weights, total ** 0.5)


def part_cosines(
    lexicon: ConceptLexicon, query: ConceptFingerprint, positions: np.ndarray,
    weights: np.ndarray, lengths, norms: np.ndarray,
) -> np.ndarray:
    """The cosine of *query* with each part of texts read as arrays (0.0
    where either is empty): part ``i`` is the next ``lengths[i]`` of
    *positions* (int32 :attr:`ConceptLexicon.positions`, distinct within a
    part) and *weights*, its norm ``norms[i]``.

    The products are added one by one in the query's first-seen concept
    order, a part without the concept adding +0.0: the same float under any
    hash seed (a set would iterate in hash order) and any Python (``sum()``
    is compensated from 3.12 on).
    """
    parts = len(norms)
    cosines, dot = np.zeros(parts), np.zeros(parts)
    if not query.weights or not parts:
        return cosines
    column_of = np.full(len(lexicon), -1, dtype=np.intp)
    column_of[[lexicon.positions[cid] for cid in query.weights]] = np.arange(len(query.weights))
    columns = column_of[positions]
    shared = np.flatnonzero(columns >= 0)
    matrix = np.zeros((len(query.weights), parts))  # a part without a concept: weight 0.0
    matrix[columns[shared], np.repeat(np.arange(parts), lengths)[shared]] = weights[shared]
    for weight, column in zip(query.weights.values(), matrix):
        dot += weight * column
    # The query's norm is not 0: its weights are positive.
    return np.divide(dot, query.norm * norms, out=cosines, where=norms != 0.0)

