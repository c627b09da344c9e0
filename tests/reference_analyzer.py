"""The analysis chain and the concept fingerprint as they stood before each
word was normalised once (PR 17).

Test oracle only: :mod:`tests.test_text_word_table` runs these functions and
the serving :class:`~repro.text.analyzer.ItalianAnalyzer` /
:class:`~repro.embeddings.concepts.ConceptLexicon` on the same inputs and
requires equal term lists, equal concept order and equal float bits.  The
bodies are the parent commit's ``analyze`` / ``_split_elision`` /
``_is_stopword`` / ``concepts_in_text`` / ``fingerprint`` unchanged except
that ``self`` became an argument: every token occurrence runs the whole
lower-case → elision → stop-word → stem chain, and every analysed word is
stemmed and looked up again.  Do not optimise this file.
"""

from __future__ import annotations

from repro.embeddings.concepts import ConceptFingerprint, ConceptLexicon
from repro.text.analyzer import ItalianAnalyzer
from repro.text.stemmer import stem
from repro.text.stopwords import ITALIAN_STOPWORDS
from repro.text.tokenizer import word_tokenize

_ELISION_PREFIXES = frozenset(
    ["l", "un", "dell", "nell", "sull", "all", "dall", "quell", "quest", "c", "d", "m", "s", "t", "v"]
)


def analyze(analyzer: ItalianAnalyzer, text: str) -> list[str]:
    """Analyze *text* into a list of normalized index terms."""
    stem_word = analyzer.stem_fn if analyzer.stem_fn is not None else stem
    terms: list[str] = []
    for raw in word_tokenize(text):
        lowered = raw.lower()
        for piece in _split_elision(lowered):
            if analyzer.remove_stopwords and _is_stopword(analyzer, piece):
                continue
            terms.append(stem_word(piece) if analyzer.apply_stemming else piece)
    return terms


def _split_elision(token: str) -> list[str]:
    if "'" not in token:
        return [token]
    head, _, tail = token.partition("'")
    if head in _ELISION_PREFIXES and tail:
        return [tail]
    return [token.replace("'", "")]


def _is_stopword(analyzer: ItalianAnalyzer, token: str) -> bool:
    base = analyzer.stopword_set if analyzer.stopword_set is not None else ITALIAN_STOPWORDS
    return token in base or token in analyzer.extra_stopwords


def concepts_in_text(lexicon: ConceptLexicon, text: str) -> dict[str, float]:
    """Aggregate concept weights present in *text*."""
    weights: dict[str, float] = {}
    for word in analyze(lexicon._analyzer, text.lower()):
        for concept_id, weight in lexicon.concepts_for_stem(lexicon._stem(word)):
            weights[concept_id] = weights.get(concept_id, 0.0) + weight
    return weights


def fingerprint(lexicon: ConceptLexicon, text: str) -> ConceptFingerprint:
    """:func:`concepts_in_text` plus the norm."""
    weights = concepts_in_text(lexicon, text)
    return ConceptFingerprint(weights, sum(w * w for w in weights.values()) ** 0.5)
