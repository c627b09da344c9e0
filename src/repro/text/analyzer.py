"""Italian full-text analyzer.

Re-implements the analysis chain of Azure AI Search's
``it-analyzer-lucene-full`` that the paper relies on for BM25 full-text
retrieval (Section 4): sentence/word segmentation, elision splitting,
lower-casing, stop-word removal, and light stemming.

The analyzer is the single normalization authority for the whole library —
the inverted index, the BM25 scorer, the semantic reranker and the ROUGE
guardrail all tokenize through it so that scores are comparable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.text.stemmer import stem
from repro.text.stopwords import ITALIAN_STOPWORDS
from repro.text.tokenizer import word_tokenize

# Italian elided forms: "l'estratto" -> "l" + "estratto"; the leading
# particle is an article/preposition and is dropped as a stop word.
_ELISION_PREFIXES = frozenset(
    ["l", "un", "dell", "nell", "sull", "all", "dall", "quell", "quest", "c", "d", "m", "s", "t", "v"]
)

#: Word-table value of a token the chain drops; distinct from ``""``, which
#: a ``stem_fn`` may legitimately return.
_DROPPED = object()

#: Entries a per-word table holds before it is cleared, and the longest
#: word it stores; together they bound its bytes (DESIGN.md §19).
WORD_TABLE_CAP = 1 << 16
MAX_TABLED_CHARS = 32


def remember_word(table: dict, word: str, value: object, cap: int | None = None) -> None:
    """Store ``table[word] = value`` under the per-word tables' bound.

    User questions feed these tables, so at *cap* entries (default
    :data:`WORD_TABLE_CAP`) the table is cleared, not frozen: a frozen table
    could be filled with junk once and never serve a real word again, a
    cleared one re-warms in milliseconds.  Over-long words are not stored.
    Callers recompute on a miss, so outputs never depend on table contents.
    """
    if len(word) > MAX_TABLED_CHARS:
        return
    if len(table) >= (WORD_TABLE_CAP if cap is None else cap):
        table.clear()
    table[word] = value


@dataclass(frozen=True)
class ItalianAnalyzer:
    """Configurable Lucene-style analyzer (Italian defaults).

    The machinery — tokenization, elision handling, lower-casing, stop-word
    removal, stemming — is language-neutral; the Italian stop-word list and
    light stemmer are only *defaults*, so other language packs
    (:mod:`repro.text.english`) assemble their chains on this same class,
    which is how the paper's "adapt to other languages" future work plugs
    in.

    Each distinct surface token runs the chain once per instance: the
    result is kept in a bounded word table (see :func:`remember_word`), so
    ``analyze`` is one tokenizer pass plus one lookup per token.  The table
    is state, not identity — it takes no part in ``==``, ``hash``, ``repr``
    or ``dataclasses.replace``, and is never shared between instances,
    whose configurations map words differently.

    Args:
        remove_stopwords: drop stop words (on for indexing/search).
        apply_stemming: apply the stemmer (on for indexing/search).
        extra_stopwords: domain-specific stop words to remove in addition
            to the language's standard list.
        stopword_set: the language's stop words (None → Italian).
        stem_fn: the language's stemmer (None → the Italian light stemmer).
    """

    remove_stopwords: bool = True
    apply_stemming: bool = True
    extra_stopwords: frozenset[str] = field(default_factory=frozenset)
    stopword_set: frozenset[str] | None = None
    stem_fn: Callable[[str], str] | None = None

    # raw surface token (as word_tokenize yields it) → index term or _DROPPED
    _word_table: dict[str, object] = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    def analyze(self, text: str) -> list[str]:
        """Analyze *text* into a list of normalized index terms."""
        table = self._word_table
        terms: list[str] = []
        for raw in word_tokenize(text):
            term = table.get(raw)
            if term is None:
                term = self._normalize_word(raw)
            if term is not _DROPPED:
                terms.append(term)
        return terms

    def analyze_unique(self, text: str) -> set[str]:
        """Analyze *text* and return the set of distinct terms."""
        return set(self.analyze(text))

    def fingerprint(self) -> dict:
        """A JSON-able identity of the chain.

        A persisted index records it, so that a load which would analyse
        queries and later writes with another chain is refused instead of
        silently mixing two term spaces.
        """
        base = self.stopword_set if self.stopword_set is not None else ITALIAN_STOPWORDS
        stopwords = "\n".join(sorted(base | self.extra_stopwords))
        stem_fn = self.stem_fn if self.stem_fn is not None else stem
        return {
            "remove_stopwords": self.remove_stopwords,
            "apply_stemming": self.apply_stemming,
            "stopwords": hashlib.sha256(stopwords.encode("utf-8")).hexdigest()[:16],
            "stemmer": f"{stem_fn.__module__}.{stem_fn.__qualname__}",
        }

    def _normalize_word(self, raw: str) -> object:
        """The chain for one surface token, run on a word-table miss."""
        piece = self._split_elision(raw.lower())
        if self.remove_stopwords and self._is_stopword(piece):
            term: object = _DROPPED
        elif self.apply_stemming:
            term = (self.stem_fn if self.stem_fn is not None else stem)(piece)
        else:
            term = piece
        remember_word(self._word_table, raw, term)
        return term

    def _split_elision(self, token: str) -> str:
        if "'" not in token:
            return token
        head, _, tail = token.partition("'")
        if head in _ELISION_PREFIXES and tail:
            # The elided particle is an article/preposition; Lucene's
            # elision filter drops it outright.
            return tail
        return token.replace("'", "")

    def _is_stopword(self, token: str) -> bool:
        base = self.stopword_set if self.stopword_set is not None else ITALIAN_STOPWORDS
        return token in base or token in self.extra_stopwords


#: Analyzer with the full chain, the configuration used by the search index.
FULL_ANALYZER = ItalianAnalyzer()

#: Analyzer that keeps stop words and inflection; used where surface overlap
#: matters (ROUGE guardrail, Jaccard question matching).
SURFACE_ANALYZER = ItalianAnalyzer(remove_stopwords=False, apply_stemming=False)
