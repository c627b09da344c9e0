"""Text analysis substrate: tokenization, Italian analysis, similarity."""

from repro.text.analyzer import FULL_ANALYZER, SURFACE_ANALYZER, ItalianAnalyzer
from repro.text.similarity import RougeLScore, jaccard, lcs_length, rouge_l, rouge_l_score
from repro.text.stemmer import remove_accents, stem, stem_tokens
from repro.text.stopwords import ITALIAN_STOPWORDS
from repro.text.tokenizer import (
    DEFAULT_TOKEN_COUNTER,
    TokenCounter,
    count_tokens,
    sentence_split,
    word_tokenize,
)

__all__ = [
    "FULL_ANALYZER",
    "SURFACE_ANALYZER",
    "ItalianAnalyzer",
    "RougeLScore",
    "jaccard",
    "lcs_length",
    "rouge_l",
    "rouge_l_score",
    "remove_accents",
    "stem",
    "stem_tokens",
    "ITALIAN_STOPWORDS",
    "DEFAULT_TOKEN_COUNTER",
    "TokenCounter",
    "count_tokens",
    "sentence_split",
    "word_tokenize",
]
