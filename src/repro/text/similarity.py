"""Text similarity measures used by guardrails and dataset construction.

* :func:`rouge_l` — the ROUGE-L F-measure (Lin, 2004) that drives the paper's
  primary hallucination guardrail (Section 6, threshold 0.15).
* :func:`lcs_length` — longest common subsequence, the core of ROUGE-L.
* :func:`rouge_tokens` / :func:`rouge_l_tokens` — the same score over
  pre-analyzed token lists, for one text compared against many.
* :func:`jaccard` — Jaccard similarity on non-stop terms, used by the UAT
  dataset construction (Section 8) to pick human questions similar to
  frequent log queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.text.analyzer import FULL_ANALYZER, SURFACE_ANALYZER, ItalianAnalyzer


def lcs_length(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence of token lists *a* and *b*.

    Exact bit-parallel LCS (Allison–Dix, in Hyyrö's add/or/sub form) over
    Python integers: bit *j* of the row vector is clear when the DP row
    grows at column *j*, so one row update is ``V = (V + (V & M)) | (V - (V & M))``
    with *M* the positions of the current token in *b*, and the answer is
    the number of clear bits.  O(len(a)) big-integer operations instead of
    O(len(a)·len(b)) comparisons.
    """
    if not a or not b:
        return 0
    # The shorter sequence sets the width of the integers.
    if len(b) > len(a):
        a, b = b, a
    masks: dict[str, int] = {}
    bit = 1
    for token in b:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    full = bit - 1
    row = full
    for token in a:
        mask = masks.get(token)
        if mask is None:
            continue
        matched = row & mask
        row = (row + matched) | (row - matched)
    # Carries past the top column pile up above ``full`` and never flow back.
    return len(b) - (row & full).bit_count()


@dataclass(frozen=True)
class RougeLScore:
    """Precision/recall/F decomposition of a ROUGE-L comparison."""

    precision: float
    recall: float
    fmeasure: float


def rouge_l_score(
    candidate: str,
    reference: str,
    analyzer: ItalianAnalyzer = SURFACE_ANALYZER,
    beta: float = 1.2,
) -> RougeLScore:
    """Full ROUGE-L score of *candidate* against *reference*.

    Follows Lin (2004): P = LCS/len(candidate), R = LCS/len(reference),
    F = ((1+beta^2) P R) / (R + beta^2 P).  Tokenization keeps stop words
    (surface analyzer) because ROUGE is a surface measure.
    """
    return rouge_l_tokens(
        rouge_tokens(candidate, analyzer), rouge_tokens(reference, analyzer), beta
    )


def rouge_tokens(text: str, analyzer: ItalianAnalyzer = SURFACE_ANALYZER) -> list[str]:
    """The token list ROUGE-L compares; analyze a text compared many times once."""
    return analyzer.analyze(text)


def rouge_l_tokens(
    candidate_tokens: list[str], reference_tokens: list[str], beta: float = 1.2
) -> RougeLScore:
    """:func:`rouge_l_score` over token lists from :func:`rouge_tokens`."""
    if not candidate_tokens or not reference_tokens:
        return RougeLScore(0.0, 0.0, 0.0)
    lcs = lcs_length(candidate_tokens, reference_tokens)
    precision = lcs / len(candidate_tokens)
    recall = lcs / len(reference_tokens)
    if precision == 0.0 and recall == 0.0:
        return RougeLScore(0.0, 0.0, 0.0)
    beta_sq = beta * beta
    fmeasure = (1 + beta_sq) * precision * recall / (recall + beta_sq * precision)
    return RougeLScore(precision, recall, fmeasure)


def rouge_l(candidate: str, reference: str) -> float:
    """ROUGE-L F-measure, the scalar the guardrail thresholds on."""
    return rouge_l_score(candidate, reference).fmeasure


def jaccard(a: str, b: str, analyzer: ItalianAnalyzer = FULL_ANALYZER) -> float:
    """Jaccard similarity of the non-stop term sets of *a* and *b*."""
    set_a = analyzer.analyze_unique(a)
    set_b = analyzer.analyze_unique(b)
    if not set_a and not set_b:
        return 0.0
    union = set_a | set_b
    if not union:
        return 0.0
    return len(set_a & set_b) / len(union)
