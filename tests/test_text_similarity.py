"""Unit tests for LCS, ROUGE-L and Jaccard similarity."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.similarity import (
    jaccard,
    lcs_length,
    rouge_l,
    rouge_l_score,
    rouge_l_tokens,
    rouge_tokens,
)


def lcs_length_dp(a: list[str], b: list[str]) -> int:
    """The classic O(len(a)*len(b)) dynamic program: the oracle for the
    bit-parallel :func:`lcs_length`."""
    previous = [0] * (len(b) + 1)
    for token_a in a:
        current = [0] * (len(b) + 1)
        for j, token_b in enumerate(b, start=1):
            if token_a == token_b:
                current[j] = previous[j - 1] + 1
            else:
                current[j] = max(previous[j], current[j - 1])
        previous = current
    return previous[len(b)]


# A small alphabet makes matches, repeats and long common subsequences likely.
_tokens = st.sampled_from(["a", "b", "c", "d", "il", "la", "carta", "conto"])


class TestLcs:
    def test_identical(self):
        assert lcs_length(list("abc"), list("abc")) == 3

    def test_disjoint(self):
        assert lcs_length(list("abc"), list("xyz")) == 0

    def test_subsequence_not_substring(self):
        assert lcs_length(list("axbxc"), list("abc")) == 3

    def test_empty_inputs(self):
        assert lcs_length([], list("abc")) == 0
        assert lcs_length(list("abc"), []) == 0

    def test_symmetry(self):
        a = "la procedura per attivare".split()
        b = "procedura di attivazione per il cliente".split()
        assert lcs_length(a, b) == lcs_length(b, a)

    def test_bounded_by_shorter_sequence(self):
        a = "uno due tre quattro cinque".split()
        b = "uno due".split()
        assert lcs_length(a, b) <= len(b)

    @given(st.lists(_tokens, max_size=40), st.lists(_tokens, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_equals_dp_oracle(self, a, b):
        assert lcs_length(a, b) == lcs_length_dp(a, b)

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 400])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_equals_dp_oracle_across_word_boundaries(self, width, data):
        b = data.draw(st.lists(_tokens, min_size=width, max_size=width))
        a = data.draw(st.lists(_tokens, max_size=450))
        assert lcs_length(a, b) == lcs_length_dp(a, b)
        assert lcs_length(b, a) == lcs_length_dp(b, a)

    @pytest.mark.parametrize("n, m", [(0, 5), (5, 0), (1, 1), (7, 3), (64, 64), (130, 65)])
    def test_single_repeated_token(self, n, m):
        assert lcs_length(["x"] * n, ["x"] * m) == min(n, m)
        assert lcs_length(["x"] * n, ["y"] * m) == 0


class TestRougeL:
    def test_token_form_is_the_same_score(self):
        candidate = "attivare la carta del cliente"
        reference = "la carta del cliente va attivata in filiale"
        assert rouge_l_tokens(rouge_tokens(candidate), rouge_tokens(reference)) == rouge_l_score(
            candidate, reference
        )

    def test_identical_texts_score_one(self):
        text = "Per attivare la carta accedere al portale."
        assert rouge_l(text, text) == pytest.approx(1.0)

    def test_unrelated_texts_score_low(self):
        assert rouge_l("la carbonara è una ricetta romana", "attivare il token di sicurezza") < 0.1

    def test_empty_candidate(self):
        assert rouge_l("", "qualcosa di concreto") == 0.0

    def test_score_in_unit_interval(self):
        score = rouge_l("attivare la carta del cliente", "la carta del cliente va attivata in filiale")
        assert 0.0 <= score <= 1.0

    def test_precision_recall_decomposition(self):
        score = rouge_l_score("a b c", "a b c d e f")
        assert score.precision == pytest.approx(1.0)
        assert score.recall == pytest.approx(0.5)
        assert score.precision >= score.fmeasure >= score.recall

    def test_guardrail_threshold_separates_grounded_from_hallucinated(self):
        context = (
            "Per attivare la carta di credito occorre accedere a GestCarte, "
            "selezionare la funzione dedicata e confermare l'operazione."
        )
        grounded = "Per attivare la carta di credito occorre accedere a GestCarte [doc1]."
        hallucinated = "Il mutuo ipotecario prevede una rata mensile da concordare con la filiale."
        assert rouge_l(grounded, context) >= 0.15
        assert rouge_l(hallucinated, context) < 0.15


class TestJaccard:
    def test_identical(self):
        assert jaccard("carta di credito", "carta di credito") == pytest.approx(1.0)

    def test_disjoint(self):
        assert jaccard("bonifico estero", "stampante di rete") == 0.0

    def test_stopwords_ignored(self):
        # Only content words participate, per the UAT construction.
        assert jaccard("la carta", "carta") == pytest.approx(1.0)

    def test_symmetry(self):
        a, b = "attivare carta credito", "carta credito bloccata"
        assert jaccard(a, b) == pytest.approx(jaccard(b, a))

    def test_empty_both(self):
        assert jaccard("", "") == 0.0
