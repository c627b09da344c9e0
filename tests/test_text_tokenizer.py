"""Unit tests for word/sentence tokenization and LLM token counting."""

from __future__ import annotations

import pytest

from repro.text.tokenizer import (
    DEFAULT_TOKEN_COUNTER,
    TokenCounter,
    count_tokens,
    sentence_split,
    word_tokenize,
)


class TestWordTokenize:
    def test_plain_words(self):
        assert word_tokenize("attivare la carta") == ["attivare", "la", "carta"]

    def test_accented_words_preserved(self):
        assert word_tokenize("già però più") == ["già", "però", "più"]

    def test_elided_word_kept_whole(self):
        assert word_tokenize("l'estratto conto") == ["l'estratto", "conto"]

    def test_error_codes_are_single_tokens(self):
        assert "ERR-4821" in word_tokenize("segnala ERR-4821 al supporto")

    def test_numbers(self):
        assert word_tokenize("entro 2 giorni") == ["entro", "2", "giorni"]

    def test_decimal_number_single_token(self):
        assert word_tokenize("tasso 3,50 percento")[1] == "3,50"

    def test_empty_string(self):
        assert word_tokenize("") == []

    def test_punctuation_dropped(self):
        assert word_tokenize("ciao, mondo!") == ["ciao", "mondo"]


class TestSentenceSplit:
    def test_basic_split(self):
        sentences = sentence_split("Prima frase. Seconda frase.")
        assert sentences == ["Prima frase.", "Seconda frase."]

    def test_split_on_newlines(self):
        sentences = sentence_split("titolo senza punto\n\nIl contenuto segue.")
        assert sentences == ["titolo senza punto", "Il contenuto segue."]

    def test_question_and_exclamation(self):
        sentences = sentence_split("Come fare? Basta chiedere! Tutto chiaro.")
        assert len(sentences) == 3

    def test_empty(self):
        assert sentence_split("   ") == []

    def test_single_sentence_untouched(self):
        assert sentence_split("Nessuna divisione qui") == ["Nessuna divisione qui"]


class TestTokenCounter:
    def test_empty_costs_zero(self):
        assert count_tokens("") == 0

    def test_short_word_costs_one(self):
        assert count_tokens("ciao") == 1

    def test_long_words_cost_more(self):
        assert count_tokens("amministrazione") > 1

    def test_counts_are_additive_over_words(self):
        a, b = "bonifico", "internazionale"
        assert count_tokens(f"{a} {b}") == count_tokens(a) + count_tokens(b)

    def test_roughly_four_chars_per_token(self):
        text = " ".join(["parola"] * 100)
        # 6-char words cost 1 + (6-4)//4 = 1 token each.
        assert count_tokens(text) == 100

    def test_truncate_respects_budget(self):
        counter = TokenCounter()
        text = " ".join(["parola"] * 50)
        truncated = counter.truncate(text, 10)
        assert counter.count(truncated) <= 10

    def test_truncate_keeps_word_boundaries(self):
        counter = TokenCounter()
        truncated = counter.truncate("alfa beta gamma", 2)
        assert truncated in ("alfa beta", "alfa")

    def test_truncate_zero_budget(self):
        assert DEFAULT_TOKEN_COUNTER.truncate("qualcosa", 0) == ""

    @pytest.mark.parametrize("word,expected", [("a", 1), ("abcd", 1), ("abcdefgh", 2), ("abcdefghijkl", 3)])
    def test_per_word_cost_schedule(self, word, expected):
        assert count_tokens(word) == expected

    def test_closed_form_equals_the_word_loop(self):
        """``count`` charges ``max(1, n // s)`` per word; the loop it
        replaced charged ``1 + max(0, n - s) // s``.  Equal for every word
        length and step, and so for every text."""

        def loop_count(text: str, step: int) -> int:
            if not text:
                return 0
            total = 0
            for word in text.split():
                extra = max(0, len(word) - step)
                total += 1 + extra // step
            return total

        for step in range(1, 9):
            counter = TokenCounter(chars_per_extra_token=step)
            words = ["x" * n for n in range(1, 65)]
            for word in words:
                assert counter.count(word) == loop_count(word, step), (len(word), step)
            text = "  ".join(words) + "\n\tè l'ultima  riga \n"
            assert counter.count(text) == loop_count(text, step)
            assert counter.count("") == counter.count(" \n\t ") == 0
