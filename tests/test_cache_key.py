"""Unit tests for the cache keys of :mod:`repro.cache.key`."""

from __future__ import annotations

import pytest

from repro.cache.key import answer_cache_key, filters_key, retrieval_cache_key
from repro.text.analyzer import FULL_ANALYZER

QUESTION = "Come sbloccare la carta di credito?"


class TestFiltersKey:
    @pytest.mark.parametrize("filters", [None, {}])
    def test_no_filters_is_the_empty_tuple(self, filters):
        assert filters_key(filters) == ()

    def test_order_insensitive(self):
        a = filters_key({"domain": "carte", "section": "faq"})
        b = filters_key({"section": "faq", "domain": "carte"})
        assert a == b == (("domain", "carte"), ("section", "faq"))


class TestAnswerCacheKey:
    def test_casing_punctuation_and_plurals_share_a_key(self):
        a = answer_cache_key("Come sbloccare la carta?", None, FULL_ANALYZER)
        b = answer_cache_key("come sbloccare le carte", None, FULL_ANALYZER)
        c = answer_cache_key("COME SBLOCCARE LA CARTA!!", None, FULL_ANALYZER)
        assert a == b == c

    def test_key_is_the_analyzed_terms(self):
        terms, filters = answer_cache_key(QUESTION, None, FULL_ANALYZER)
        assert terms == tuple(FULL_ANALYZER.analyze(QUESTION))
        assert filters == ()

    def test_stop_word_question_falls_back_to_its_surface(self):
        assert FULL_ANALYZER.analyze("Il lo") == []
        assert answer_cache_key("Il lo", None, FULL_ANALYZER) == (("il", "lo"), ())

    def test_degenerate_questions_do_not_collide(self):
        a = answer_cache_key("il lo", None, FULL_ANALYZER)
        b = answer_cache_key("la le", None, FULL_ANALYZER)
        assert a != b
        assert a[0] and b[0]

    def test_filters_separate_keys(self):
        plain = answer_cache_key(QUESTION, None, FULL_ANALYZER)
        filtered = answer_cache_key(QUESTION, {"domain": "carte"}, FULL_ANALYZER)
        assert plain[0] == filtered[0]
        assert plain != filtered

    def test_filter_order_does_not_matter(self):
        a = answer_cache_key(QUESTION, {"domain": "carte", "section": "faq"}, FULL_ANALYZER)
        b = answer_cache_key(QUESTION, {"section": "faq", "domain": "carte"}, FULL_ANALYZER)
        assert a == b


class TestRetrievalCacheKey:
    BASE = dict(filters=None, mode="hybrid", text_n=50, vector_k=50)

    def test_keys_on_the_raw_query(self):
        a = retrieval_cache_key("carta di credito", **self.BASE)
        b = retrieval_cache_key("Carta di credito", **self.BASE)
        assert a != b

    def test_equal_inputs_give_equal_keys(self):
        filters = {"domain": "carte", "section": "faq"}
        reordered = {"section": "faq", "domain": "carte"}
        base = {**self.BASE, "filters": filters}
        assert retrieval_cache_key("carta", **base) == retrieval_cache_key(
            "carta", **{**base, "filters": reordered}
        )

    @pytest.mark.parametrize(
        "change",
        [{"mode": "text"}, {"text_n": 20}, {"vector_k": 20}, {"filters": {"domain": "conti"}}],
    )
    def test_every_leg_parameter_is_part_of_the_key(self, change):
        base = retrieval_cache_key("carta", **self.BASE)
        assert retrieval_cache_key("carta", **{**self.BASE, **change}) != base
