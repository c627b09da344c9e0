"""Unit tests for query dataset generation and the query log."""

from __future__ import annotations

import random

import pytest

from repro.corpus.log import simulate_query_log
from repro.corpus.queries import (
    KIND_ERROR_CODE,
    KIND_HUMAN,
    KIND_KEYWORD,
    KIND_OUT_OF_SCOPE,
    KIND_SPECIAL,
    HumanDatasetConfig,
    KeywordDatasetConfig,
    build_uat_dataset,
    generate_error_code_queries,
    generate_human_dataset,
    generate_keyword_dataset,
    generate_out_of_scope_queries,
    generate_special_cases,
)


class TestHumanDataset:
    def test_count_and_kind(self, small_kb):
        queries = generate_human_dataset(small_kb, HumanDatasetConfig(num_questions=50))
        assert len(queries) == 50
        assert all(q.kind == KIND_HUMAN for q in queries)

    def test_ground_truth_attached(self, small_kb):
        queries = generate_human_dataset(small_kb, HumanDatasetConfig(num_questions=50))
        assert all(q.relevant_docs for q in queries)
        assert all(q.answer for q in queries)

    def test_relevant_docs_exist(self, small_kb):
        store = small_kb.store()
        queries = generate_human_dataset(small_kb, HumanDatasetConfig(num_questions=30))
        for query in queries:
            for doc_id in query.relevant_docs:
                assert doc_id in store

    def test_deterministic(self, small_kb):
        config = HumanDatasetConfig(num_questions=20, seed=123)
        a = generate_human_dataset(small_kb, config)
        b = generate_human_dataset(small_kb, config)
        assert [q.text for q in a] == [q.text for q in b]

    def test_questions_are_natural_language(self, small_kb):
        queries = generate_human_dataset(small_kb, HumanDatasetConfig(num_questions=40))
        question_like = sum(1 for q in queries if "?" in q.text)
        assert question_like >= 35

    def test_synonym_usage_present(self, small_kb):
        """A meaningful share of questions must avoid the canonical entity term."""
        queries = generate_human_dataset(
            small_kb, HumanDatasetConfig(num_questions=100, p_canonical_entity=0.0)
        )
        canonical_forms = {e.canonical for e in small_kb.vocabulary.entities}
        with_canonical = sum(
            1 for q in queries if any(form in q.text for form in canonical_forms)
        )
        # Only oblique-mode distractors may name a canonical entity.
        assert with_canonical < len(queries) / 2

    def test_unique_ids(self, small_kb):
        queries = generate_human_dataset(small_kb, HumanDatasetConfig(num_questions=30))
        assert len({q.query_id for q in queries}) == 30


class TestKeywordDataset:
    def test_generation(self, small_kb):
        queries, log = generate_keyword_dataset(
            small_kb, KeywordDatasetConfig(num_queries=30, log_searches=2000)
        )
        assert len(queries) == 30
        assert all(q.kind == KIND_KEYWORD for q in queries)
        assert len(log) == 2000

    def test_queries_are_short(self, small_kb):
        queries, _ = generate_keyword_dataset(
            small_kb, KeywordDatasetConfig(num_queries=30, log_searches=2000)
        )
        assert all(len(q.text.split()) <= 5 for q in queries)

    def test_ground_truth_bounded(self, small_kb):
        queries, _ = generate_keyword_dataset(
            small_kb, KeywordDatasetConfig(num_queries=30, log_searches=2000, max_relevant=4)
        )
        assert all(1 <= len(q.relevant_docs) <= 4 for q in queries)

    def test_sampled_from_log(self, small_kb):
        queries, log = generate_keyword_dataset(
            small_kb, KeywordDatasetConfig(num_queries=30, log_searches=2000)
        )
        logged = {entry.query for entry in log.entries}
        assert all(q.text in logged for q in queries)


class TestQueryLog:
    def test_zipf_popularity(self):
        pool = [f"query {i}" for i in range(50)]
        log = simulate_query_log(pool, total_searches=5000, seed=1)
        counts = log.counts()
        # The head of the pool must dominate the tail.
        assert counts["query 0"] > counts["query 40"]

    def test_most_frequent_ordering(self):
        pool = ["a", "b", "c"]
        log = simulate_query_log(pool, total_searches=300, seed=2)
        frequent = log.most_frequent(3)
        counts = log.counts()
        assert counts[frequent[0]] >= counts[frequent[1]] >= counts[frequent[2]]

    def test_sample_frequent_distinct(self):
        pool = [f"q{i}" for i in range(30)]
        log = simulate_query_log(pool, total_searches=3000, seed=3)
        sample = log.sample_frequent(10, random.Random(0))
        assert len(sample) == len(set(sample)) == 10

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            simulate_query_log([], total_searches=10)


class TestCornerAndSpecialCases:
    def test_out_of_scope(self):
        queries = generate_out_of_scope_queries(10)
        assert len(queries) == 10
        assert all(q.kind == KIND_OUT_OF_SCOPE and not q.relevant_docs for q in queries)

    def test_error_code_queries(self, small_kb):
        queries = generate_error_code_queries(small_kb, count=8)
        assert len(queries) == 8
        for query in queries:
            assert query.kind == KIND_ERROR_CODE
            assert len(query.relevant_docs) == 1
            assert "ERR-" in query.text

    def test_special_cases_mutations(self, small_kb):
        base = generate_human_dataset(small_kb, HumanDatasetConfig(num_questions=10))
        special = generate_special_cases(base, count=8)
        assert len(special) == 8
        assert all(q.kind == KIND_SPECIAL for q in special)
        assert any(q.text.isupper() for q in special)

    def test_special_cases_keep_ground_truth(self, small_kb):
        base = generate_human_dataset(small_kb, HumanDatasetConfig(num_questions=10))
        special = generate_special_cases(base, count=4)
        assert all(q.relevant_docs for q in special)

    def test_special_cases_empty_base(self):
        assert generate_special_cases([], count=5) == []


class TestUatDataset:
    def test_composition(self, small_kb):
        human = generate_human_dataset(small_kb, HumanDatasetConfig(num_questions=200))
        keyword, log = generate_keyword_dataset(
            small_kb, KeywordDatasetConfig(num_queries=60, log_searches=3000)
        )
        uat = build_uat_dataset(small_kb, human, keyword, log)
        assert len(uat.log_similar_human) == 70
        assert len(uat.sme_chosen) == 50
        assert len(uat.frequent_keywords) == 50
        assert len(uat.out_of_scope) == 10
        assert len(uat.error_codes) == 20
        assert len(uat.special_cases) == 10
        assert len(uat.all_queries) == 210

    def test_log_similar_selection_uses_jaccard(self, small_kb):
        """The 70 selected questions must be closer to the log than the rest."""
        from repro.text.similarity import jaccard

        human = generate_human_dataset(small_kb, HumanDatasetConfig(num_questions=200))
        keyword, log = generate_keyword_dataset(
            small_kb, KeywordDatasetConfig(num_queries=60, log_searches=3000)
        )
        uat = build_uat_dataset(small_kb, human, keyword, log)
        frequent = log.most_frequent(100)

        def proximity(query):
            return max((jaccard(query.text, lq) for lq in frequent), default=0.0)

        selected = sum(proximity(q) for q in uat.log_similar_human) / 70
        rest = [q for q in human if q not in uat.log_similar_human]
        others = sum(proximity(q) for q in rest) / len(rest)
        assert selected > others

