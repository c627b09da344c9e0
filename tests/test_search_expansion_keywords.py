"""Unit tests for query expansion variants and LLM keyword enrichment."""

from __future__ import annotations

import pytest

from repro.pipeline.enrichment import MetadataEnricher, extract_llm_keywords
from repro.search.expansion import Mq1Expansion, Mq2Expansion, QgaExpansion


@pytest.fixture(scope="module")
def searcher(system):
    return system.searcher


@pytest.fixture(scope="module")
def llm(system):
    return system.llm


class TestQgaExpansion:
    def test_expansion_appends_blind_answer(self, searcher, llm):
        qga = QgaExpansion(searcher, llm)
        expanded = qga.expand("Come posso attivare la carta di credito?")
        assert expanded.startswith("Come posso attivare la carta di credito?")
        assert len(expanded) > len("Come posso attivare la carta di credito?") + 20

    def test_search_returns_results(self, searcher, llm):
        qga = QgaExpansion(searcher, llm)
        assert qga.search("Come posso attivare la carta di credito?")


class TestMultiQueryExpansion:
    def test_mq1_generates_original_plus_related(self, searcher, llm):
        mq1 = Mq1Expansion(searcher, llm, num_queries=3)
        queries = mq1.generate_queries("Come posso attivare la carta di credito?")
        assert queries[0] == "Come posso attivare la carta di credito?"
        assert len(queries) == 4

    def test_mq1_search_returns_fused_ranking(self, searcher, llm):
        mq1 = Mq1Expansion(searcher, llm, num_queries=2)
        results = mq1.search("Come posso attivare la carta di credito?")
        assert results
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_mq2_search_returns_results(self, searcher, llm):
        mq2 = Mq2Expansion(searcher, llm, num_queries=2)
        assert mq2.search("Come posso attivare la carta di credito?")

    def test_invalid_num_queries(self, searcher, llm):
        with pytest.raises(ValueError):
            Mq1Expansion(searcher, llm, num_queries=0)

    def test_mq2_mean_embedding_is_normalized(self, searcher, llm):
        """MQ2 must not degrade into an unnormalized vector query."""
        import numpy as np

        mq2 = Mq2Expansion(searcher, llm, num_queries=3)
        queries = mq2.generate_queries("Come posso attivare la carta di credito?")
        embedder = searcher.index.embedder
        vectors = np.stack([embedder.embed(q) for q in queries])
        mean = vectors.mean(axis=0)
        mean /= np.linalg.norm(mean)
        assert np.isfinite(mean).all()


class TestKeywordEnrichment:
    def test_extract_from_title_only(self, llm):
        keywords = extract_llm_keywords(llm, "Attivare la carta di credito tramite GestCarte")
        assert any("carta" in keyword for keyword in keywords)

    def test_extract_with_content_sees_more(self, llm):
        title_only = extract_llm_keywords(llm, "Guida operativa")
        with_content = extract_llm_keywords(
            llm, "Guida operativa", "Per attivare il bonifico accedere a TesoNet."
        )
        assert len(with_content) >= len(title_only)

    def test_enricher_variants(self, llm):
        title = "Attivare la carta di credito"
        text = "Per attivare la carta di credito accedere a GestCarte."
        assert MetadataEnricher(llm).enrich(title, text).keywords == ()
        kt = MetadataEnricher(llm, "kt").enrich(title, text)
        ktc = MetadataEnricher(llm, "ktc").enrich(title, text)
        assert kt.keywords == extract_llm_keywords(llm, title)
        assert ktc.keywords == extract_llm_keywords(llm, title, text)
        assert kt.summary == ktc.summary

    def test_invalid_variant(self, llm):
        with pytest.raises(ValueError):
            MetadataEnricher(llm, "full")
