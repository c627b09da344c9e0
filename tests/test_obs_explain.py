"""Query-level explain reports: score provenance end to end.

The acceptance bar of the explain pipeline is *exactness*: for every
returned chunk, the sum of its ``rrf_*`` contributions must reproduce the
fused score bit for bit, and ``fused + rerank_adjust`` must reproduce the
final score bit for bit — `==`, not `pytest.approx`.
"""

from __future__ import annotations

import json

import pytest

from repro.api import AskOptions, AskRequest, CacheConfig, create_engine
from repro.cluster.config import ClusterConfig
from repro.core.config import UniAskConfig
from repro.obs.explain import ExplainReport, build_explain_report
from repro.search.results import RetrievedChunk
from repro.search.schema import ChunkRecord


def _chunk(chunk_id: str, components: dict[str, float], score: float) -> RetrievedChunk:
    record = ChunkRecord(
        chunk_id=chunk_id, doc_id=chunk_id.split("#")[0], title=f"t-{chunk_id}", content="c"
    )
    return RetrievedChunk(record=record, score=score, components=components)


class TestExplainReportUnit:
    def build_report(self) -> ExplainReport:
        first = _chunk(
            "doc-a#0",
            {
                "bm25_title": 4.2,
                "bm25_title:carta": 4.2,
                "cosine_content": 0.81,
                "rrf_text": 1.0 / 61.0,
                "rrf_vector_content": 1.0 / 62.0,
                "rerank_adjust": 3.0,
                "shard": 2.0,
            },
            score=1.0 / 61.0 + 1.0 / 62.0 + 3.0,
        )
        second = _chunk(
            "doc-b#0",
            {
                "rrf_text": 1.0 / 62.0,
                "rrf_vector_content": 1.0 / 61.0,
                "rerank_adjust": 1.5,
            },
            score=1.0 / 62.0 + 1.0 / 61.0 + 1.5,
        )
        return build_explain_report("q", [first, second], rrf_c=60.0)

    def test_sums_exact_and_leg_ranks(self):
        report = self.build_report()
        assert report.sums_exact
        top = report.entry(1)
        assert top.leg_ranks == {"rrf_text": 1, "rrf_vector_content": 2}
        assert top.rerank_adjust == 3.0
        assert top.shard == 2
        # Attribution metadata and per-leg raw scores never count as
        # additive components.
        assert "shard" not in top.leg_scores
        assert top.fused_score + top.rerank_adjust == top.final_score

    def test_exactness_check_catches_corruption(self):
        broken = _chunk(
            "doc-c#0",
            {"rrf_text": 1.0 / 61.0, "rerank_adjust": 1.0},
            score=1.0 / 61.0 + 1.0 + 1e-9,
        )
        report = build_explain_report("q", [broken], rrf_c=60.0)
        assert not report.sums_exact

    def test_why_beaten_orders_by_gap(self):
        report = self.build_report()
        diffs = report.why_beaten(2, by=1)
        assert diffs[0].component == "rerank_adjust"
        assert diffs[0].delta == pytest.approx(-1.5)
        # Every compared component is an additive score term.
        assert all(
            d.component.startswith("rrf_") or d.component == "rerank_adjust" for d in diffs
        )

    def test_json_round_trip(self):
        report = self.build_report()
        payload = json.loads(report.to_json())
        assert payload["sums_exact"] is True
        assert payload["entries"][0]["chunk_id"] == "doc-a#0"
        assert payload["entries"][0]["leg_ranks"] == {"rrf_text": 1, "rrf_vector_content": 2}

    def test_format_report_renders_provenance(self):
        text = self.build_report().format_report()
        assert "sums_exact=True" in text
        assert "#1 doc-a#0" in text
        assert "rrf_text" in text and "(rank 1)" in text
        assert "top terms: carta=4.200" in text
        assert "vs #1:" in text


class TestEngineExplain:
    def test_explain_attaches_exact_report(self, system):
        request = AskRequest("come sbloccare la carta di credito", AskOptions(explain=True))
        response = system.engine.answer(request)
        report = response.answer.explain_report
        assert report is not None
        assert response.explain is report
        assert report.sums_exact
        assert len(report.entries) == len(response.answer.documents)
        for entry, chunk in zip(report.entries, response.answer.documents):
            assert entry.chunk_id == chunk.record.chunk_id
            assert entry.final_score == chunk.score

    def test_explain_records_per_term_contributions(self, system):
        request = AskRequest("come sbloccare la carta di credito", AskOptions(explain=True))
        report = system.engine.answer(request).answer.explain_report
        term_keys = [
            key for entry in report.entries for key in entry.leg_scores if ":" in key
        ]
        assert term_keys, "explain requests must carry bm25_<field>:<term> contributions"
        # Per-term contributions decompose the per-field totals they refine.
        entry = next(e for e in report.entries if any(":" in k for k in e.leg_scores))
        for field_key in {k.split(":", 1)[0] for k in entry.leg_scores if ":" in k}:
            total = entry.leg_scores[field_key]
            parts = sum(
                v for k, v in entry.leg_scores.items() if k.startswith(f"{field_key}:")
            )
            assert parts == pytest.approx(total)

    def test_plain_request_has_no_report(self, system):
        answer = system.engine.answer(AskRequest("limiti prelievo bancomat")).answer
        assert answer.explain_report is None

    def test_explain_does_not_change_the_ranking(self, system):
        question = "bonifico estero commissioni"
        plain = system.engine.answer(AskRequest(question)).answer
        explained = system.engine.answer(
            AskRequest(question, AskOptions(explain=True))
        ).answer
        assert [c.record.chunk_id for c in explained.documents] == [
            c.record.chunk_id for c in plain.documents
        ]
        assert [c.score for c in explained.documents] == [c.score for c in plain.documents]
        assert explained.answer_text == plain.answer_text


@pytest.fixture(scope="module")
def sharded(small_kb, lexicon):
    config = UniAskConfig(cluster=ClusterConfig(shards=3))
    return create_engine(small_kb.store(), lexicon, config=config, seed=3)


class TestClusterExplain:
    def test_shard_attribution_and_exactness(self, sharded):
        request = AskRequest("come sbloccare la carta di credito", AskOptions(explain=True))
        report = sharded.engine.answer(request).answer.explain_report
        assert report is not None
        assert report.sums_exact
        shards = {entry.shard for entry in report.entries}
        assert None not in shards, "every clustered chunk must carry its shard of origin"
        assert shards <= set(sharded.index.shard_ids)

    def test_cluster_explain_ranking_unchanged(self, sharded):
        question = "limiti prelievo bancomat"
        plain = sharded.engine.answer(AskRequest(question)).answer
        explained = sharded.engine.answer(
            AskRequest(question, AskOptions(explain=True))
        ).answer
        assert [c.record.chunk_id for c in explained.documents] == [
            c.record.chunk_id for c in plain.documents
        ]
        assert [c.score for c in explained.documents] == [c.score for c in plain.documents]


#: Degenerate questions (ROADMAP item 4): explain must describe them, not raise.
HOSTILE = {
    "empty": "",
    "stop-words-only": "il la di",
    "all-unseen": "zzz",
    "repeated-term": " ".join(["sbloccare"] * 10),
}


class TestHostileQuestions:
    @pytest.mark.parametrize("question", HOSTILE.values(), ids=HOSTILE.keys())
    @pytest.mark.parametrize("deployment", ["system", "sharded"])
    def test_degenerate_question_gets_an_exact_report(self, request, deployment, question):
        engine = request.getfixturevalue(deployment).engine
        report = engine.answer(AskRequest(question, AskOptions(explain=True))).explain
        assert report is not None and report.sums_exact
        text_keys = [k for entry in report.entries for k in entry.leg_scores if k.startswith("bm25_")]
        if question == HOSTILE["repeated-term"]:
            # Ten occurrences accumulate under one key per field.
            assert {k.split(":", 1)[1] for k in text_keys if ":" in k} == {"sbloccar"}
        else:
            assert text_keys == []  # no analyzed term matched: the text leg is silent


class TestExplainCacheInteraction:
    @pytest.fixture()
    def cached(self, small_kb, lexicon):
        config = UniAskConfig(cache=CacheConfig(enabled=True))
        return create_engine(small_kb.store(), lexicon, config=config, seed=3)

    def test_explain_bypasses_the_answer_cache(self, cached):
        question = "come sbloccare la carta di credito"
        explained = cached.engine.answer(
            AskRequest(question, AskOptions(explain=True))
        ).answer
        assert explained.explain_report is not None
        assert explained.cache_hit == ""
        # The explain request neither stored nor consumed a cache entry...
        assert cached.answer_cache.stats.stores == 0
        assert cached.answer_cache.stats.hits_exact == 0
        # ...so the next plain request runs cold and populates the cache.
        first = cached.engine.answer(AskRequest(question)).answer
        assert first.cache_hit == ""
        assert cached.answer_cache.stats.stores == 1
        repeat = cached.engine.answer(AskRequest(question)).answer
        assert repeat.cache_hit == "exact"
        assert repeat.explain_report is None

    def test_explain_is_fresh_even_when_cached(self, cached):
        question = "limiti prelievo bancomat"
        cached.engine.answer(AskRequest(question))
        explained = cached.engine.answer(
            AskRequest(question, AskOptions(explain=True))
        ).answer
        assert explained.cache_hit == ""
        assert explained.explain_report is not None
        assert explained.explain_report.sums_exact
