"""Unit tests for Reciprocal Rank Fusion."""

from __future__ import annotations

import pytest

from repro.search.fusion import reciprocal_rank_fusion
from repro.search.results import RetrievedChunk
from repro.search.schema import ChunkRecord


def _chunk(doc: str, score: float = 1.0) -> RetrievedChunk:
    record = ChunkRecord(chunk_id=f"{doc}#0", doc_id=doc, title=doc, content=doc)
    return RetrievedChunk(record=record, score=score)


class TestRrf:
    def test_single_ranking_preserves_order(self):
        ranking = [_chunk("a"), _chunk("b"), _chunk("c")]
        fused = reciprocal_rank_fusion({"text": ranking})
        assert [r.doc_id for r in fused] == ["a", "b", "c"]

    def test_rrf_score_formula(self):
        fused = reciprocal_rank_fusion({"text": [_chunk("a")]}, c=60)
        assert fused[0].score == pytest.approx(1.0 / 61.0)

    def test_agreement_wins(self):
        """A document ranked #2 in both lists beats one ranked #1 in one."""
        text = [_chunk("solo_text"), _chunk("both")]
        vector = [_chunk("solo_vec"), _chunk("both")]
        fused = reciprocal_rank_fusion({"text": text, "vector": vector})
        assert fused[0].doc_id == "both"

    def test_components_recorded(self):
        rankings = {"text": [_chunk("a")], "vector": [_chunk("a")]}
        fused = reciprocal_rank_fusion(rankings, explain=True)
        assert set(fused[0].components) == {"rrf_text", "rrf_vector"}
        assert reciprocal_rank_fusion(rankings)[0].components == {}

    def test_top_n_truncation(self):
        ranking = [_chunk(f"d{i}") for i in range(10)]
        fused = reciprocal_rank_fusion({"text": ranking}, top_n=3)
        assert len(fused) == 3

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_rank_fusion({"text": [_chunk("a")]}, c=-1)

    def test_empty_rankings(self):
        assert reciprocal_rank_fusion({}) == []
        assert reciprocal_rank_fusion({"text": []}) == []

    def test_larger_c_flattens_rank_differences(self):
        ranking = [_chunk("a"), _chunk("b")]
        sharp = reciprocal_rank_fusion({"t": ranking}, c=1)
        flat = reciprocal_rank_fusion({"t": ranking}, c=1000)
        gap_sharp = sharp[0].score - sharp[1].score
        gap_flat = flat[0].score - flat[1].score
        assert gap_sharp > gap_flat

    def test_deterministic_tiebreak(self):
        a = reciprocal_rank_fusion({"t1": [_chunk("x")], "t2": [_chunk("y")]})
        b = reciprocal_rank_fusion({"t1": [_chunk("x")], "t2": [_chunk("y")]})
        assert [r.doc_id for r in a] == [r.doc_id for r in b]
