"""Unit tests for Reciprocal Rank Fusion."""

from __future__ import annotations

import pytest

from repro.search.fusion import reciprocal_rank_fusion
from tests.reference_pipeline import RecordList


def _fuse(rankings: dict[str, list[str]], **kwargs):
    """Fuse rankings of document names over one key space; fetch the result."""
    space = RecordList()
    heads = {name: space.heads(names) for name, names in rankings.items()}
    return reciprocal_rank_fusion(heads, **kwargs).fetch()


class TestRrf:
    def test_single_ranking_preserves_order(self):
        fused = _fuse({"text": ["a", "b", "c"]})
        assert [r.doc_id for r in fused] == ["a", "b", "c"]

    def test_rrf_score_formula(self):
        fused = _fuse({"text": ["a"]}, c=60)
        assert fused[0].score == pytest.approx(1.0 / 61.0)

    def test_agreement_wins(self):
        """A document ranked #2 in both lists beats one ranked #1 in one."""
        fused = _fuse({"text": ["solo_text", "both"], "vector": ["solo_vec", "both"]})
        assert fused[0].doc_id == "both"

    def test_components_recorded(self):
        rankings = {"text": ["a"], "vector": ["a"]}
        fused = _fuse(rankings, explain=True)
        assert set(fused[0].components) == {"rrf_text", "rrf_vector"}
        assert _fuse(rankings)[0].components == {}

    def test_top_n_truncation(self):
        fused = _fuse({"text": [f"d{i}" for i in range(10)]}, top_n=3)
        assert len(fused) == 3

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            _fuse({"text": ["a"]}, c=-1)

    def test_empty_rankings(self):
        assert _fuse({}) == []
        assert _fuse({"text": []}) == []

    def test_larger_c_flattens_rank_differences(self):
        sharp = _fuse({"t": ["a", "b"]}, c=1)
        flat = _fuse({"t": ["a", "b"]}, c=1000)
        gap_sharp = sharp[0].score - sharp[1].score
        gap_flat = flat[0].score - flat[1].score
        assert gap_sharp > gap_flat

    def test_deterministic_tiebreak(self):
        a = _fuse({"t1": ["x"], "t2": ["y"]})
        b = _fuse({"t1": ["x"], "t2": ["y"]})
        assert [r.doc_id for r in a] == [r.doc_id for r in b]
