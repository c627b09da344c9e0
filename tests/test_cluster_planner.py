"""Unit tests for the consistent-hash shard planner."""

from __future__ import annotations

import pytest

from repro.cluster.planner import ShardPlanner


def _doc_ids(n: int) -> list[str]:
    return [f"kb-doc-{i:05d}" for i in range(n)]


#: ``ShardPlanner(n).assign(f"kb-doc-{i:03d}")`` for i = 0..39, one digit
#: per document.  A document never moves, so neither may these: a changed
#: ring moves documents between shards, and with them the per-shard legs,
#: audit lines and exposition labels.
GOLDEN = {
    2: "0100000010010011011110001011011011001100",
    3: "2102002010220211012112201212022022202100",
    4: "2302303010223233012132201213023022232100",
}


class TestPlacement:
    @pytest.mark.parametrize("num_shards", sorted(GOLDEN))
    def test_placement_matches_the_pinned_table(self, num_shards):
        planner = ShardPlanner(num_shards)
        placed = "".join(str(planner.assign(f"kb-doc-{i:03d}")) for i in range(40))
        assert placed == GOLDEN[num_shards]

    def test_assignment_is_deterministic_across_instances(self):
        docs = _doc_ids(500)
        a = ShardPlanner(num_shards=4)
        b = ShardPlanner(num_shards=4)
        assert [a.assign(d) for d in docs] == [b.assign(d) for d in docs]

    def test_every_document_lands_on_a_known_shard(self):
        planner = ShardPlanner(num_shards=3)
        assert planner.shard_ids == (0, 1, 2)
        assert planner.num_shards == 3
        for doc in _doc_ids(300):
            assert planner.assign(doc) in planner.shard_ids

    def test_placement_is_reasonably_balanced(self):
        planner = ShardPlanner(num_shards=4)
        docs = _doc_ids(2000)
        sizes = [sum(planner.assign(d) == s for d in docs) for s in planner.shard_ids]
        # Perfect balance is 500 per shard; vnode hashing keeps every shard
        # within a loose factor of it.
        assert min(sizes) > 200
        assert max(sizes) < 900


class TestTopologyGuards:
    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ShardPlanner(num_shards=0)
