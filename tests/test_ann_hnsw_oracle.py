"""Oracle for the HNSW index (ROADMAP item 3): the index that pays for each
distance once against the one that paid three times.

:mod:`tests.reference_hnsw` is the index as it stood before node norms were
stored: every pair goes through ``cosine_distance`` (two norms, one dot).
The serving index evaluates the same expression with both norms taken ahead
of time, so nothing observable may move: after every ``add`` the two graphs
hold the same neighbour lists in the same order on every layer and the same
entry point, and every ``search`` that walks the graph returns the same ids,
the same distance bits and books the same ``ann_distance_evals``.  An insert
into a graph of at most ``SCAN_BEAMS`` beams of ``ef_construction`` rows
takes its candidates by brute force in both, and walks above (the second
pinned example crosses the bound at 96 rows).  A search over a graph of at
most ``SCAN_BEAMS`` beams of rows scans instead of walking (DESIGN.md §17):
it returns brute force over ``cosine_distance`` bit for bit in
``(distance, id)`` order, books one evaluation per row and is at no rank
farther than the reference walk — which can miss the exact neighbours, and
misses what a disconnected graph does not reach (the first pinned
``@example``: 5 of its 14 nodes are reachable on layer 0).  Every other
search draws a beam narrow enough to walk a graph of more than
``SCAN_BEAMS`` of it.

The inputs are the ones where a last-bit difference would show: duplicated
vectors (exact distance ties, broken by id), a zero vector (the ``1.0``
guard), scales far from unit norm, and item ids in no order.

The serving index also keeps, beside each neighbour id, the distance of the
edge and how far Algorithm 4 has judged the list (DESIGN.md §17), and trusts
both on the next re-prune.  Equal graphs show the trust was not misplaced on
these inputs; the memo checks below show the stored facts are true after
every ``add``, whether or not a later insert happens to lean on them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ann.distance import cosine_distance
from repro.ann.hnsw import SCAN_BEAMS, HnswIndex
from repro.obs.work import WORK_ANN_DISTANCE_EVALS, WorkCounters
from tests.reference_hnsw import HnswIndex as ReferenceHnswIndex


def _graph(index) -> tuple[int | None, dict[int, list[list[int]]]]:
    """Entry point and every node's per-layer neighbour lists."""
    return index._entry_point, {
        item_id: node.neighbors for item_id, node in index._nodes.items()
    }


def _vectors(generator: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """*n* rows around a few centres, some repeated exactly, one all zero."""
    centres = generator.standard_normal((max(1, n // 12), dim))
    rows = centres[generator.integers(0, len(centres), n)]
    rows = rows + 0.3 * generator.standard_normal((n, dim))
    rows *= generator.choice([1e-3, 1.0, 1.0, 40.0], size=(n, 1))
    for target in range(1, n):
        if generator.random() < 0.15:
            rows[target] = rows[generator.integers(0, target)]
    rows[generator.integers(0, n)] = 0.0
    return rows


@given(
    n=st.integers(1, 200),
    dim=st.sampled_from((3, 8, 64)),
    m=st.sampled_from((2, 6, 16)),
    ef_construction=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
    data_seed=st.integers(0, 2**32 - 1),
)
@example(n=14, dim=3, m=2, ef_construction=1, seed=0, data_seed=0)
@example(n=200, dim=8, m=2, ef_construction=3, seed=3, data_seed=4)  # inserts scan to 96 rows
@settings(max_examples=25, deadline=None)
def test_graphs_searches_and_work_equal_the_reference(
    n, dim, m, ef_construction, seed, data_seed
):
    generator = np.random.default_rng(data_seed)
    rows = _vectors(generator, n, dim)
    item_ids = generator.permutation(5 * n)[:n].tolist()

    index = HnswIndex(dim, m=m, ef_construction=ef_construction, seed=seed)
    reference = ReferenceHnswIndex(dim, m=m, ef_construction=ef_construction, seed=seed)
    for item_id, row in zip(item_ids, rows):
        index.add(item_id, row)
        reference.add(item_id, row)
        assert _graph(index) == _graph(reference)

    queries = [generator.standard_normal(dim) for _ in range(4)]
    queries += [rows[generator.integers(0, n)], 7.0 * rows[0], np.zeros(dim)]
    for number, query in enumerate(queries):
        if number % 2:
            k = int(generator.integers(1, n + 5))
            ef = None if generator.random() < 0.3 else int(generator.integers(1, 150))
        else:  # a beam narrow enough to walk a graph wider than SCAN_BEAMS of it
            k, ef = (int(generator.integers(1, max(2, n // SCAN_BEAMS))) for _ in range(2))
        work, reference_work = WorkCounters(), WorkCounters()
        found = index.search(query, k, ef=ef, work=work)
        expected = reference.search(query, k, ef=ef, work=reference_work)
        if SCAN_BEAMS * max(index.ef_search if ef is None else ef, k) < n:
            assert [(i, d.hex()) for i, d in found] == [(i, d.hex()) for i, d in expected]
            assert work.counts == reference_work.counts
        else:
            # SCAN_BEAMS beams as wide as the graph scan it: brute force, never
            # farther at any rank than the walk, which can miss exact
            # neighbours and the nodes a disconnected graph does not reach.
            brute = sorted((cosine_distance(query, row), i) for i, row in zip(item_ids, rows))
            assert [(i, d.hex()) for i, d in found] == [(i, d.hex()) for d, i in brute[:k]]
            assert work.get(WORK_ANN_DISTANCE_EVALS) == n
            assert len(found) >= len(expected)
            assert all(mine[1] <= walked[1] for mine, walked in zip(found, expected))
        assert work.get(WORK_ANN_DISTANCE_EVALS) > 0
        assert index.search(query, k, ef=ef) == found


# -- the memo beside the neighbour ids ----------------------------------------


def _memo(index) -> dict[tuple[int, int], tuple]:
    """Every adjacency list with what the index remembers about it."""
    return {
        (item_id, layer): (
            tuple(node.neighbors[layer]),
            tuple(node.distances[layer]),
            node.kept[layer],
            node.judged[layer],
        )
        for item_id, node in index._nodes.items()
        for layer in range(node.level + 1)
    }


def _judge_of(index, dim: int) -> ReferenceHnswIndex:
    """A reference index looking at the serving index's nodes: its
    ``_select_neighbors_heuristic`` is Algorithm 4 from scratch over them."""
    judge = ReferenceHnswIndex(dim)
    judge._nodes = index._nodes
    return judge


def _algorithm_4(index, pairs: list[tuple[float, int]]) -> tuple[list, list]:
    """The kept and the failed run of *pairs*, from scratch and without a
    degree bound, every pair through ``cosine_distance``."""
    kept: list[tuple[float, int]] = []
    failed: list[tuple[float, int]] = []
    for distance, candidate in sorted(pairs):
        vector = index._nodes[candidate].vector
        closer_to_kept = any(
            cosine_distance(vector, index._nodes[other].vector) < distance for _, other in kept
        )
        (failed if closer_to_kept else kept).append((distance, candidate))
    return kept, failed


def _check_list(index, item_id: int, layer: int, judge=None) -> None:
    """One adjacency list's memo against computation from scratch."""
    node = index._nodes[item_id]
    ids, kept, judged = node.neighbors[layer], node.kept[layer], node.judged[layer]
    assert len(node.distances[layer]) == len(ids)
    assert 0 <= kept <= judged <= len(ids)
    pairs = [
        (cosine_distance(node.vector, index._nodes[neighbor_id].vector), neighbor_id)
        for neighbor_id in ids
    ]
    assert [d.hex() for d in node.distances[layer]] == [d.hex() for d, _ in pairs]
    # The verdicts are about the judged entries among themselves; entries
    # appended since belong to the next re-prune.
    kept_run, failed_run = _algorithm_4(index, pairs[:judged])
    assert pairs[:kept] == kept_run
    assert pairs[kept:judged] == failed_run
    # The reference returns the kept run followed by the failed run but not
    # where one ends: it vouches for the sequence, ``_algorithm_4`` above for
    # the split.  (Twice the pairs, so only the closing sweep asks it.)
    if judge is not None:
        assert kept_run + failed_run == judge._select_neighbors_heuristic(
            node.vector, pairs[:judged], judged
        )


def _add_and_check_changed_lists(index, seen: dict, item_id: int, row) -> dict:
    """Insert, then check every list the insert touched; returns the memo.

    A list whose ids, distances and counts are what they were when it was
    last checked is still right, so "every node and layer after every add"
    costs one comparison for the untouched ones.
    """
    index.add(item_id, row)
    memo = _memo(index)
    for key, remembered in memo.items():
        if seen.get(key) != remembered:
            _check_list(index, *key)
    return memo


@given(
    n=st.integers(1, 200),
    dim=st.sampled_from((3, 8, 64)),
    m=st.sampled_from((2, 6, 16)),
    ef_construction=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
    data_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=15, deadline=None)
def test_stored_distances_and_verdicts_are_true_after_every_add(
    n, dim, m, ef_construction, seed, data_seed
):
    generator = np.random.default_rng(data_seed)
    rows = _vectors(generator, n, dim)
    item_ids = generator.permutation(5 * n)[:n].tolist()

    index = HnswIndex(dim, m=m, ef_construction=ef_construction, seed=seed)
    seen: dict = {}
    for item_id, row in zip(item_ids, rows):
        seen = _add_and_check_changed_lists(index, seen, item_id, row)
    judge = _judge_of(index, dim)
    for key in seen:
        _check_list(index, *key, judge=judge)


@pytest.mark.parametrize("m", (2, 6))
def test_re_prunes_that_overturn_old_verdicts(m):
    """The branches a well-spread corpus rarely takes: 400 points on a
    sphere in three dimensions around ten centres, three in ten an exact
    copy of an earlier one, one at the origin, and a degree bound so small
    that every list is re-pruned again and again.  A formerly kept entry
    fails against a newcomer, an entry that had failed against it is kept in
    its place, the fall-back re-admits — and after every add the graph is
    the reference's and the memo is true."""
    generator = np.random.default_rng(20 + m)
    centres = generator.standard_normal((10, 3))
    rows = centres[generator.integers(0, 10, 400)] + 0.2 * generator.standard_normal((400, 3))
    for target in range(1, 400):
        if generator.random() < 0.3:
            rows[target] = rows[generator.integers(0, target)]
    rows[137] = 0.0

    index = HnswIndex(3, m=m, ef_construction=8, seed=5)
    reference = ReferenceHnswIndex(3, m=m, ef_construction=8, seed=5)
    seen: dict = {}
    demoted = promoted = readmitted = 0
    for item_id, row in enumerate(rows):
        reference.add(item_id, row)
        memo = _add_and_check_changed_lists(index, seen, item_id, row)
        assert _graph(index) == _graph(reference)
        for key, (ids, _, kept, judged) in memo.items():
            if key in seen and seen[key] != memo[key]:
                old_ids, _, old_kept, old_judged = seen[key]
                demoted += len(set(old_ids[:old_kept]) & set(ids[kept:judged]))
                promoted += len(set(old_ids[old_kept:old_judged]) & set(ids[:kept]))
                readmitted += judged - kept
        seen = memo
    assert demoted and promoted and readmitted, (demoted, promoted, readmitted)
    judge = _judge_of(index, 3)
    for key in seen:
        _check_list(index, *key, judge=judge)
