"""Oracle for the HNSW index (ROADMAP item 3): the index that pays for each
distance once against the one that paid three times.

:mod:`tests.reference_hnsw` is the index as it stood before node norms were
stored: every pair goes through ``cosine_distance`` (two norms, one dot).
The serving index evaluates the same expression with both norms taken ahead
of time, so nothing observable may move: after every ``add`` the two graphs
hold the same neighbour lists in the same order on every layer and the same
entry point, and every ``search`` returns the same ids, the same distance
bits and books the same ``ann_distance_evals``.

The inputs are the ones where a last-bit difference would show: duplicated
vectors (exact distance ties, broken by id), a zero vector (the ``1.0``
guard), scales far from unit norm, and item ids in no order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.hnsw import HnswIndex
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
    for query in queries:
        k = int(generator.integers(1, n + 5))
        ef = None if generator.random() < 0.3 else int(generator.integers(1, 150))
        work, reference_work = WorkCounters(), WorkCounters()
        found = index.search(query, k, ef=ef, work=work)
        expected = reference.search(query, k, ef=ef, work=reference_work)
        assert [(i, d.hex()) for i, d in found] == [(i, d.hex()) for i, d in expected]
        assert work.counts == reference_work.counts
        assert work.get(WORK_ANN_DISTANCE_EVALS) > 0
        assert index.search(query, k, ef=ef) == found
