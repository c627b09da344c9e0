"""The one distance kernel's invariants, searched by Hypothesis.

Every distance either ANN backend computes comes from
:func:`repro.ann.distance.cosine_distances` over float32 rows.  The graph's
tie order, the scan ↔ walk agreement and the single-index ↔ cluster
equivalence rest on four properties of it, each to the bit: a row's
distance does not depend on where it sits or how many rows are read with
it; equal rows read equal distances; the pair reads the same either way
round; a walk and a scan read the same distance for the same row.  A scan
of N rows also allocates less than a float64 copy of them would take.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.distance import cosine_distance, cosine_distances, float32_row
from repro.ann.exact import ExactKnnIndex
from repro.ann.hnsw import SCAN_BEAMS, HnswIndex
from repro.ann.store import RowStore

_SCALES = st.sampled_from((1e-7, 1e-3, 1.0, 40.0, 1e4))


def _rows(seed: int, count: int, dim: int, scale: float) -> np.ndarray:
    """*count* float32 rows, about one in five a copy of an earlier one and
    one a zero row."""
    generator = np.random.default_rng(seed)
    rows = (scale * generator.standard_normal((count, dim))).astype(np.float32)
    for target in range(1, count):
        if generator.random() < 0.2:
            rows[target] = rows[generator.integers(0, target)]
    rows[generator.integers(0, count)] = 0.0
    return rows


def _scan(query: np.ndarray, rows: np.ndarray) -> list[str]:
    query, query_norm = float32_row(query, "query")
    norms = np.array([float32_row(row, "row")[1] for row in rows])
    return [d.hex() for d in cosine_distances(query, query_norm, rows, norms).tolist()]


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 90),
    dim=st.integers(1, 70),
    scale=_SCALES,
)
def test_a_rows_distance_is_its_own_wherever_it_is_read(seed, count, dim, scale):
    """Position, height, order and company do not move a row's distance;
    equal rows read equal distances, and a pair reads the same either way."""
    rows = _rows(seed, count, dim, scale)
    generator = np.random.default_rng(seed + 1)
    query = rows[generator.integers(0, count)] if seed % 2 else _rows(seed + 2, 1, dim, scale)[0]
    whole = _scan(query, rows)
    for pick in (
        generator.permutation(count),
        generator.integers(0, count, generator.integers(1, 2 * count + 1)),
        np.arange(generator.integers(1, count + 1)),
    ):
        assert _scan(query, rows[pick]) == [whole[i] for i in pick.tolist()]
    for i in range(count):
        assert _scan(query, rows[i : i + 1]) == [whole[i]]
        for j in range(i):
            if np.array_equal(rows[i], rows[j]):
                assert whole[i] == whole[j]
        assert cosine_distance(rows[i], query).hex() == whole[i]
        assert cosine_distance(query, rows[i]).hex() == whole[i]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 24), scale=_SCALES)
def test_a_walk_and_a_scan_read_the_same_distance(seed, dim, scale):
    """A graph wider than ``SCAN_BEAMS`` beams of 2 walks; every distance it
    returns is the exact backend's scan distance for the same id, and the
    graph's own scan (a wide beam) returns the exact backend's results."""
    count = SCAN_BEAMS * 2 + 30
    rows = _rows(seed, count, dim, scale)
    queries = _rows(seed + 3, 4, dim, scale)
    index = HnswIndex(dim, m=4, ef_construction=8, ef_search=2, seed=seed % 97)
    exact = ExactKnnIndex(dim)
    for item_id, row in enumerate(rows):
        index.add(item_id, row)
        exact.add(item_id, row)
    for query in (*queries, rows[seed % count]):
        truth = {item_id: distance.hex() for item_id, distance in exact.search(query, count)}
        walked = index.search(query, 2)
        assert walked and all(truth[i] == d.hex() for i, d in walked)
        assert index.search(query, count, ef=count) == exact.search(query, count)


def test_a_scan_makes_no_float64_copy_of_the_rows():
    """A scan of N rows allocates less than ``N × dim × 8`` bytes: no
    float64 (or float32) copy of the rows is made, only per-row columns."""
    count, dim = 4000, 64
    store = RowStore(dim)
    for label, row in enumerate(_rows(5, count, dim, 1.0)):
        store.append(row, label)
    query, query_norm = float32_row(store.rows[3], "query")
    store.nearest(query, query_norm, 10)  # warm
    tracemalloc.start()
    store.nearest(query, query_norm, 10)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < count * dim * 8
    assert peak < count * dim * 4
