"""Unit tests for the HNSW index."""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.ann.exact import ExactKnnIndex
from repro.ann import store as store_module
from repro.ann import hnsw as hnsw_module
from repro.ann import distance as distance_module
from repro.ann.distance import float32_row
from repro.ann.hnsw import LATE_LINK_ROWS, SCAN_BEAMS, HnswIndex
from repro.obs.work import WORK_ANN_DISTANCE_EVALS, WorkCounters
from tests import reference_hnsw as reference_module
from tests.hnsw_graph import adjacency, entry_id, node_lists


def _record_reads(monkeypatch, scans: list, gathers: list | None = None) -> None:
    """Log the row count of every store scan (a prefix) in *scans* and,
    given *gathers*, of every gather (the walk's reads) there."""
    distances = store_module.RowStore.distances

    def recorded(store, query, query_norm, rows):
        if isinstance(rows, int):
            scans.append(rows)
        elif gathers is not None:
            gathers.append(len(rows))
        return distances(store, query, query_norm, rows)

    monkeypatch.setattr(store_module.RowStore, "distances", recorded)


def _unit_rows(n: int, dim: int, seed: int) -> np.ndarray:
    generator = np.random.default_rng(seed)
    rows = generator.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.fixture()
def populated() -> tuple[HnswIndex, np.ndarray]:
    vectors = _unit_rows(300, 24, seed=0)
    index = HnswIndex(dim=24, m=8, ef_construction=80, ef_search=60, seed=1)
    for i, row in enumerate(vectors):
        index.add(i, row)
    return index, vectors


@pytest.fixture()
def wide() -> tuple[HnswIndex, np.ndarray]:
    """More than ``SCAN_BEAMS`` beams of ``ef_search`` rows (800 > 32 × 24):
    the adds link the graph and a default search walks it."""
    vectors = _unit_rows(800, 24, seed=0)
    index = HnswIndex(dim=24, m=8, ef_construction=80, ef_search=24, seed=1)
    for i, row in enumerate(vectors):
        index.add(i, row)
    return index, vectors


class TestHnswBasics:
    def test_empty_search(self):
        index = HnswIndex(dim=4)
        assert index.search(np.ones(4), 5) == []

    def test_single_element(self):
        index = HnswIndex(dim=4, seed=2)
        index.add(7, np.array([1.0, 0.0, 0.0, 0.0]))
        results = index.search(np.array([1.0, 0.0, 0.0, 0.0]), 3)
        assert results[0][0] == 7
        assert results[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_duplicate_id_rejected(self):
        index = HnswIndex(dim=3)
        index.add(1, np.ones(3))
        with pytest.raises(ValueError):
            index.add(1, np.ones(3))

    def test_wrong_shape_rejected(self):
        index = HnswIndex(dim=3)
        with pytest.raises(ValueError):
            index.add(1, np.ones(4))

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, 1e39, -4e38))
    def test_non_finite_vector_never_enters_the_graph(self, bad):
        """Heap order is undefined on NaN distances, so the vector is refused
        — and refused before the level draw, so the inserts that follow build
        the graph they would have built had it never been offered.  A value
        beyond float32's range would be stored as an infinity: refused too."""
        vectors = _unit_rows(40, 6, seed=9)
        poisoned = vectors[0].copy()
        poisoned[3] = bad
        index = HnswIndex(dim=6, m=4, seed=3)
        clean = HnswIndex(dim=6, m=4, seed=3)
        for i, row in enumerate(vectors):
            if i in (0, 17):
                with pytest.raises(ValueError, match="not finite"):
                    index.add(1000 + i, poisoned)
            index.add(i, row)
            clean.add(i, row)
        assert 1000 not in index and 1017 not in index and len(index) == 40
        index._link_pending()
        clean._link_pending()
        assert node_lists(index) == node_lists(clean)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, 1e39))
    def test_non_finite_query_rejected(self, populated, bad):
        index, vectors = populated
        query = vectors[0].copy()
        query[5] = bad
        with pytest.raises(ValueError, match="not finite"):
            index.search(query, 3)

    def test_vector_is_the_one_stored(self, populated):
        index, vectors = populated
        assert index.vector(42).dtype == np.float32
        assert np.array_equal(index.vector(42), vectors[42].astype(np.float32))
        with pytest.raises(KeyError):
            index.vector(999)

    def test_a_stored_vector_is_read_only(self, populated):
        """The vector is a view of the index's own row: a write into it
        would move every later search of that row, so it raises."""
        index, vectors = populated
        before = index.search(vectors[42], 5)
        with pytest.raises(ValueError, match="read-only"):
            index.vector(42)[0] = 0.5
        assert np.array_equal(index.vector(42), vectors[42].astype(np.float32))
        assert index.search(vectors[42], 5) == before

    def test_len_and_contains(self, populated):
        index, _ = populated
        assert len(index) == 300
        assert 0 in index
        assert 999 not in index

    def test_results_sorted_by_distance(self, populated):
        index, vectors = populated
        results = index.search(vectors[0], 10)
        distances = [d for _, d in results]
        assert distances == sorted(distances)

    def test_self_is_nearest(self, populated):
        index, vectors = populated
        for probe in (0, 50, 299):
            results = index.search(vectors[probe], 1)
            assert results[0][0] == probe

    def test_k_larger_than_index(self):
        index = HnswIndex(dim=4, seed=3)
        for i in range(5):
            index.add(i, _unit_rows(1, 4, seed=i)[0])
        assert len(index.search(np.ones(4) / 2.0, 50)) == 5

    def test_deterministic_given_seed(self):
        vectors = _unit_rows(100, 16, seed=4)
        def build():
            index = HnswIndex(dim=16, m=6, seed=11)
            for i, row in enumerate(vectors):
                index.add(i, row)
            return index.search(vectors[3], 10)
        assert build() == build()


class TestHnswWork:
    def test_one_norm_per_vector_and_one_per_query(self, monkeypatch):
        """A norm never changes once its vector is stored: 300 inserts take
        300 norms and a search takes the query's, however many distances
        the graph walk evaluates — and linking the 300 nodes, which that
        walk of beam 9 does first, takes none."""
        vectors = _unit_rows(300, 24, seed=7)
        query = _unit_rows(1, 24, seed=8)[0]
        calls = []
        norm = distance_module.float32_row

        def counted(*args, **kwargs):
            calls.append(1)
            return norm(*args, **kwargs)

        for module in (store_module, hnsw_module):  # each takes norms through it
            monkeypatch.setattr(module, "float32_row", counted)
        index = HnswIndex(dim=24, m=8, ef_construction=80, ef_search=60, seed=1)
        for i, row in enumerate(vectors):
            index.add(i, row)
        assert len(calls) == 300
        assert len(index.search(query, 9, ef=9)) == 9
        assert index._linked == 300 and len(calls) == 301

    def test_an_edge_is_measured_once(self, monkeypatch):
        """Neighbour lists keep their distances and Algorithm 4's verdicts,
        so a link to a full node judges the new edge, not all of them again.
        Algorithm 4's time goes by kernel calls (about 7 µs each, whatever
        the number of rows): at the serving parameters, linking 300 inserts
        (each one store scan, then Algorithm 4 over its gathered list) makes
        under 0.045 as many calls as the from-scratch reference evaluates
        pairs (10 065 of 336 223, 0.030, when this was written; judging
        every list from scratch makes 17 323, 0.052).  Those calls measure
        449 054 rows, 1.34 times the reference's pairs: a call has no early
        exit, and a row costs about a four-hundredth of a call (DESIGN.md
        §17).  The inserts store rows only; linking them pays."""
        vectors = _unit_rows(300, 24, seed=7)
        pairs, cosine_distance = [], reference_module.cosine_distance
        monkeypatch.setattr(
            reference_module, "cosine_distance", lambda a, b: pairs.append(1) or cosine_distance(a, b)
        )
        reference = reference_module.HnswIndex(dim=24, m=16, ef_construction=100, seed=1)
        for i, row in enumerate(vectors):
            reference.add(i, row)
        scans, dots, kernel = [], [], hnsw_module.cosine_distances
        _record_reads(monkeypatch, scans)
        monkeypatch.setattr(
            hnsw_module, "cosine_distances", lambda *args: dots.append(1) or kernel(*args)
        )
        index = HnswIndex(dim=24, m=16, ef_construction=100, seed=1)
        for i, row in enumerate(vectors):
            index.add(i, row)
        assert not scans and not dots
        index._link_pending()
        assert scans == list(range(300))
        assert 0 < len(dots) <= 0.045 * len(pairs)
        _record_reads(monkeypatch, dots, dots)

        # A link that leaves the list within its bound evaluates nothing.
        roomy = next(row for row in range(300) if len(adjacency(index, row, 0)[0]) < 32)
        before = sum(dots)
        index._link(roomy, 10_000, 0, 0.25)
        assert sum(dots) == before
        rows, distances, _, _ = adjacency(index, roomy, 0)
        assert rows[-1] == 10_000 and distances[-1] == 0.25

    @pytest.mark.parametrize("edit", ("none", "remove", "relabel"))
    def test_a_graph_no_wider_than_its_beam_is_scanned_once(self, monkeypatch, edit):
        """With no more rows than ``SCAN_BEAMS`` beams a search walks
        nothing: one store pass evaluates every row once — a removed one too,
        and the search books every row it evaluated — and the live rows are
        cut in ``(distance, id)`` order.  The adds from half that many rows
        on linked two rows each, so the graph is linked when it reaches the
        bound: the add that takes it one row past links that row alone, by
        one store pass over the rows before it, and then a search walks."""
        beam = 2
        rows = SCAN_BEAMS * beam
        vectors = _unit_rows(rows - 4, 8, seed=14)
        index = HnswIndex(dim=8, m=4, ef_construction=20, ef_search=beam, seed=2)
        for i, row in enumerate(vectors):
            index.add(i, row)
        copies = list(range(rows - 4, rows))
        for item_id in copies:  # a four-way tie with vector 0
            index.add(item_id, vectors[0])
        if edit == "remove":
            for item_id in range(1, rows - 4, 5):
                index.remove(item_id)
        elif edit == "relabel":
            for item_id in (0, copies[1], 12):
                index.relabel(item_id, 100 + item_id)
        live = [i for i in range(200) if i in index]
        walks, passes = [], []
        for name in ("_greedy_closest", "_search_layer"):
            method = getattr(HnswIndex, name)
            monkeypatch.setattr(
                HnswIndex, name, lambda *args, _method=method, **kwargs: walks.append(1)
                or _method(*args, **kwargs)
            )
        _record_reads(monkeypatch, passes)
        work = WorkCounters()
        hits = index.search(vectors[0], len(live), work=work)
        assert passes == [rows] and work.get(WORK_ANN_DISTANCE_EVALS) == rows and not walks
        assert sorted(i for i, _ in hits) == live
        assert hits == sorted(hits, key=lambda hit: (hit[1], hit[0]))
        if edit == "relabel":
            tie = [copies[0], *copies[2:], 100, 100 + copies[1]]
        else:
            tie = [0, *copies]
        assert [i for i, _ in hits[:5]] == tie
        # Exactly SCAN_BEAMS beams: a search of beam 2 still scans them.
        assert index.search(vectors[0], beam) == hits[:beam]
        assert passes == [rows, rows] and not walks
        assert index._linked == rows
        index.add(rows, vectors[1])  # one row past, under SCAN_BEAMS beams of 20
        assert passes == [rows, rows, rows] and not walks
        walked = index.search(vectors[0], beam)
        assert passes == [rows, rows, rows] and walks
        assert {i for i, _ in walked} <= set(tie)  # the walk's own pick of the tie

    def test_an_insert_no_wider_than_scan_beams_is_one_store_pass(self, monkeypatch):
        """Before an insert into at most ``SCAN_BEAMS`` beams of
        ``ef_construction`` rows, removed ones included, one store pass
        measures every row and nothing walks: no greedy descent, no
        ``_search_layer``.  The first insert past the bound walks and makes
        no pass.  (At ``ef_search`` 1 every add past 32 rows links.)"""
        beam = 4
        rows = SCAN_BEAMS * beam
        vectors = _unit_rows(rows + 2, 8, seed=15)
        index = HnswIndex(dim=8, m=4, ef_construction=beam, ef_search=1, seed=2)
        for i, row in enumerate(vectors[:rows]):
            index.add(i, row)
        index.remove(3)
        index.relabel(5, 1005)
        walks, passes = [], []
        for name in ("_greedy_closest", "_search_layer"):
            method = getattr(HnswIndex, name)
            monkeypatch.setattr(
                HnswIndex,
                name,
                lambda *args, _name=name, _method=method: walks.append(_name) or _method(*args),
            )
        _record_reads(monkeypatch, passes)
        index.add(rows, vectors[rows])  # SCAN_BEAMS beams of 4 before it
        assert passes == [rows] and not walks
        index.add(rows + 1, vectors[rows + 1])
        assert passes == [rows] and "_search_layer" in walks

    def test_an_add_evaluates_no_distance_and_the_first_walk_links_each_row_once(
        self, monkeypatch
    ):
        """Below ``SCAN_BEAMS`` beams of ``ef_search`` rows an add stores its
        row and evaluates no distance: no store pass, no gather.  The
        first search that walks links every pending row once, in row order,
        each by one store pass over the rows before it; the next walk links
        nothing, and after one more add a walk links that row alone."""
        vectors = _unit_rows(301, 24, seed=7)
        index = HnswIndex(dim=24, m=8, ef_construction=80, ef_search=60, seed=1)
        dots, passes = [], []
        _record_reads(monkeypatch, passes, dots)
        for i, row in enumerate(vectors[:300]):
            index.add(i, row)
        assert (dots, passes) == ([], []) and index._entry_point is None
        assert len(index.search(vectors[0], 9, ef=9)) == 9  # 300 > 32 × 9: walks
        assert passes == list(range(300)) and dots and index._linked == 300
        passes.clear()
        index.search(vectors[1], 9, ef=9)
        assert passes == []
        index.add(300, vectors[300])
        assert passes == [] and index._linked == 300
        index.search(vectors[2], 9, ef=9)
        assert passes == [300] and index._linked == 301

    def test_adds_link_late_link_rows_each_late_in_the_bound(self):
        """No add below ``1 - 1 / LATE_LINK_ROWS`` of ``SCAN_BEAMS`` beams of
        ``ef_search`` rows links a row, none from there on links more than
        ``LATE_LINK_ROWS``, and the graph is linked when it reaches the
        bound; a narrower beam's search still links every pending row
        before it walks."""
        beam, rows = 4, LATE_LINK_ROWS
        bound = SCAN_BEAMS * beam
        start = (rows - 1) * bound // rows
        vectors = _unit_rows(bound + 40, 8, seed=16)
        index = HnswIndex(dim=8, m=4, ef_construction=8, ef_search=beam, seed=3)
        for row, vector in enumerate(vectors):
            before = index._linked
            index.add(row, vector)
            linked = index._linked - before
            assert linked == 0 if row < start else linked <= rows, row
            if row + 1 >= bound:
                assert index._linked == row + 1, row

        narrow = HnswIndex(dim=8, m=4, ef_construction=8, ef_search=beam, seed=3)
        for row, vector in enumerate(vectors[: start + 2]):
            narrow.add(row, vector)
        assert narrow._linked == 2 * rows
        narrow.search(vectors[0], 1, ef=1)  # start + 2 rows > SCAN_BEAMS beams of 1: walks
        assert narrow._linked == len(narrow)

    def test_removed_nodes_cost_a_walk_through_not_an_over_fetch(self):
        """The index used to be asked for ``k + dead`` neighbours and the
        dead filtered out afterwards; now removed nodes route and ``ef``
        counts live results.  On 2 000 nodes of which 800 are removed,
        ``search(k=15)`` at a beam that walks books at most half the
        evaluations ``search(k=815)`` — a scan of every row — books on the
        same graph before anything was removed, and still finds the live
        neighbours."""
        vectors = _unit_rows(2000, 16, seed=12)
        queries = _unit_rows(20, 16, seed=13)
        index = HnswIndex(dim=16, m=8, ef_construction=40, ef_search=40, seed=1)
        exact = ExactKnnIndex(dim=16)
        for i, row in enumerate(vectors):
            index.add(i, row)
            exact.add(i, row)

        over_fetch = WorkCounters()
        for query in queries:
            index.search(query, 815, work=over_fetch)
        for i in range(0, 2000, 5):  # 800 of 2 000, spread over the graph
            for item_id in (i, i + 1):
                index.remove(item_id)
                exact.remove(item_id)
        walk_through = WorkCounters()
        recall = 0.0
        for query in queries:
            hits = index.search(query, 15, work=walk_through)
            assert len(hits) == 15 and all(item_id % 5 > 1 for item_id, _ in hits)
            truth = {item_id for item_id, _ in exact.search(query, 15)}
            recall += len(truth & {item_id for item_id, _ in hits}) / 15
        assert 2 * walk_through.get(WORK_ANN_DISTANCE_EVALS) <= over_fetch.get(
            WORK_ANN_DISTANCE_EVALS
        )
        assert recall / len(queries) >= 0.9


class TestRowStore:
    def test_node_vectors_follow_the_store_through_its_growths(self):
        """Vectors live as rows of one matrix that grows by half when full:
        after every growth the vector of an id is a read-only view of its
        row in the current block, never of one the store has outgrown, and
        reads back what was added; row n holds the n-th id added."""
        vectors = _unit_rows(130, 8, seed=3)
        index = HnswIndex(dim=8, m=4, ef_construction=20, seed=2)
        blocks = []
        for i, row in enumerate(vectors):
            index.add(10 * i, row)
            if not blocks or index._store.rows is not blocks[-1]:
                blocks.append(index._store.rows)
        assert len(blocks) >= 4  # three growths at least
        index.remove(30)
        index.relabel(40, 41)
        current, outgrown = blocks[-1], blocks[:-1]
        assert index._ids[: len(index)].tolist() == [10 * i for i in range(130)]
        for item_id in (0, 10, 20, 41, *(10 * i for i in range(5, 130))):
            vector = index.vector(item_id)
            assert np.shares_memory(vector, current) and not vector.flags.writeable
            assert not any(np.shares_memory(vector, block) for block in outgrown)
        assert index._store.labels[:5].tolist() == [0, 10, 20, -1, 41]
        for i, row in enumerate(vectors):
            if i != 3:
                stored = index.vector(41 if i == 4 else 10 * i)
                assert np.array_equal(stored, row.astype(np.float32))


    def test_a_scan_reads_the_walks_scalar_distance_bit_for_bit(self):
        """A store scan's distance is what the walk reads for the row, to
        the last bit: a one-row gather, or a gather of every live row in
        reverse order, over a zero row, duplicated rows, rows far from unit
        norm, removed and relabelled rows and a zero query, cut in
        ``(distance, id)`` order."""
        generator = np.random.default_rng(8)
        rows = generator.standard_normal((70, 16))
        rows *= generator.choice([1e-3, 1.0, 40.0], size=(70, 1))
        rows[[20, 21, 22]] = rows[5]
        rows[33] = 0.0
        index = HnswIndex(dim=16, m=4, ef_construction=20, ef_search=20, seed=4)
        for i, row in enumerate(rows):
            index.add(i, row)
        for item_id in (2, 21, 40):
            index.remove(item_id)
        for item_id in (5, 33, 60):
            index.relabel(item_id, 100 + item_id)
        for query in (generator.standard_normal(16), rows[5], 1e-7 * rows[20], np.zeros(16)):
            query, query_norm = float32_row(query, "query")
            store = index._store
            live = [row for row in range(store.count) if store.labels[row] >= 0]
            gathered = store.distances(query, query_norm, live[::-1])[::-1].tolist()
            walked = []
            for row, distance in zip(live, gathered):
                alone = float(store.distances(query, query_norm, [row])[0])
                assert alone.hex() == distance.hex()
                walked.append((alone, int(store.labels[row])))
            work = WorkCounters()
            found = index.search(query, 100, work=work)
            assert work.get(WORK_ANN_DISTANCE_EVALS) == 70  # scanned, removed rows too
            assert [(i, d.hex()) for i, d in found] == [(i, d.hex()) for d, i in sorted(walked)]


@pytest.fixture(params=("hnsw", "exact"))
def small(request) -> tuple[HnswIndex | ExactKnnIndex, np.ndarray]:
    """Forty unit rows under ids 0..39 in either backend."""
    vectors = _unit_rows(40, 6, seed=21)
    if request.param == "hnsw":
        index = HnswIndex(dim=6, m=4, ef_construction=20, ef_search=10, seed=5)
    else:
        index = ExactKnnIndex(dim=6)
    for i, row in enumerate(vectors):
        index.add(i, row)
    return index, vectors


class TestRemoveAndRelabel:
    """The delete / relabel half of the ANN contract, on both backends."""

    def test_removed_item_is_never_a_result_and_has_no_vector(self, small):
        index, vectors = small
        index.remove(7)
        assert 7 not in {i for i, _ in index.search(vectors[7], 40)}
        assert len(index.search(vectors[7], 40)) == 39
        with pytest.raises(KeyError):
            index.vector(7)

    def test_remove_of_unknown_or_removed_id_is_a_key_error(self, small):
        index, _ = small
        with pytest.raises(KeyError):
            index.remove(999)
        index.remove(3)
        with pytest.raises(KeyError):
            index.remove(3)

    def test_relabel_answers_to_the_new_id_only(self, small):
        index, vectors = small
        stored = index.vector(5).copy()
        index.relabel(5, 105)
        assert np.array_equal(index.vector(105), stored)
        with pytest.raises(KeyError):
            index.vector(5)
        hits = index.search(vectors[5], 40)
        assert hits[0][0] == 105
        assert 5 not in {i for i, _ in hits} and len(hits) == 40
        index.relabel(105, 205)  # a relabelled item moves on like any other
        assert index.search(vectors[5], 1)[0][0] == 205
        index.remove(205)
        assert len(index.search(vectors[5], 40)) == 39

    def test_relabel_onto_a_label_in_use_or_of_a_removed_item_is_a_value_error(self, small):
        index, vectors = small
        with pytest.raises(ValueError, match="in use"):
            index.relabel(1, 2)
        with pytest.raises(ValueError, match="in use"):
            index.relabel(1, 1)
        index.relabel(1, 101)
        with pytest.raises(ValueError, match="in use"):
            index.relabel(2, 101)
        index.remove(4)
        with pytest.raises(ValueError, match="no live item"):
            index.relabel(4, 104)
        with pytest.raises(ValueError, match="no live item"):
            index.relabel(999, 1999)
        # Nothing above changed what is served.
        assert [i for i, _ in index.search(vectors[1], 1)] == [101]
        assert len(index.search(vectors[0], 40)) == 39

    def test_ties_come_in_ascending_current_id(self, small):
        """Equal vectors are equally far: their order is the order of the ids
        they answer to now, not of the ids they were stored under."""
        index, vectors = small
        for item_id in (40, 41, 42):
            index.add(item_id, vectors[0])
        index.relabel(0, 50)
        index.relabel(41, 45)
        hits = index.search(vectors[0], 4)
        assert [i for i, _ in hits] == [40, 42, 45, 50]
        assert len({d for _, d in hits}) == 1

    def test_search_with_every_node_removed_is_empty(self, small):
        index, vectors = small
        for item_id in range(40):
            index.remove(item_id)
        assert index.search(vectors[0], 5) == []

    def test_k_beyond_the_live_count_returns_the_live_count(self, small):
        index, vectors = small
        for item_id in range(0, 40, 2):
            index.remove(item_id)
        hits = index.search(vectors[0], 100)
        assert sorted(i for i, _ in hits) == list(range(1, 40, 2))
        assert hits == sorted(hits, key=lambda hit: (hit[1], hit[0]))

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_query_is_refused_with_removed_nodes_too(self, small, bad):
        index, vectors = small
        index.remove(0)
        query = vectors[1].copy()
        query[2] = bad
        with pytest.raises(ValueError, match="not finite"):
            index.search(query, 3)


class TestHnswRemovedRouting:
    def test_search_with_the_entry_point_removed(self, wide):
        """The entry point keeps routing after it is removed: the search
        starts there and returns live items only."""
        index, vectors = wide
        entry = entry_id(index)
        index.remove(entry)
        work = WorkCounters()
        hits = index.search(vectors[entry], 10, work=work)
        assert work.get(WORK_ANN_DISTANCE_EVALS) < len(index)  # walked
        assert len(hits) == 10 and entry not in {i for i, _ in hits}
        assert entry not in index and len(index) == 800
        assert index.search(vectors[17], 1)[0][0] == 17

    def test_removed_ids_stay_taken(self, populated):
        """A removed or relabelled-away id still names its node in the graph."""
        index, vectors = populated
        index.remove(3)
        index.relabel(4, 400)
        for taken in (3, 4, 400):
            with pytest.raises(ValueError, match="duplicate"):
                index.add(taken, vectors[0])
        with pytest.raises(ValueError, match="in use"):
            index.relabel(5, 3)

    def test_an_untouched_graph_walks_the_old_loop(self, populated, monkeypatch):
        """On a graph wider than ``SCAN_BEAMS`` beams (300 rows, beam 9),
        with nothing removed the search never asks the walk for liveness —
        the no-tombstone walk costs what it cost — and with a node removed
        it does."""
        index, vectors = populated
        beam = (len(index) - 1) // SCAN_BEAMS
        walks = []
        search_layer = HnswIndex._search_layer

        def recorded(self, *args, live=False):
            walks.append(live)
            return search_layer(self, *args, live=live)

        monkeypatch.setattr(HnswIndex, "_search_layer", recorded)
        index.relabel(9, 309)
        assert index.search(vectors[9], 1, ef=beam)[0][0] == 309
        index.remove(10)
        assert index.search(vectors[10], 1, ef=beam)[0][0] != 10
        assert walks == [False, True]


class TestGraphMemory:
    """The graph is arrays beside the row store, a slot per linked row."""

    def test_rows_under_the_scan_bound_make_no_python_object(self):
        """500 adds under ``SCAN_BEAMS`` beams of ``ef_search`` 80 store rows
        and link none: no object the collector tracks is made per row, and
        the module allocates nothing of its own (its id and level columns
        are ``np.resize`` copies)."""
        vectors = _unit_rows(600, 16, seed=30)
        index = HnswIndex(dim=16, m=8, ef_construction=40, ef_search=80, seed=1)
        for i, row in enumerate(vectors[:100]):
            index.add(i, row)
        gc.collect()
        before = len(gc.get_objects())
        tracemalloc.start()
        for i, row in enumerate(vectors[100:], start=100):
            index.add(i, row)
        traced = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, hnsw_module.__file__)]
        )
        tracemalloc.stop()
        gc.collect()
        assert index._linked == 0
        assert len(gc.get_objects()) - before < 50
        assert sum(stat.size for stat in traced.statistics("filename")) < 1024

    def test_a_linked_graph_holds_a_fixed_number_of_arrays(self):
        """Linked at 300 rows or at 3 000, the index holds the store's three
        arrays, its id, level and visited columns, five arrays per layer,
        and no other container but its retired-id set and layer list."""
        for n in (300, 3000):
            vectors = _unit_rows(n, 16, seed=31)
            index = HnswIndex(dim=16, m=8, ef_construction=40, ef_search=4, seed=1)
            for i, row in enumerate(vectors):
                index.add(i, row)
            index.search(vectors[0], 3)  # walks: every row is linked
            assert index._linked == n
            seen, stack, held = set(), [index], []
            while stack:
                obj = stack.pop()
                if id(obj) in seen or isinstance(obj, type):
                    continue
                seen.add(id(obj))
                if isinstance(obj, np.ndarray) or gc.is_tracked(obj):
                    held.append(type(obj).__name__)
                stack.extend(gc.get_referents(obj))
            layers = len(index._layers)
            assert sorted(held) == sorted(
                ["HnswIndex", "RowStore", "Random", "list", "set"]
                + ["ndarray"] * (6 + 5 * layers)
                + ["_Layer"] * layers
            ), n


class TestWalkedGraphBits:
    #: sha256 of every ``(id, distance.hex())`` the searches below return.
    DIGEST = "e0b2d3044e3a32bfd132a5c51031b0b4d305a656b14ab6b040cefeaf7f5c9b68"

    def test_a_walked_graph_returns_the_pinned_bits(self):
        """2 000 clustered rows, one in seven a copy of an earlier one,
        under ids in no order (``m`` 8, ``ef_construction`` 40: inserts walk
        past 1 280 rows); from row 1 000 on, one add in eight removes or
        relabels a live row.  Fifty searches at ``ef_search`` 16 or
        narrower walk the graph, half of them while it still grows, and
        every id and distance bit they return is pinned."""
        generator = np.random.default_rng(2024)
        n, dim = 2000, 16
        centres = generator.standard_normal((25, dim))
        rows = centres[generator.integers(0, 25, n)] + 0.2 * generator.standard_normal((n, dim))
        for target in range(1, n):
            if generator.random() < 1 / 7:
                rows[target] = rows[generator.integers(0, target)]
        queries = centres[generator.integers(0, 25, 50)] + 0.3 * generator.standard_normal((50, dim))
        queries[::10] = rows[generator.integers(0, n, 5)]  # exact ties with stored rows
        index = HnswIndex(dim, m=8, ef_construction=40, ef_search=16, seed=9)
        digest, live, work = hashlib.sha256(), [], WorkCounters()

        def searches(batch):
            for query in batch:
                k = int(generator.integers(1, 17))
                ef = None if generator.random() < 0.5 else int(generator.integers(k, 17))
                for item_id, distance in index.search(query, k, ef=ef, work=work):
                    digest.update(f"{item_id} {distance.hex()};".encode())

        for number, (item_id, row) in enumerate(zip(generator.permutation(4 * n)[:n].tolist(), rows)):
            index.add(item_id, row)
            live.append(item_id)
            if number >= 1000 and number % 8 == 7:
                at = int(generator.integers(0, len(live)))
                if generator.random() < 0.6:
                    index.remove(live.pop(at))
                else:
                    index.relabel(live[at], 10 * n + live[at])
                    live[at] += 10 * n
            if number == 1500:
                searches(queries[:25])
        searches(queries[25:])
        assert SCAN_BEAMS * 16 < 1500 and len(live) < n
        assert work.get(WORK_ANN_DISTANCE_EVALS) < 25 * 1500 + 25 * len(index)  # walked
        assert digest.hexdigest() == self.DIGEST


class TestHnswRecall:
    def test_high_recall_against_exact(self, wide):
        """The paper found HNSW ≈ exhaustive k-NN; recall@10 of the walk
        must be high."""
        index, vectors = wide
        exact = ExactKnnIndex(dim=24)
        for i, row in enumerate(vectors):
            exact.add(i, row)

        queries = _unit_rows(30, 24, seed=5)
        total_recall = 0.0
        work = WorkCounters()
        for query in queries:
            truth = {i for i, _ in exact.search(query, 10)}
            approx = {i for i, _ in index.search(query, 10, work=work)}
            total_recall += len(truth & approx) / 10
        assert work.get(WORK_ANN_DISTANCE_EVALS) < len(queries) * len(index)  # walked
        assert total_recall / len(queries) >= 0.9

    @pytest.mark.parametrize("n", (400, 1000, 3600))
    def test_recall_at_serving_parameters_across_seeds(self, n):
        """ROADMAP item 3: recall@10 against ``ann.exact`` with the parameters
        ``SearchIndex`` serves with, on tight clusters with exact duplicates
        (a knowledge base repeats titles) — the data where a graph falls
        apart if neighbour selection stops favouring diverse edges —
        averaged over five seeds.  Inserts scan up to ``SCAN_BEAMS`` beams
        of ``ef_construction`` 100 (3 200 rows) and searches up to
        ``SCAN_BEAMS`` beams of 80 (2 560 rows): 400 and 1 000 rows are
        only scanned, while at 3 600 rows every search and the last 399
        inserts walk."""
        assert SCAN_BEAMS * 80 < SCAN_BEAMS * 100 < 3600
        recalls = []
        seen = 3 * n // 4
        for seed in range(5):
            generator = np.random.default_rng(seed)
            centres = generator.standard_normal((20, 32))
            rows = centres[generator.integers(0, 20, n)]
            rows = rows + 0.05 * generator.standard_normal((n, 32))
            rows[seen:] = rows[generator.integers(0, seen, n - seen)]
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            index = HnswIndex(dim=32, m=16, ef_construction=100, ef_search=80, seed=seed)
            exact = ExactKnnIndex(dim=32)
            for i, row in enumerate(rows):
                index.add(i, row)
                exact.add(i, row)
            queries = centres[generator.integers(0, 20, 20)]
            queries = queries + 0.05 * generator.standard_normal((20, 32))
            for query in queries:
                truth = {i for i, _ in exact.search(query, 10)}
                approx = {i for i, _ in index.search(query, 10)}
                recalls.append(len(truth & approx) / 10)
        assert sum(recalls) / len(recalls) >= 0.95

    def test_higher_ef_not_worse(self, wide):
        """Beams 12 and 24 both walk the 800-row graph (24 is the widest
        that does)."""
        index, vectors = wide
        exact = ExactKnnIndex(dim=24)
        for i, row in enumerate(vectors):
            exact.add(i, row)
        query = _unit_rows(1, 24, seed=6)[0]
        truth = {i for i, _ in exact.search(query, 10)}
        assert SCAN_BEAMS * 24 < len(index)
        low = {i for i, _ in index.search(query, 10, ef=12)}
        high = {i for i, _ in index.search(query, 10, ef=24)}
        assert len(truth & high) >= len(truth & low)

    def test_graph_layers_exist(self, wide):
        index, _ = wide
        # 800 points virtually always give >1 layer
        assert index._levels[index._entry_point] >= 1
