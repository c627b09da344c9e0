"""Hierarchical Navigable Small World (HNSW) approximate nearest neighbours.

A faithful from-scratch implementation of Malkov & Yashunin (2018), the ANN
algorithm Azure AI Search runs for the paper's vector retrieval (Section 4):

* multi-layer proximity graph; each element draws its top layer from a
  geometric distribution with normalization ``mL = 1 / ln(M)``;
* greedy descent through the upper layers with ``ef = 1``;
* best-first ``SEARCH-LAYER`` with a dynamic candidate list of size
  ``ef_construction`` (insert) / ``ef_search`` (query) on the base layer;
* neighbour selection by the *heuristic* of Algorithm 4 (keeps a candidate
  only if it is closer to the inserted point than to any already selected
  neighbour), which preserves graph connectivity in clustered data;
* degree bound ``M`` per layer (``2M`` on layer 0, as in the reference
  implementation), with re-pruning of affected neighbours.

Determinism: level draws come from a private ``random.Random(seed)``.

Every distance is one kernel call over float32 rows with both norms taken
ahead of time (:func:`~repro.ann.distance.cosine_distances`): a scan, the
unvisited neighbours of an expanded node, an Algorithm 4 entry against its
list (DESIGN.md §17).  A node is its row of one
:class:`~repro.ann.store.RowStore`, whose labels are the ids searches
report (``-1`` once removed: the node stays as a route, hnswlib's
``markDelete``); the graph is arrays beside the store (:class:`_Layer`).
A graph of at most :data:`SCAN_BEAMS` beams of rows is searched, and inserted
into, through one store pass instead of a walk; its rows are linked
:data:`LATE_LINK_ROWS` per add over the last ``1 / LATE_LINK_ROWS`` of that
bound, all before a search walks.
"""

from __future__ import annotations

import heapq
import math
import random

import numpy as np

from repro.ann.distance import cosine_distances, float32_row
from repro.ann.store import RowStore
from repro.obs.work import WORK_ANN_DISTANCE_EVALS

#: A graph of at most this many beams of rows, removed ones included, is
#: read by one RowStore pass instead of a walk: a search's beam is ``ef``, an
#: insert's ``ef_construction``.  Set by measured time: one vectorised pass
#: costs less than a walk's per-node distances up to about 50 beams on insert
#: and 75 on search (DESIGN.md §17), and its candidates are exact.
SCAN_BEAMS = 32

#: Rows each add links over the last ``1 / LATE_LINK_ROWS`` of the search
#: bound: the later linking starts, the fewer scan-only graphs are linked; the
#: more rows an add links, the longer it takes (≤ 0.05 s at 1 386 topics).
LATE_LINK_ROWS = 8


class _Layer:
    """One layer's neighbour lists as arrays, a slot per linked row on it.

    A slot holds up to ``width`` neighbour rows, each edge's distance, and
    how far Algorithm 4 has judged the list (DESIGN.md §17): the first
    ``kept`` entries passed it and those up to ``judged`` failed it and were
    re-admitted by its fall-back, each run in ``(distance, id)`` order; later
    entries were appended since and are unjudged.  Layer 0's slot is the
    row; an upper layer maps its rows to slots in ``slots``.
    """

    __slots__ = ("neighbors", "distances", "degree", "kept", "judged", "slots")

    def __init__(self, width: int, slots: dict[int, int] | None) -> None:
        self.neighbors = np.empty((0, width), dtype=np.int32)
        self.distances = np.empty((0, width), dtype=np.float64)
        self.degree = np.empty(0, dtype=np.int32)
        self.kept = np.empty(0, dtype=np.int8)
        self.judged = np.empty(0, dtype=np.int8)
        self.slots = slots

    def slot(self, row: int) -> int:
        return row if self.slots is None else self.slots[row]

    def open(self, slot: int) -> None:
        """Make *slot* an empty list, growing the arrays by half when full."""
        if slot == len(self.degree):
            for name in self.__slots__[:-1]:
                old = getattr(self, name)
                grown = np.empty((max(16, slot + slot // 2), *old.shape[1:]), dtype=old.dtype)
                grown[:slot] = old
                setattr(self, name, grown)
        self.degree[slot] = self.kept[slot] = self.judged[slot] = 0

    def write(self, slot: int, distances: list[float], rows: list[int], kept: int) -> None:
        """Make *slot*'s list the judged *rows* at *distances*, *kept* kept."""
        count = len(rows)
        self.neighbors[slot, :count], self.distances[slot, :count] = rows, distances
        self.degree[slot], self.kept[slot], self.judged[slot] = count, kept, count


class HnswIndex:
    """HNSW index over unit vectors, by cosine distance.

    Args:
        dim: vector dimensionality.
        m: max neighbours per node per layer (layer 0 allows ``2*m``); at
            most 63, so a list's verdict counts fit an int8.
        ef_construction: candidate-list width during insertion.
        ef_search: default candidate-list width during queries (raise for
            better recall, lower for speed); can be overridden per query.
        seed: seed for the level generator.
    """

    def __init__(
        self,
        dim: int,
        m: int = 16,
        ef_construction: int = 200,
        ef_search: int = 64,
        seed: int = 42,
    ) -> None:
        if not 2 <= m <= 63:
            raise ValueError("m must be between 2 and 63")
        self._dim, self._m = dim, m
        self._ef_construction = max(ef_construction, m)
        self.ef_search = ef_search
        self._level_mult = 1.0 / math.log(m)
        self._rng = random.Random(seed)
        self._store = RowStore(dim)
        # Beside each store row, the id it was added under (the graph's tie
        # key for the life of the graph) and its top layer.
        self._ids = np.empty_like(self._store.labels)
        self._levels = np.empty_like(self._store.labels)
        self._retired: set[int] = set()  # added, then removed or relabelled away
        self._layers = [_Layer(2 * m, None)]
        # Per linked row, the number of the last walk that met it.
        self._visited, self._walks = np.zeros(0, dtype=np.int32), 0
        self._entry_point: int | None = None  # a row
        self._linked = 0  # rows [0, _linked) are in the graph, the rest wait
        self._removed = 0

    def __len__(self) -> int:
        """Stored nodes, removed ones included: they still route."""
        return self._store.count

    def __contains__(self, item_id: int) -> bool:
        """True when a live node answers to *item_id*."""
        return item_id in self._store

    def vector(self, item_id: int) -> np.ndarray:
        """The float32 vector of live item *item_id*: a read-only view of
        its row."""
        view = self._store.rows[self._store.row(item_id)]
        view.flags.writeable = False
        return view

    def remove(self, item_id: int) -> None:
        """Take live item *item_id* out of every later result (``KeyError``
        when none answers to it); its node stays in the graph as a route
        until the owner rebuilds it."""
        self._retired.add(int(self._ids[self._store.row(item_id)]))
        self._store.remove(item_id)
        self._removed += 1

    def relabel(self, item_id: int, new_id: int) -> None:
        """Make live item *item_id* answer to *new_id* from now on.

        ``ValueError`` when *item_id* is not live or *new_id* is taken — by a
        live item or, as for :meth:`add`, by a node that was added under it.
        """
        if new_id in self._retired:
            raise ValueError(f"item id in use: {new_id}")
        self._store.relabel(item_id, new_id)
        self._retired.add(int(self._ids[self._store.row(new_id)]))

    def add(self, item_id: int, vector: np.ndarray, norm: float | None = None) -> None:
        """Store *vector* under *item_id* (values finite in float32; a *norm*
        marks it a checked row, :meth:`RowStore.append`); it is
        linked into the graph before a search walks it (:meth:`_link_pending`).
        Over the last ``1 / LATE_LINK_ROWS`` of :data:`SCAN_BEAMS` beams of
        ``ef_search`` rows each add also links that many pending rows, so
        the backlog is empty at the bound and no single add links it all.

        Ids are unique over the life of the graph: one that was removed or
        relabelled away still names its node and cannot be added again.
        """
        if item_id in self._store or item_id in self._retired:
            raise ValueError(f"duplicate item id: {item_id}")
        # The store refuses a misshapen or non-finite vector before the level draw.
        store = self._store
        row, level = store.append(vector, item_id, norm), self._draw_level()
        if row == len(self._ids):
            grown = len(store.labels)
            self._ids, self._levels = np.resize(self._ids, grown), np.resize(self._levels, grown)
        self._ids[row], self._levels[row] = item_id, level
        if LATE_LINK_ROWS * row >= (LATE_LINK_ROWS - 1) * SCAN_BEAMS * self.ef_search:
            self._link_pending(LATE_LINK_ROWS)

    def search(
        self, query: np.ndarray, k: int, ef: int | None = None, work=None
    ) -> list[tuple[int, float]]:
        """Return approximately the *k* nearest live items to *query*.

        Results are ``(item_id, distance)`` sorted by ascending distance,
        equal distances (duplicate vectors) by ascending *current* id — the
        ``ef`` candidates are put in that order before the cut to *k*.
        ``ef`` overrides the index default candidate width for this query;
        it counts live candidates, so removed nodes never crowd a result out.
        A graph of at most :data:`SCAN_BEAMS` beams (``max(ef, k)``) of rows,
        removed ones included, is scanned, not walked: the result is exact.
        *work* is an optional :class:`~repro.obs.work.WorkCounters`; the
        search is the source of truth for ``ann_distance_evals`` (one unit
        per distance computation, descent and base layer alike).
        """
        rows = self._store.count
        if k <= 0 or not rows:
            return []
        ef = max(ef if ef is not None else self.ef_search, k)
        query, query_norm = float32_row(query, "query vector", self._dim)

        if rows <= SCAN_BEAMS * ef:
            if work is not None:
                work.add(WORK_ANN_DISTANCE_EVALS, rows)
            return self._store.nearest(query, query_norm, k)
        self._link_pending()
        evals, current = 0, self._entry_point
        for layer in range(int(self._levels[current]), 0, -1):
            current, walked = self._greedy_closest(query, query_norm, current, layer)
            evals += walked
        live = bool(self._removed)
        candidates, walked = self._search_layer(query, query_norm, current, ef, 0, live=live)
        evals += walked
        # Results answer to their row's current label, not the id it was added under.
        labels = self._store.labels
        candidates = sorted((distance, int(labels[row])) for distance, _, row in candidates)
        if work is not None:
            work.add(WORK_ANN_DISTANCE_EVALS, evals)
        return [(item_id, distance) for distance, item_id in candidates[:k]]

    # -- internals ---------------------------------------------------------

    def _draw_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._level_mult)

    def _distance(self, query: np.ndarray, query_norm: float, row: int) -> float:
        return float(self._store.distances(query, query_norm, [row])[0])

    def _link_pending(self, limit: int | None = None) -> None:
        """Insert the rows not linked yet, at most *limit* of them, in row
        order: :data:`LATE_LINK_ROWS` per :meth:`add` late in the search
        bound, and all of them before a :meth:`search` walks.  An
        insert reads no label and not the removed count, so a late link
        builds the graph an insert at each add would have (DESIGN.md §17)."""
        store, ids, levels, layers = self._store, self._ids, self._levels, self._layers
        ef = self._ef_construction
        end = store.count if limit is None else min(store.count, self._linked + limit)
        if end > len(self._visited):
            self._visited, self._walks = np.zeros(len(store.labels), dtype=np.int32), 0
        for row in range(self._linked, end):
            vector, norm, level = store.rows[row], float(store.norms[row]), int(levels[row])
            top = -1 if self._entry_point is None else int(levels[self._entry_point])
            layers[0].open(row)
            for layer in range(1, level + 1):
                if layer == len(layers):
                    layers.append(_Layer(self._m, {}))
                slots = layers[layer].slots
                slots[row] = len(slots)
                layers[layer].open(slots[row])
            if row <= SCAN_BEAMS * ef:
                # No wider than SCAN_BEAMS beams: every row's distance from one
                # store pass, in (distance, id) order; removed rows are candidates.
                scanned = store.distances(vector, norm, row)
                order = np.lexsort((ids[:row], scanned))
                tops = levels[order]
            else:
                # Greedy descent through the layers above the new node's level.
                scanned, current = None, self._entry_point
                for layer in range(top, level, -1):
                    current, _ = self._greedy_closest(vector, norm, current, layer)
            # Connect on each layer from min(level, top) down to 0.
            for layer in range(min(level, top), -1, -1):
                if scanned is None:
                    candidates, _ = self._search_layer(vector, norm, current, ef, layer)
                    current = min(candidates)[2]
                    distances, _, neighbors = map(list, zip(*candidates))
                else:
                    nearest = order[tops >= layer][:ef]
                    distances, neighbors = scanned[nearest].tolist(), nearest.tolist()
                # The candidates are a list with nothing judged.
                picked = self._select_neighbors_heuristic(distances, neighbors, 0, 0, self._m)
                layers[layer].write(layers[layer].slot(row), *picked)
                # d(new, neighbour) is d(neighbour, new) to the bit: the products
                # commute and the dot sums them in index order either way.
                for distance, neighbor in zip(*picked[:2]):
                    self._link(neighbor, row, layer, distance)
            if level > top:
                self._entry_point = row
        self._linked = end

    def _greedy_closest(
        self, query: np.ndarray, query_norm: float, start: int, layer: int
    ) -> tuple[int, int]:
        """Greedy ef=1 descent on one layer along improving edges: returns
        the closest row reached and the distances evaluated."""
        graph = self._layers[layer]
        current, current_distance, evals = start, self._distance(query, query_norm, start), 1
        improved = True
        while improved:
            improved = False
            slot = graph.slot(current)
            rows = graph.neighbors[slot, : graph.degree[slot]]
            distances = self._store.distances(query, query_norm, rows)
            evals += len(rows)
            for row, distance in zip(rows.tolist(), distances.tolist()):
                if distance < current_distance:
                    current, current_distance, improved = row, distance, True
        return current, evals

    def _search_layer(
        self,
        query: np.ndarray,
        query_norm: float,
        entry: int,
        ef: int,
        layer: int,
        live: bool = False,
    ) -> tuple[list[tuple[float, int, int]], int]:
        """Algorithm 2: best-first search from row *entry* with dynamic list
        of width *ef*; heaps order on ``(distance, id added under)``.

        Returns the ``(distance, id, row)`` results, unordered, and the
        distances evaluated.  With *live*, a removed node is expanded like
        any other — its edges may be the only way to the live nodes behind
        it — and never enters the results, so *ef* bounds live results and
        the walk ends once the nearest unexpanded node is farther than the
        worst of *ef* live ones.  Inserts link to removed nodes, so they
        search without.
        """
        graph, store = self._layers[layer], self._store
        neighbors, degree, slots = graph.neighbors, graph.degree, graph.slots
        # Read through memoryviews, a column's entries come out as Python numbers.
        ids, labels = memoryview(self._ids), memoryview(store.labels)
        heappush, heappop = heapq.heappush, heapq.heappop
        if self._walks == np.iinfo(np.int32).max:
            self._visited[:], self._walks = 0, 0
        self._walks += 1
        visited, stamp = memoryview(self._visited), self._walks
        visited[entry] = stamp
        distance, key = self._distance(query, query_norm, entry), ids[entry]
        evals = 1
        candidates = [(distance, key, entry)]  # min-heap by distance
        # max-heap via negated distance
        results = [] if live and labels[entry] < 0 else [(-distance, key, entry)]

        while candidates:
            distance, _, point = heappop(candidates)
            if len(results) >= ef and distance > -results[0][0]:
                break
            slot = point if slots is None else slots[point]
            fresh = []
            for row in neighbors[slot, : degree[slot]].tolist():
                if visited[row] != stamp:
                    visited[row] = stamp
                    fresh.append(row)
            if not fresh:
                continue
            evals += len(fresh)
            for row, distance in zip(fresh, store.distances(query, query_norm, fresh).tolist()):
                if len(results) < ef or distance < -results[0][0]:
                    heappush(candidates, (distance, ids[row], row))
                    if not live or labels[row] >= 0:
                        heappush(results, (-distance, ids[row], row))
                        if len(results) > ef:
                            heappop(results)
        return [(-negated, key, row) for negated, key, row in results], evals

    def _select_neighbors_heuristic(
        self, distances: list[float], rows: list[int], kept: int, judged: int, m: int
    ) -> tuple[list[float], list[int], int]:
        """Algorithm 4: cut the list of *rows* at *distances* down to *m*;
        returns the cut list's distances, rows and kept count.

        Walking the list in ``(distance, id)`` order, an entry is kept unless
        an entry kept before it is closer to it than the list's node is; if
        fewer than *m* pass, the nearest failed ones fill up.  A verdict
        depends only on the kept entries sorting before it, so the list's
        *kept* / *judged* counts (:class:`_Layer`) spare comparisons: a
        formerly kept entry is compared only with entries kept now that were
        not kept then; a formerly failed one fails again while every formerly
        kept entry so far is kept again; an unjudged entry, or a formerly
        failed one after that, is compared with everything kept so far.  An
        insert's own selection is the same walk with nothing judged.

        An entry is measured at most once, in one kernel call over a slice
        of the gathered list: from the first entry kept both times when it
        must be compared with those, else from the entry after it.  When it
        is kept now and not then, the same call gives the entries after it
        their distance to it (``near`` holds the least).
        """
        order = sorted(zip(distances, self._ids[rows].tolist(), range(len(rows))))
        picks = [rows[position] for _, _, position in order]
        block, norms = self._store.rows.take(picks, axis=0), self._store.norms.take(picks)

        def measure(index: int, start: int) -> np.ndarray:
            return cosine_distances(block[index], norms[index], block[start:], norms[start:])

        near = np.full(len(rows), np.inf)
        again: list[int] = []  # where the entries kept then and now sit in order
        selected: list[int] = []
        failed: list[int] = []
        verdicts_hold = True  # every formerly kept entry so far is kept again
        for index, (distance, _, position) in enumerate(order):
            if len(selected) >= m:
                break
            if kept <= position < judged and verdicts_hold:
                failed.append(index)
                continue
            fails, start = near[index] < distance, index + 1
            if not fails and position >= kept and again:
                start = again[0]
                between = measure(index, start)
                fails = bool((between[np.subtract(again, start)] < distance).any())
            if fails:
                failed.append(index)
                verdicts_hold = verdicts_hold and position >= kept
                continue
            selected.append(index)
            if position < kept:
                again.append(index)
            elif len(selected) < m:
                if start > index:
                    between = measure(index, start)
                np.minimum(near[start:], between, out=near[start:])
        kept = len(selected)
        # Fall back to plain nearest if the heuristic was too aggressive.
        cut = selected + failed[: m - kept]
        return [order[index][0] for index in cut], [picks[index] for index in cut], kept

    def _link(self, from_row: int, to_row: int, layer: int, distance: float) -> None:
        """Add edge from→to of length *distance* on *layer*, re-pruning if
        the list is full (``2M`` entries on layer 0, ``M`` above)."""
        graph = self._layers[layer]
        slot, width = graph.slot(from_row), graph.neighbors.shape[1]
        degree = int(graph.degree[slot])
        if degree < width:
            graph.neighbors[slot, degree], graph.distances[slot, degree] = to_row, distance
            graph.degree[slot] = degree + 1
            return
        rows = graph.neighbors[slot].tolist() + [to_row]
        distances = graph.distances[slot].tolist() + [distance]
        kept, judged = int(graph.kept[slot]), int(graph.judged[slot])
        graph.write(slot, *self._select_neighbors_heuristic(distances, rows, kept, judged, width))
