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

Distance is cosine with both norms taken ahead of time, written out at each
site operand for operand as :func:`repro.ann.distance.cosine_distance`, so
the two agree to the last bit (DESIGN.md §17).  Vectors are the rows of one
:class:`~repro.ann.store.RowStore`, whose labels are the ids searches report
(``-1`` once removed: the node stays as a route, hnswlib's ``markDelete``).
A graph of at most :data:`SCAN_BEAMS` beams of rows is searched, and
inserted into, through one store pass instead of a walk; its rows are linked
:data:`LATE_LINK_ROWS` per add over the last ``1 / LATE_LINK_ROWS`` of that
bound, all before a search walks.  A neighbour list keeps its distances and
Algorithm 4's verdicts: an edge is measured once.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array

import numpy as np

from repro.ann.distance import ZERO_NORM
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


class _Node:
    """One element of the graph: its store row, norm, per-layer adjacency.

    Searches report a node under its row's label (``-1`` once removed); the
    graph itself (``HnswIndex._nodes``, the neighbour lists) keeps naming the
    node by the id it was added under.

    Beside the neighbour ids an adjacency list keeps what the inserts that
    made it already paid for (DESIGN.md §17): the distance to each neighbour,
    and how far Algorithm 4 has judged the list.  The first ``kept[layer]``
    entries passed it and the entries up to ``judged[layer]`` failed it and
    were re-admitted by its fall-back, each run in ``(distance, id)`` order;
    the entries after that were appended by :meth:`HnswIndex._link` since and
    are unjudged.
    """

    __slots__ = ("row", "vector", "norm", "neighbors", "distances", "kept", "judged")

    def __init__(self, row: int, vector: np.ndarray, norm: float, level: int) -> None:
        self.row = row
        self.vector = vector  # a view of the store's row, re-pointed when the store grows
        self.norm = norm
        # neighbors[layer] -> list of item ids
        self.neighbors: list[list[int]] = [[] for _ in range(level + 1)]
        # distances[layer][i] -> distance from this node to neighbors[layer][i]
        self.distances = [array("d") for _ in range(level + 1)]
        self.kept = [0] * (level + 1)
        self.judged = [0] * (level + 1)

    @property
    def level(self) -> int:
        return len(self.neighbors) - 1


class HnswIndex:
    """HNSW index over unit vectors, by cosine distance.

    Args:
        dim: vector dimensionality.
        m: max neighbours per node per layer (layer 0 allows ``2*m``).
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
        if dim <= 0:
            raise ValueError("dim must be positive")
        if m < 2:
            raise ValueError("m must be at least 2")
        self._dim = dim
        self._m = m
        self._max_m0 = 2 * m
        self._ef_construction = max(ef_construction, m)
        self.ef_search = ef_search
        self._level_mult = 1.0 / math.log(m)
        self._rng = random.Random(seed)
        # Keyed by the id a node was added under, for the life of the graph,
        # and in row order: the n-th node added holds the store's n-th row.
        self._nodes: dict[int, _Node] = {}
        self._store = RowStore(dim)
        # Beside each store row, the id its node was added under and its top layer.
        self._ids = np.empty_like(self._store.labels)
        self._levels = np.empty_like(self._store.labels)
        self._entry_point: int | None = None
        self._linked = 0  # rows [0, _linked) are in the graph, the rest wait
        self._removed = 0

    def __len__(self) -> int:
        """Stored nodes, removed ones included: they still route."""
        return len(self._nodes)

    def __contains__(self, item_id: int) -> bool:
        """True when a live node answers to *item_id*."""
        return item_id in self._store

    def vector(self, item_id: int) -> np.ndarray:
        """The vector of live item *item_id* (the index's own row)."""
        return self._nodes[int(self._ids[self._store.row(item_id)])].vector

    def remove(self, item_id: int) -> None:
        """Take live item *item_id* out of every later result (``KeyError``
        when none answers to it); its node stays in the graph as a route
        until the owner rebuilds it."""
        self._store.remove(item_id)
        self._removed += 1

    def relabel(self, item_id: int, new_id: int) -> None:
        """Make live item *item_id* answer to *new_id* from now on.

        ``ValueError`` when *item_id* is not live or *new_id* is taken — by a
        live item or, as for :meth:`add`, by a node that was added under it.
        """
        if new_id in self._nodes:
            raise ValueError(f"item id in use: {new_id}")
        self._store.relabel(item_id, new_id)

    def add(self, item_id: int, vector: np.ndarray) -> None:
        """Store *vector* under *item_id* (values finite); it is linked into
        the graph before a search walks it (:meth:`_link_pending`).  Over
        the last ``1 / LATE_LINK_ROWS`` of :data:`SCAN_BEAMS` beams of
        ``ef_search`` rows each add also links that many pending rows, so
        the backlog is empty at the bound and no single add links it all.

        Ids are unique over the life of the graph: one that was removed or
        relabelled away still names its node and cannot be added again.
        """
        if vector.shape != (self._dim,):
            raise ValueError(f"expected shape ({self._dim},), got {vector.shape}")
        if item_id in self._nodes or item_id in self._store:
            raise ValueError(f"duplicate item id: {item_id}")

        vector = np.asarray(vector, dtype=np.float64)
        norm = float(np.linalg.norm(vector))
        if not math.isfinite(norm):
            raise ValueError(f"vector of item {item_id} is not finite (norm {norm})")
        level, store = self._draw_level(), self._store
        block = store.rows
        row = store.append(vector, norm, item_id)
        if store.rows is not block:
            for node, moved in zip(self._nodes.values(), store.rows):
                node.vector = moved
            grown = len(store.rows)
            self._ids, self._levels = np.resize(self._ids, grown), np.resize(self._levels, grown)
        self._ids[row], self._levels[row] = item_id, level
        self._nodes[item_id] = _Node(row, store.rows[row], norm, level)
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
        if k <= 0 or not self._nodes:
            return []
        ef = max(ef if ef is not None else self.ef_search, k)
        query = np.asarray(query, dtype=np.float64)
        query_norm = float(np.linalg.norm(query))
        if not math.isfinite(query_norm):
            raise ValueError(f"query vector is not finite (norm {query_norm})")

        rows = len(self._nodes)
        if rows <= SCAN_BEAMS * ef:
            if work is not None:
                work.add(WORK_ANN_DISTANCE_EVALS, rows)
            return self._store.nearest(query, query_norm, k)
        self._link_pending()
        evals, current = 0, self._entry_point
        for layer in range(self._nodes[current].level, 0, -1):
            current, walked = self._greedy_closest(query, query_norm, current, layer)
            evals += walked
        live = bool(self._removed)
        candidates, walked = self._search_layer(query, query_norm, current, ef, 0, live=live)
        evals += walked
        # Results answer to their row's current label, not the id the node was added under.
        nodes, labels = self._nodes, self._store.labels
        candidates = sorted((distance, int(labels[nodes[key].row])) for distance, key in candidates)
        if work is not None:
            work.add(WORK_ANN_DISTANCE_EVALS, evals)
        return [(item_id, distance) for distance, item_id in candidates[:k]]

    # -- internals ---------------------------------------------------------

    def _draw_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._level_mult)

    def _link_pending(self, limit: int | None = None) -> None:
        """Insert the rows not linked yet, at most *limit* of them, in row
        order: :data:`LATE_LINK_ROWS` per :meth:`add` late in the search
        bound, and all of them before a :meth:`search` walks.  An
        insert reads no label and not the removed count, so a late link
        builds the graph an insert at each add would have (DESIGN.md §17)."""
        store, ids, levels = self._store, self._ids, self._levels
        nodes, ef = self._nodes, self._ef_construction
        end = len(nodes) if limit is None else min(len(nodes), self._linked + limit)
        for row in range(self._linked, end):
            item_id = int(ids[row])
            node = nodes[item_id]
            vector, norm, level = node.vector, node.norm, node.level
            top = -1 if self._entry_point is None else nodes[self._entry_point].level
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
                    current = min(candidates)[1]
                    distances, neighbors = zip(*candidates)
                else:
                    nearest = order[tops >= layer][:ef]
                    distances, neighbors = scanned[nearest].tolist(), ids[nearest].tolist()
                # The candidates are an adjacency list with nothing judged.
                node.distances[layer] = array("d", distances)
                node.neighbors[layer] = list(neighbors)
                self._select_neighbors_heuristic(node, layer, self._m)
                # d(new, neighbour) is d(neighbour, new) to the bit: the products
                # commute and the dot sums them in index order either way.
                max_degree = self._max_m0 if layer == 0 else self._m
                for distance, neighbor_id in zip(node.distances[layer], node.neighbors[layer]):
                    self._link(neighbor_id, item_id, layer, max_degree, distance)
            if level > top:
                self._entry_point = item_id
        self._linked = end

    def _greedy_closest(
        self, query: np.ndarray, query_norm: float, start: int, layer: int
    ) -> tuple[int, int]:
        """Greedy ef=1 descent on one layer along improving edges: returns
        the closest node reached and the distances evaluated."""
        nodes = self._nodes
        dot = np.dot
        current, node = start, nodes[start]
        norm = query_norm * node.norm
        current_distance = 1.0 if norm < ZERO_NORM else 1.0 - float(dot(query, node.vector)) / norm
        evals = 1
        improved = True
        while improved:
            improved = False
            for neighbor_id in nodes[current].neighbors[layer]:
                node = nodes[neighbor_id]
                norm = query_norm * node.norm
                distance = 1.0 if norm < ZERO_NORM else 1.0 - float(dot(query, node.vector)) / norm
                evals += 1
                if distance < current_distance:
                    current, current_distance = neighbor_id, distance
                    improved = True
        return current, evals

    def _search_layer(
        self,
        query: np.ndarray,
        query_norm: float,
        entry: int,
        ef: int,
        layer: int,
        live: bool = False,
    ) -> tuple[list[tuple[float, int]], int]:
        """Algorithm 2: best-first search from *entry* with dynamic list of
        width *ef*.

        Returns the ``(distance, id)`` results, unordered, and the distances
        evaluated.  With *live*, a removed node is expanded like any other —
        its edges may be the only way to the live nodes behind it — and never
        enters the results, so *ef* bounds live results and the walk ends
        once the nearest unexpanded node is farther than the worst of *ef*
        live ones.  Inserts link to removed nodes, so they search without.
        """
        nodes = self._nodes
        dot = np.dot
        heappush, heappop = heapq.heappush, heapq.heappop
        node = nodes[entry]
        norm = query_norm * node.norm
        distance = 1.0 if norm < ZERO_NORM else 1.0 - float(dot(query, node.vector)) / norm
        evals = 1
        visited = {entry}
        candidates = [(distance, entry)]  # min-heap by distance
        # max-heap via negated distance
        labels = self._store.labels
        results = [] if live and labels[node.row] < 0 else [(-distance, entry)]

        while candidates:
            distance, point = heappop(candidates)
            if len(results) >= ef and distance > -results[0][0]:
                break
            for neighbor_id in nodes[point].neighbors[layer]:
                if neighbor_id in visited:
                    continue
                visited.add(neighbor_id)
                node = nodes[neighbor_id]
                norm = query_norm * node.norm
                neighbor_distance = (
                    1.0 if norm < ZERO_NORM else 1.0 - float(dot(query, node.vector)) / norm
                )
                evals += 1
                if len(results) < ef or neighbor_distance < -results[0][0]:
                    heappush(candidates, (neighbor_distance, neighbor_id))
                    if not live or labels[node.row] >= 0:
                        heappush(results, (-neighbor_distance, neighbor_id))
                        if len(results) > ef:
                            heappop(results)
        return [(-negated, key) for negated, key in results], evals

    def _select_neighbors_heuristic(self, node: _Node, layer: int, m: int) -> None:
        """Algorithm 4: cut *node*'s adjacency list on *layer* down to *m*.

        Diversity-preserving selection: walking the list in ``(distance,
        id)`` order, an entry is kept unless an entry kept before it is
        closer to it than *node* is; if fewer than *m* pass, the nearest of
        the failed fill up.  An entry's verdict depends only on the kept
        entries that sort before it, so the verdicts the list carries
        (:class:`_Node`) stand in for most of the comparisons:

        * a formerly kept entry passed against every formerly kept entry
          before it: it is compared only with the entries kept now that were
          not kept then;
        * a formerly failed entry fails again as long as every formerly kept
          entry before it has been kept again — the one it failed against is
          among them;
        * an unjudged entry, and a formerly failed one once a formerly kept
          entry has failed, is compared with everything kept so far.

        The insert's own selection over its search results is the same walk
        with nothing judged.
        """
        nodes = self._nodes
        dot = np.dot
        neighbors = node.neighbors[layer]
        kept, judged = node.kept[layer], node.judged[layer]
        ordered = sorted(zip(node.distances[layer], neighbors, range(len(neighbors))))
        selected: list[tuple[float, int, int]] = []
        selected_nodes: list[_Node] = []
        fresh_nodes: list[_Node] = []  # kept now, not kept before
        failed: list[tuple[float, int, int]] = []
        verdicts_hold = True  # every formerly kept entry so far is kept again
        for entry in ordered:
            if len(selected) >= m:
                break
            distance, candidate_id, position = entry
            if position < kept:
                others = fresh_nodes
            elif position < judged and verdicts_hold:
                failed.append(entry)
                continue
            else:
                others = selected_nodes
            candidate = nodes[candidate_id]
            # Keep the candidate unless an already selected neighbour is
            # closer to it than the point is; stop at the first such one.
            for other in others:
                norm = candidate.norm * other.norm
                between = (
                    1.0
                    if norm < ZERO_NORM
                    else 1.0 - float(dot(candidate.vector, other.vector)) / norm
                )
                if between < distance:
                    failed.append(entry)
                    if position < kept:
                        verdicts_hold = False
                    break
            else:
                selected.append(entry)
                selected_nodes.append(candidate)
                if position >= kept:
                    fresh_nodes.append(candidate)
        node.kept[layer] = len(selected)
        # Fall back to plain nearest if the heuristic was too aggressive.
        if len(selected) < m:
            selected += failed[: m - len(selected)]
        node.judged[layer] = len(selected)
        node.distances[layer] = array("d", [distance for distance, _, _ in selected])
        node.neighbors[layer] = [neighbor_id for _, neighbor_id, _ in selected]

    def _link(self, from_id: int, to_id: int, layer: int, max_degree: int, distance: float) -> None:
        """Add edge from→to of length *distance* on *layer*, re-pruning if
        the degree bound breaks."""
        node = self._nodes[from_id]
        neighbors = node.neighbors[layer]
        if to_id in neighbors:
            return
        neighbors.append(to_id)
        node.distances[layer].append(distance)
        if len(neighbors) > max_degree:
            self._select_neighbors_heuristic(node, layer, max_degree)
