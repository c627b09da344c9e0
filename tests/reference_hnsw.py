"""The HNSW index as it stood before distances were paid for once (PR 14).

Test oracle only: :mod:`tests.test_ann_hnsw_oracle` builds this class and
:class:`repro.ann.hnsw.HnswIndex` from the same inputs and requires equal
graphs, ids, distance bits and work counts.  The body is the parent commit's
``src/repro/ann/hnsw.py`` unchanged except that the deleted ``metric`` knob is
gone: every distance goes through :func:`repro.ann.distance.cosine_distance`
(two norms and one dot per pair), the public reference function the serving
index must keep agreeing with.  One rule was added since: an insert into a
graph of at most ``SCAN_BEAMS`` beams of ``ef_construction`` rows takes its
candidates by brute force over every node instead of walking (DESIGN.md
§17).  Do not optimise this file.
"""

from __future__ import annotations

import heapq
import math
import random

import numpy as np

from repro.ann.distance import cosine_distance
from repro.ann.hnsw import SCAN_BEAMS
from repro.obs.work import WORK_ANN_DISTANCE_EVALS


class _Node:
    """One element of the graph: vector plus per-layer adjacency."""

    __slots__ = ("item_id", "vector", "neighbors")

    def __init__(self, item_id: int, vector: np.ndarray, level: int) -> None:
        self.item_id = item_id
        self.vector = vector
        # neighbors[layer] -> list of item ids
        self.neighbors: list[list[int]] = [[] for _ in range(level + 1)]

    @property
    def level(self) -> int:
        return len(self.neighbors) - 1


class HnswIndex:
    """HNSW index over unit vectors.

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
        self._distance = cosine_distance
        self._level_mult = 1.0 / math.log(m)
        self._rng = random.Random(seed)
        self._nodes: dict[int, _Node] = {}
        self._entry_point: int | None = None

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._nodes

    @property
    def dim(self) -> int:
        """Vector dimensionality accepted by the index."""
        return self._dim

    @property
    def max_level(self) -> int:
        """Top layer of the current entry point (-1 when empty)."""
        if self._entry_point is None:
            return -1
        return self._nodes[self._entry_point].level

    def add(self, item_id: int, vector: np.ndarray) -> None:
        """Insert *vector* under *item_id* (ids must be unique)."""
        if vector.shape != (self._dim,):
            raise ValueError(f"expected shape ({self._dim},), got {vector.shape}")
        if item_id in self._nodes:
            raise ValueError(f"duplicate item id: {item_id}")

        level = self._draw_level()
        node = _Node(item_id, np.asarray(vector, dtype=np.float64), level)
        self._nodes[item_id] = node

        if self._entry_point is None:
            self._entry_point = item_id
            return

        entry = self._entry_point
        top = self._nodes[entry].level
        scan = len(self._nodes) - 1 <= SCAN_BEAMS * self._ef_construction
        if scan:
            # Brute force: every other node, nearest first, ties by id.
            everyone = sorted(
                (self._distance(node.vector, other.vector), other_id)
                for other_id, other in self._nodes.items()
                if other_id != item_id
            )

        # Phase 1: greedy descent through layers above the new node's level.
        current = entry
        if not scan:
            for layer in range(top, level, -1):
                current = self._greedy_closest(node.vector, current, layer)

        # Phase 2: connect on each layer from min(level, top) down to 0.
        for layer in range(min(level, top), -1, -1):
            if scan:
                candidates = [
                    (distance, other_id)
                    for distance, other_id in everyone
                    if self._nodes[other_id].level >= layer
                ][: self._ef_construction]
            else:
                candidates = self._search_layer(
                    node.vector, [current], self._ef_construction, layer
                )
            max_degree = self._max_m0 if layer == 0 else self._m
            selected = self._select_neighbors_heuristic(node.vector, candidates, self._m)
            node.neighbors[layer] = [cid for _, cid in selected]
            for _, neighbor_id in selected:
                self._link(neighbor_id, item_id, layer, max_degree)
            if candidates:
                current = min(candidates)[1]

        if level > top:
            self._entry_point = item_id

    def search(
        self, query: np.ndarray, k: int, ef: int | None = None, work=None
    ) -> list[tuple[int, float]]:
        """Return approximately the *k* nearest items to *query*.

        Results are ``(item_id, distance)`` sorted by ascending distance.
        ``ef`` overrides the index default candidate width for this query.
        *work* is an optional :class:`~repro.obs.work.WorkCounters`; the
        graph walk is the source of truth for ``ann_distance_evals`` (one
        unit per distance computation, descent and base layer alike).
        """
        if k <= 0 or self._entry_point is None:
            return []
        ef = max(ef if ef is not None else self.ef_search, k)
        query = np.asarray(query, dtype=np.float64)
        evals = [0] if work is not None else None

        current = self._entry_point
        for layer in range(self._nodes[current].level, 0, -1):
            current = self._greedy_closest(query, current, layer, evals)

        candidates = self._search_layer(query, [current], ef, 0, evals)
        candidates.sort()
        if evals is not None and evals[0]:
            work.add(WORK_ANN_DISTANCE_EVALS, evals[0])
        return [(item_id, distance) for distance, item_id in candidates[:k]]

    # -- internals ---------------------------------------------------------

    def _draw_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._level_mult)

    def _greedy_closest(
        self, query: np.ndarray, start: int, layer: int, evals: list[int] | None = None
    ) -> int:
        """Greedy ef=1 descent on one layer: follow improving edges."""
        current = start
        current_distance = self._distance(query, self._nodes[current].vector)
        if evals is not None:
            evals[0] += 1
        improved = True
        while improved:
            improved = False
            for neighbor_id in self._nodes[current].neighbors[layer]:
                distance = self._distance(query, self._nodes[neighbor_id].vector)
                if evals is not None:
                    evals[0] += 1
                if distance < current_distance:
                    current, current_distance = neighbor_id, distance
                    improved = True
        return current

    def _search_layer(
        self,
        query: np.ndarray,
        entry_points: list[int],
        ef: int,
        layer: int,
        evals: list[int] | None = None,
    ) -> list[tuple[float, int]]:
        """Algorithm 2: best-first search with dynamic list of width *ef*."""
        visited = set(entry_points)
        candidates: list[tuple[float, int]] = []  # min-heap by distance
        results: list[tuple[float, int]] = []  # max-heap via negated distance
        for point in entry_points:
            distance = self._distance(query, self._nodes[point].vector)
            if evals is not None:
                evals[0] += 1
            heapq.heappush(candidates, (distance, point))
            heapq.heappush(results, (-distance, point))

        while candidates:
            distance, point = heapq.heappop(candidates)
            worst = -results[0][0]
            if distance > worst and len(results) >= ef:
                break
            for neighbor_id in self._nodes[point].neighbors[layer]:
                if neighbor_id in visited:
                    continue
                visited.add(neighbor_id)
                neighbor_distance = self._distance(query, self._nodes[neighbor_id].vector)
                if evals is not None:
                    evals[0] += 1
                worst = -results[0][0]
                if len(results) < ef or neighbor_distance < worst:
                    heapq.heappush(candidates, (neighbor_distance, neighbor_id))
                    heapq.heappush(results, (-neighbor_distance, neighbor_id))
                    if len(results) > ef:
                        heapq.heappop(results)
        return [(-negated, item_id) for negated, item_id in results]

    def _select_neighbors_heuristic(
        self, query: np.ndarray, candidates: list[tuple[float, int]], m: int
    ) -> list[tuple[float, int]]:
        """Algorithm 4: diversity-preserving neighbour selection."""
        ordered = sorted(candidates)
        selected: list[tuple[float, int]] = []
        for distance, candidate_id in ordered:
            if len(selected) >= m:
                break
            candidate_vector = self._nodes[candidate_id].vector
            closer_to_selected = any(
                self._distance(candidate_vector, self._nodes[sel_id].vector) < distance
                for _, sel_id in selected
            )
            if not closer_to_selected:
                selected.append((distance, candidate_id))
        # Fall back to plain nearest if the heuristic was too aggressive.
        if len(selected) < m:
            chosen = {sel_id for _, sel_id in selected}
            for distance, candidate_id in ordered:
                if len(selected) >= m:
                    break
                if candidate_id not in chosen:
                    selected.append((distance, candidate_id))
                    chosen.add(candidate_id)
        return selected

    def _link(self, from_id: int, to_id: int, layer: int, max_degree: int) -> None:
        """Add edge from→to on *layer*, re-pruning if the degree bound breaks."""
        node = self._nodes[from_id]
        if to_id in node.neighbors[layer]:
            return
        node.neighbors[layer].append(to_id)
        if len(node.neighbors[layer]) > max_degree:
            candidates = [
                (self._distance(node.vector, self._nodes[nid].vector), nid)
                for nid in node.neighbors[layer]
            ]
            pruned = self._select_neighbors_heuristic(node.vector, candidates, max_degree)
            node.neighbors[layer] = [nid for _, nid in pruned]
