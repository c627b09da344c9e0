"""Read an :class:`~repro.ann.hnsw.HnswIndex`'s graph arrays as per-node lists.

The index keeps its graph as arrays indexed by store row (one
:class:`~repro.ann.hnsw._Layer` per layer).  The reference
(``tests/reference_hnsw.py``) names a node by the id it was added under and
keeps its lists as Python lists; these helpers put the serving index's graph
in those terms so the two can be compared.
"""

from __future__ import annotations

import numpy as np


def adjacency(index, row: int, layer: int) -> tuple[list[int], list[float], int, int]:
    """Row *row*'s list on *layer*: neighbour rows, edge distances, and the
    kept and judged counts."""
    graph = index._layers[layer]
    slot = graph.slot(row)
    count = int(graph.degree[slot])
    return (
        graph.neighbors[slot, :count].tolist(),
        graph.distances[slot, :count].tolist(),
        int(graph.kept[slot]),
        int(graph.judged[slot]),
    )


def node_lists(index) -> dict[int, list[tuple[list[int], list[float], int, int]]]:
    """Every linked node's lists, layer 0 first, keyed and naming its
    neighbours by the id each was added under."""
    ids = index._ids
    nodes = {}
    for row in range(index._linked):
        lists = []
        for layer in range(int(index._levels[row]) + 1):
            rows, distances, kept, judged = adjacency(index, row, layer)
            lists.append((ids[rows].tolist(), distances, kept, judged))
        nodes[int(ids[row])] = lists
    return nodes


def entry_id(index) -> int | None:
    """The id the entry point was added under (``None`` before a link)."""
    return None if index._entry_point is None else int(index._ids[index._entry_point])


def node_vectors(index) -> dict[int, np.ndarray]:
    """Every stored row's vector, by the id it was added under."""
    store = index._store
    return {int(item_id): store.rows[row] for row, item_id in enumerate(index._ids[: store.count])}
