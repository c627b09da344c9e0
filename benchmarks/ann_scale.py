"""HNSW at row counts past the scan bound: link, walk, scan, recall, bytes.

    PYTHONPATH=src python3 benchmarks/ann_scale.py --rows 15000

embeds the content of a ``--topics``-topic corpus, mixes pairs of those
vectors into ``--rows`` unit rows and ``--queries`` queries, builds one
graph at the serving parameters (``M`` 16, ``ef_construction`` 100, beam
80) and prints one line per reading:

* ``link_s`` / ``link_ms_per_row`` — every add plus the final link;
* ``walk_ms`` — one search at k 50, averaged over the queries;
* ``scan_ms`` — one exact search at k 50 over the same rows;
* ``recall_at_10`` — of the walk against the exact search;
* ``row_bytes_per_row`` / ``graph_bytes_per_row`` — ``tracemalloc`` over
  a deep copy of the built index: its row store, and the rest (the graph's
  arrays and the id and level columns).  Tracing the build itself would
  slow the linking it times about fourfold.

A graph of at most ``SCAN_BEAMS`` beams of 80 rows (2 560) is scanned, not
walked, so ``walk_ms`` and ``recall_at_10`` read a walk only past that.
The row and link figures depend on the data and the seed alone; the times
on the machine.
"""

from __future__ import annotations

import argparse
import copy
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.ann import exact as exact_module  # noqa: E402
from repro.ann import hnsw as hnsw_module  # noqa: E402
from repro.core.factory import build_uniask_system  # noqa: E402
from repro.corpus.generator import KbGenerator, KbGeneratorConfig  # noqa: E402
from repro.corpus.vocabulary import build_banking_lexicon  # noqa: E402

M, EF_CONSTRUCTION, BEAM, K = 16, 100, 80, 50


def corpus_vectors(topics: int, seed: int) -> np.ndarray:
    """The content vector of every chunk of a *topics*-topic corpus."""
    kb = KbGenerator(KbGeneratorConfig(num_topics=topics, seed=seed)).generate()
    system = build_uniask_system(kb.store(), build_banking_lexicon(), seed=seed, ann_backend="exact")
    index = system.index
    return np.array([index.chunk_vector(i, "content") for i in sorted(index.live_internals())])


def mixed_rows(vectors: np.ndarray, count: int, generator: np.random.Generator) -> np.ndarray:
    """*count* unit rows, each a random blend of two corpus vectors."""
    pairs = generator.integers(0, len(vectors), (count, 2))
    weights = generator.uniform(0.0, 1.0, (count, 1))
    rows = weights * vectors[pairs[:, 0]] + (1.0 - weights) * vectors[pairs[:, 1]]
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def traced_bytes(value) -> int:
    """Bytes ``tracemalloc`` sees a deep copy of *value* hold."""
    tracemalloc.start()
    copied = copy.deepcopy(value)  # noqa: F841 - held while measured
    size = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return size


def measure(rows: np.ndarray, queries: np.ndarray, seed: int) -> dict[str, float]:
    """Build, walk and scan; every reading :func:`main` prints."""
    started = time.perf_counter()
    index = hnsw_module.HnswIndex(
        rows.shape[1], m=M, ef_construction=EF_CONSTRUCTION, ef_search=BEAM, seed=seed
    )
    for item_id, row in enumerate(rows):
        index.add(item_id, row)
    index._link_pending()
    link_s = time.perf_counter() - started
    row_bytes = traced_bytes(index._store)
    graph_bytes = traced_bytes(index) - row_bytes

    exact = exact_module.ExactKnnIndex(rows.shape[1])
    for item_id, row in enumerate(rows):
        exact.add(item_id, row)
    walk_s = scan_s = hits = 0.0
    for query in queries:
        started = time.perf_counter()
        walked = index.search(query, K)
        walk_s += time.perf_counter() - started
        started = time.perf_counter()
        truth = exact.search(query, K)
        scan_s += time.perf_counter() - started
        hits += len({i for i, _ in walked[:10]} & {i for i, _ in truth[:10]}) / 10
    n, q = len(rows), len(queries)
    return {
        "rows": n,
        "link_s": link_s,
        "link_ms_per_row": 1e3 * link_s / n,
        "walk_ms": 1e3 * walk_s / q,
        "scan_ms": 1e3 * scan_s / q,
        "recall_at_10": hits / q,
        "row_bytes_per_row": row_bytes / n,
        "graph_bytes_per_row": graph_bytes / n,
    }


def main(argv: list[str] | None = None) -> dict[str, float]:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, default=15_000)
    parser.add_argument("--queries", type=int, default=100)
    parser.add_argument("--topics", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    generator = np.random.default_rng(args.seed)
    vectors = corpus_vectors(args.topics, args.seed)
    rows = mixed_rows(vectors, args.rows, generator)
    queries = mixed_rows(vectors, args.queries, generator)
    readings = measure(rows, queries, args.seed)
    for name, value in readings.items():
        print(f"{name} {value:.4f}" if isinstance(value, float) else f"{name} {value}")
    return readings


if __name__ == "__main__":
    main()
