"""Section 7 ablation — choosing K for vector search, and HNSW vs exact k-NN.

The paper swept K ∈ {3, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50} on the
validation datasets before fixing K = 15, and observed that HNSW and
exhaustive k-NN "yield similar retrieval performance".  Both experiments
are regenerated here.
"""

from __future__ import annotations

import functools

from repro.ann.hnsw import SCAN_BEAMS
from repro.core import factory
from repro.core.factory import build_uniask_system
from repro.eval.harness import RetrievalEvaluator, hss_retriever
from repro.search.hybrid import HybridSearchConfig, HybridSemanticSearch
from repro.search.index import SearchIndex
from repro.search.reranker import SemanticReranker

K_GRID = (3, 5, 10, 15, 25, 50)


def test_k_sweep_for_vector_search(benchmark, bench_system, bench_lexicon, human_split):
    evaluator = RetrievalEvaluator()
    dataset = human_split.validation[:180]  # K was tuned on validation data
    reranker = SemanticReranker(bench_lexicon)

    def run():
        results = {}
        for k in K_GRID:
            searcher = HybridSemanticSearch(
                bench_system.index, reranker=reranker, config=HybridSearchConfig(vector_k=k)
            )
            results[k] = evaluator.evaluate(hss_retriever(searcher), dataset)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print("=" * 72)
    print("ABLATION — K sweep for the vector-search component (validation set)")
    print("=" * 72)
    print(f"{'K':>4} {'hit@4':>8} {'hit@50':>8} {'MRR':>8}")
    for k, result in results.items():
        marker = "  <- production (K=15)" if k == 15 else ""
        print(
            f"{k:>4} {result.metrics.hit_at_4:>8.4f} {result.metrics.hit_at_50:>8.4f} "
            f"{result.metrics.mrr:>8.4f}{marker}"
        )

    # Recall-oriented metrics must not degrade as K grows.
    assert results[50].metrics.hit_at_50 >= results[3].metrics.hit_at_50 - 0.02
    # K=15 must be within noise of the best configuration (why the paper picked it).
    best_mrr = max(result.metrics.mrr for result in results.values())
    assert results[15].metrics.mrr > 0.93 * best_mrr


HNSW_BEAM = 16


def test_hnsw_vs_exact_knn(benchmark, bench_kb, bench_lexicon, human_split, monkeypatch):
    """HNSW and exhaustive k-NN yield similar retrieval performance.

    The HNSW side serves with a beam of 16, so its searches walk the graphs
    (more than ``SCAN_BEAMS`` × 16 = 512 rows): at the serving beam 80 a
    graph of this corpus is scanned, and both sides would be exact.
    """
    evaluator = RetrievalEvaluator()
    dataset = human_split.validation[:150]
    monkeypatch.setattr(
        factory, "SearchIndex", functools.partial(SearchIndex, hnsw_ef_search=HNSW_BEAM)
    )

    def run():
        results = {}
        for backend in ("hnsw", "exact"):
            system = build_uniask_system(
                bench_kb.store(), bench_lexicon, seed=2025, ann_backend=backend
            )
            if backend == "hnsw":
                assert min(map(len, system.index._vectors.values())) > SCAN_BEAMS * HNSW_BEAM
            results[backend] = evaluator.evaluate(hss_retriever(system.searcher), dataset)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(f"ABLATION — HNSW (beam {HNSW_BEAM}) vs exhaustive k-NN (validation set)")
    for backend, result in results.items():
        print(
            f"  {backend:>6}: hit@4 {result.metrics.hit_at_4:.4f}, "
            f"hit@50 {result.metrics.hit_at_50:.4f}, MRR {result.metrics.mrr:.4f}"
        )

    hnsw = results["hnsw"].metrics
    exact = results["exact"].metrics
    assert abs(hnsw.mrr - exact.mrr) < 0.05
    assert abs(hnsw.hit_at_50 - exact.hit_at_50) < 0.05
