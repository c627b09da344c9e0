"""Future work (Section 11) — query embedding adapter trained on internal data.

The paper plans to improve retrieval by "fine tuning the embedding model
with internal data, or by using embedding adapters".  This bench runs that
experiment: a linear query adapter is trained (closed-form ridge) on the
validation questions' ground-truth links and evaluated on the held-out
test questions, comparing vector-only retrieval with base vs adapted query
embeddings.

Expected outcome: modest recall gains at best — consistent with the paper
listing this as future work rather than a shipped improvement.
"""

from __future__ import annotations

from repro.embeddings.adapter import (
    AdaptedEmbedder,
    pairs_from_labeled_queries,
    train_query_adapter,
)
from repro.eval.harness import RetrievalEvaluator
from repro.search.fusion import reciprocal_rank_fusion
from repro.search.results import dedupe_by_document
from repro.search.vector import VectorSearch


def test_futurework_query_adapter(benchmark, bench_kb, bench_system, human_split):
    evaluator = RetrievalEvaluator()
    vector_search = VectorSearch(bench_system.index)

    def vector_retriever(embed):
        def retrieve(query: str):
            rankings = vector_search.search_by_vector(embed(query), k=15)
            fused = reciprocal_rank_fusion(
                {f"v_{name}": ranking for name, ranking in rankings.items()}, top_n=50
            )
            return [result.doc_id for result in dedupe_by_document(fused.fetch())]

        return retrieve

    def run():
        pairs = pairs_from_labeled_queries(human_split.validation, bench_kb)
        base_result = evaluator.evaluate(
            vector_retriever(bench_system.embedder.embed), human_split.test
        )
        adapted_results = {}
        for regularization in (0.2, 1.0, 5.0):
            adapter = train_query_adapter(
                bench_system.embedder, pairs, regularization=regularization
            )
            adapted = AdaptedEmbedder(bench_system.embedder, adapter)
            adapted_results[regularization] = (
                evaluator.evaluate(vector_retriever(adapted.embed), human_split.test),
                adapter.deviation_from_identity(),
            )
        return len(pairs), base_result, adapted_results

    num_pairs, base_result, adapted_results = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print("=" * 72)
    print("FUTURE WORK — linear query adapter (vector-only retrieval, test set)")
    print("=" * 72)
    print(f"training pairs from validation ground truth: {num_pairs}")
    print(
        f"{'config':>12} {'MRR':>8} {'hit@4':>8} {'r@50':>8} {'|W-I|':>8}"
    )
    print(
        f"{'base':>12} {base_result.metrics.mrr:>8.4f} {base_result.metrics.hit_at_4:>8.4f} "
        f"{base_result.metrics.r_at_50:>8.4f} {'-':>8}"
    )
    for regularization, (result, deviation) in adapted_results.items():
        print(
            f"{f'λ={regularization}':>12} {result.metrics.mrr:>8.4f} "
            f"{result.metrics.hit_at_4:>8.4f} {result.metrics.r_at_50:>8.4f} {deviation:>8.2f}"
        )

    # The adapter must train (move away from identity) and must not wreck
    # retrieval; any gain is a bonus, as the paper leaves this as an open
    # direction.
    best = max(result.metrics.r_at_50 for result, _ in adapted_results.values())
    assert best >= base_result.metrics.r_at_50 - 0.02
    for result, deviation in adapted_results.values():
        assert deviation > 0.0
        assert result.metrics.mrr > 0.8 * base_result.metrics.mrr
