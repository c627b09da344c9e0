"""Quality gate for a change that moves bits (ROADMAP item 11).

    python3 benchmarks/quality_gate.py --write     # pin the reference
    python3 benchmarks/quality_gate.py             # check against it

A change that moves scores by ulps can swap ties and so change answers; it
is judged by the shape of the results, not by their bits.  The gate takes

* ``hit_at_4`` and ``answered_share`` of every harness workload, seeds 11–20
  (``benchmarks/e2e/run.py --trace 0 --seconds 10``, one child process per
  run), with the number of distinct questions each ratio is over;
* Table 1's MRR and r@50 (answered-only averages, both systems, both test
  datasets) and the sign of UniAsk − Prev on every metric;
* the direction of every Table 2 ``%Var`` (Text and Vector against HSS);

and compares them with ``quality_reference.json``, which this script writes
with ``--write`` and whose tolerances are committed before any bit-moving
change is measured.  Each harness ratio may move by one question of its
seed, each Table 1 value by ``TABLE1_ABS``; no sign may change.  It prints
one line per check and every seed whose ``answers_digest`` moved, and exits
non-zero on a violation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "quality_reference.json"
WORKLOADS = ("ask_human", "ask_zipf_cached", "ask_cluster_obs", "ingest_live")
SEEDS = tuple(range(11, 21))
SECONDS = 10.0
QUESTIONS_PER_SEED = 1
TABLE1_ABS = 0.005


def sign(value: float) -> int:
    return (value > 0) - (value < 0)


def harness_run(workload: str, seed: int, seconds: float) -> dict:
    """One harness run in this process: its quality ratios, the distinct
    questions behind each and its ``answers_digest``."""
    sys.path.insert(0, str(HERE / "e2e"))
    import run  # noqa: PLC0415 — the harness, as its own command line loads it

    counts = {}
    end_to_end_metrics = run.end_to_end_metrics

    def counted(session, *args):
        first = {}
        for sample in session.asks:
            first.setdefault(sample.question, sample)
        counts["questions"] = len(first)
        counts["judged"] = sum(1 for sample in first.values() if sample.hit_at_4 is not None)
        return end_to_end_metrics(session, *args)

    run.end_to_end_metrics = counted
    document = run.run_workload(workload, seed, seconds, trace=False)
    metrics = document["metrics"]
    return {
        "correct": document["correct"],
        "answers_digest": document["answers_digest"],
        "hit_at_4": metrics["hit_at_4"]["value"],
        "judged": counts["judged"],
        "answered_share": metrics["answered_share"]["value"],
        "questions": counts["questions"],
    }


def harness(seeds: tuple[int, ...], seconds: float) -> dict:
    """``workload -> seed -> harness_run``, each run in a child process."""
    results: dict[str, dict[str, dict]] = {}
    for workload in WORKLOADS:
        for seed in seeds:
            command = [sys.executable, __file__, "--one", workload, str(seed), "--seconds", str(seconds)]
            output = subprocess.run(command, check=True, capture_output=True, text=True).stdout
            results.setdefault(workload, {})[str(seed)] = json.loads(output.splitlines()[-1])
            print(f"# ran {workload} seed={seed}", file=sys.stderr, flush=True)
    return results


def tables() -> dict:
    """Table 1's MRR / r@50 and win signs, Table 2's ``%Var`` directions,
    on the paper benchmarks' corpus and datasets."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from conftest import BENCH_HUMAN, BENCH_KB_CONFIG, BENCH_KEYWORD  # noqa: PLC0415

    from repro.baselines.keyword_engine import PrevKeywordEngine
    from repro.core.factory import build_uniask_system
    from repro.corpus.generator import KbGenerator
    from repro.corpus.queries import generate_human_dataset, generate_keyword_dataset
    from repro.corpus.vocabulary import build_banking_lexicon
    from repro.eval.harness import RetrievalEvaluator, hss_retriever, prev_retriever
    from repro.eval.metrics import RetrievalMetrics
    from repro.eval.reporting import variation_grid
    from repro.eval.splits import split_dataset
    from repro.search.hybrid import HybridSearchConfig, HybridSemanticSearch
    from repro.search.reranker import SemanticReranker

    kb = KbGenerator(BENCH_KB_CONFIG).generate()
    lexicon = build_banking_lexicon()
    system = build_uniask_system(kb.store(), lexicon, seed=2025)
    prev = PrevKeywordEngine()
    prev.index_all(kb.store().all_documents())
    datasets = {
        "Human": split_dataset(generate_human_dataset(kb, BENCH_HUMAN), seed=31).test,
        "Keyword": split_dataset(generate_keyword_dataset(kb, BENCH_KEYWORD)[0], seed=31).test,
    }
    reranker = SemanticReranker(lexicon)
    ablated = {
        mode.capitalize(): HybridSemanticSearch(
            system.index, reranker=reranker, config=HybridSearchConfig(mode=mode)
        )
        for mode in ("text", "vector")
    }
    evaluator = RetrievalEvaluator()
    table1, table2 = {}, {}
    for name, dataset in datasets.items():
        prev_result = evaluator.evaluate(prev_retriever(prev), dataset)
        hss_result = evaluator.evaluate(hss_retriever(system.searcher), dataset)
        table1[name] = {
            "Prev": {"mrr": prev_result.metrics.mrr, "r_at_50": prev_result.metrics.r_at_50},
            "UniAsk": {"mrr": hss_result.metrics.mrr, "r_at_50": hss_result.metrics.r_at_50},
            "wins": {
                field: sign(getattr(hss_result.metrics, field) - getattr(prev_result.metrics, field))
                for field in RetrievalMetrics.FIELDS
            },
        }
        variants = {
            label: evaluator.evaluate(hss_retriever(searcher), dataset)
            for label, searcher in ablated.items()
        }
        grid = variation_grid(hss_result, variants)
        table2[name] = {
            label: {field: sign(value) for field, value in row.items()} for label, row in grid.items()
        }
    return {"table1": table1, "table2": table2}


def compare(reference: dict, current: dict) -> list[str]:
    """One line per violated check; empty when the gate passes."""
    violations = []
    for workload, by_seed in reference["harness"].items():
        for seed, pinned in by_seed.items():
            now = current["harness"][workload][seed]
            where = f"{workload} seed {seed}"
            if not now["correct"]:
                violations.append(f"{where}: the harness reported failed operations")
            for ratio, base in (("hit_at_4", "judged"), ("answered_share", "questions")):
                if now[base] != pinned[base]:
                    violations.append(f"{where}: {base} {pinned[base]} -> {now[base]}")
                    continue
                allowed = reference["tolerances"]["questions_per_seed"] / pinned[base]
                if abs(now[ratio] - pinned[ratio]) > allowed + 1e-12:
                    violations.append(f"{where}: {ratio} {pinned[ratio]:.6f} -> {now[ratio]:.6f}")
    allowed = reference["tolerances"]["table1_abs"]
    for dataset, systems in reference["table1"].items():
        now = current["table1"][dataset]
        for system in ("Prev", "UniAsk"):
            for metric, value in systems[system].items():
                if abs(now[system][metric] - value) > allowed:
                    violations.append(
                        f"Table 1 {dataset} {system} {metric}: {value:.6f} -> {now[system][metric]:.6f}"
                    )
        for metric, pinned in systems["wins"].items():
            if now["wins"][metric] != pinned:
                violations.append(f"Table 1 {dataset} {metric}: who wins moved {pinned} -> {now['wins'][metric]}")
    for dataset, rows in reference["table2"].items():
        for label, directions in rows.items():
            for metric, pinned in directions.items():
                moved = current["table2"][dataset][label][metric]
                if moved != pinned:
                    violations.append(f"Table 2 {dataset} {label} {metric}: %Var sign {pinned} -> {moved}")
    return violations


def report(reference: dict, current: dict) -> None:
    """Every harness value beside its reference, digests that moved marked."""
    for workload, by_seed in reference["harness"].items():
        for seed, pinned in by_seed.items():
            now = current["harness"][workload][seed]
            moved = "" if now["answers_digest"] == pinned["answers_digest"] else "  DIGEST MOVED"
            print(
                f"{workload:<16} seed {seed}  hit_at_4 {pinned['hit_at_4']:.6f} -> {now['hit_at_4']:.6f}"
                f"  answered_share {pinned['answered_share']:.6f} -> {now['answered_share']:.6f}{moved}"
            )
    for dataset, systems in reference["table1"].items():
        for system in ("Prev", "UniAsk"):
            for metric, value in systems[system].items():
                print(f"Table 1 {dataset:<8} {system:<7} {metric:<8} {value:.6f} -> "
                      f"{current['table1'][dataset][system][metric]:.6f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="pin the reference instead of checking it")
    parser.add_argument("--seconds", type=float, default=SECONDS, help="with --write: run length")
    parser.add_argument("--one", nargs=2, metavar=("WORKLOAD", "SEED"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        workload, seed = args.one
        print(json.dumps(harness_run(workload, int(seed), args.seconds)))
        return 0

    if args.write:
        tolerances = {"questions_per_seed": QUESTIONS_PER_SEED, "table1_abs": TABLE1_ABS}
        current = {"harness": harness(SEEDS, args.seconds), **tables()}
        pinned = {"seconds": args.seconds, "tolerances": tolerances, **current}
        REFERENCE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE.name}")
        return 0
    reference = json.loads(REFERENCE.read_text())
    seeds = tuple(int(seed) for seed in reference["harness"][WORKLOADS[0]])
    current = {"harness": harness(seeds, reference["seconds"]), **tables()}
    report(reference, current)
    violations = compare(reference, current)
    for violation in violations:
        print(f"VIOLATION: {violation}")
    print("quality gate: " + ("FAILED" if violations else "passed"))
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
