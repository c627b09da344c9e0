"""Compare two benchmark result sets under the bounds of ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A.json B.json

*A* is the reference (the parent commit, or the first of two sets of one
commit) and *B* the candidate.  Each file is a result set written by
``run.py --workload all --out`` or a single result document.  One row is
printed per (end-to-end metric, workload):

``ok``          B is within the metric's bound of A
``better``      B is better by more than the bound, or (four seeds or more)
                better on every seed
``worse``       B is worse by more than the bound
``unresolved``  the seed-to-seed spread of the change exceeds the bound, so
                its median cannot settle it

then one row per exact per-layer count (``equal`` / ``different``, compared
with ``==`` seed by seed) and one per answers digest.  Exits non-zero on any
``worse``.

Both sets must cover the same seeds: each seed's run in B is compared with
the same seed's run in A and the row reports the median change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartile_distance  # noqa: E402

BENCHMARK_JSON = HERE.parent.parent / "BENCHMARK.json"


def load_runs(path: str) -> list[dict]:
    """The result documents of a set file (or the one document of a run file)."""
    content = json.loads(Path(path).read_text())
    return content["runs"] if "runs" in content else [content]


def grouped(runs: list[dict], trace: int) -> dict[str, list[dict]]:
    """workload -> its runs with the given trace flag, ordered by seed."""
    groups: dict[str, list[dict]] = {}
    for run in sorted(runs, key=lambda run: run["seed"]):
        if run["trace"] == trace:
            groups.setdefault(run["workload"], []).append(run)
    return groups


#: "Every run of B beats its run of A" settles a noisy pair only with at
#: least this many runs: two runs agree by luck one time in four.
MIN_RUNS_TO_DOMINATE = 4


def verdict(reference: list[float], candidate: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, change)`` of one (metric, workload) pair.

    The two lists hold one value per seed, in the same seed order; each
    seed's candidate is compared with its own reference, which removes the
    seed-to-seed differences of the inputs.  *change* is the median relative
    move, positive when worse; the spread is the quartile distance of the
    per-seed moves.
    """
    sign = 1.0 if better == "lower" else -1.0
    changes = [
        sign * (cand - ref) / abs(ref) for ref, cand in zip(reference, candidate, strict=True)
    ]
    change = statistics.median(changes)
    if len(changes) >= MIN_RUNS_TO_DOMINATE and max(changes) < 0:
        return "better", change
    if quartile_distance(changes) > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "ok", change


def compare(reference_runs: list[dict], candidate_runs: list[dict], benchmark: dict) -> int:
    """Print the comparison; returns the number of ``worse`` rows."""
    worse = 0
    ref_e2e, cand_e2e = grouped(reference_runs, 0), grouped(candidate_runs, 0)
    print(f"{'workload':<16} {'metric':<20} {'A median':>12} {'B median':>12} {'change':>8} {'bound':>6}  verdict")
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        if workload not in ref_e2e or workload not in cand_e2e:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            ref = [run["metrics"][name]["value"] for run in ref_e2e[workload]]
            cand = [run["metrics"][name]["value"] for run in cand_e2e[workload]]
            outcome, change = verdict(ref, cand, metric["better"], metric["bound"])
            worse += outcome == "worse"
            print(
                f"{workload:<16} {name:<20} {statistics.median(ref):>12.5g} "
                f"{statistics.median(cand):>12.5g} {change:>+8.1%} {metric['bound']:>6.0%}  {outcome}"
            )

    def same(label: str, workload: str, ref_values: list, cand_values: list) -> None:
        state = "equal" if ref_values == cand_values else "different"
        print(f"{workload:<16} {label:<26} {state}")

    for trace, ref_groups, cand_groups in (
        (0, ref_e2e, cand_e2e),
        (1, grouped(reference_runs, 1), grouped(candidate_runs, 1)),
    ):
        for workload, ref in ref_groups.items():
            cand = cand_groups.get(workload)
            if cand is None:
                continue
            same(f"answers_digest (trace {trace})", workload,
                 [run["answers_digest"] for run in ref], [run["answers_digest"] for run in cand])
            if trace:
                for name, entry in ref[0]["metrics"].items():
                    if entry["unit"] == "count":
                        same(name, workload,
                             [run["metrics"][name]["value"] for run in ref],
                             [run["metrics"][name]["value"] for run in cand])
    return worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    worse = compare(load_runs(argv[0]), load_runs(argv[1]), benchmark)
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
