"""Append one result set of the end-to-end harness to ``BENCH_e2e.json``.

    python3 benchmarks/e2e/run.py --workload all --seeds 11,23 --out /tmp/set.json
    python3 benchmarks/trajectory.py /tmp/set.json [--commit SHA]

Each run of the set becomes one compact row: commit, workload, seed, traced
flag, attempted / failed, ``answers_digest``, and the eight end-to-end
metrics (untraced rows) or the exact counts (traced rows).  The commit is
the one the harness recorded unless ``--commit`` names it (a checkout that
is not a git repository records ``unknown``).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "BENCH_e2e.json"
END_TO_END = [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def row(run: dict, commit: str) -> dict:
    """The compact trajectory row of one harness run."""
    metrics = run["metrics"]
    if run["trace"]:
        kept = {name: entry["value"] for name, entry in metrics.items() if entry["unit"] == "count"}
    else:
        kept = {name: metrics[name]["value"] for name in END_TO_END}
    return {
        "commit": commit or run["environment"]["git_commit"],
        "workload": run["workload"],
        "seed": run["seed"],
        "traced": bool(run["trace"]),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "answers_digest": run["answers_digest"],
        "metrics": kept,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("result_set", help="the --out file of run.py --workload all")
    parser.add_argument("--commit", default="", help="commit the set was run on")
    args = parser.parse_args(argv)
    runs = json.loads(Path(args.result_set).read_text())["runs"]
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {"schema": 1, "rows": []}
    trajectory["rows"].extend(row(run, args.commit) for run in runs)
    rows = ",\n".join(json.dumps(entry) for entry in trajectory["rows"])  # one row a line
    TRAJECTORY.write_text(f'{{"schema": {trajectory["schema"]}, "rows": [\n{rows}\n]}}\n')
    print(f"appended {len(runs)} rows to {TRAJECTORY.name} ({len(trajectory['rows'])} in all)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
