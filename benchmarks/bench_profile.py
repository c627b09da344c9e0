"""Profiling overhead + work-determinism benchmark.

Standalone script (not pytest-collected).  Two measurements:

1. **Serve overhead** — builds the same deployment twice, once with the
   continuous profiler and capacity monitor enabled
   (``BackendService(profiling=True, capacity=True)``) and once bare (both
   traced, so the comparison isolates the profiling layer) and runs the
   identical query stream through both, one profiled pass and one bare
   pass per pair, alternating which goes first.  The gate is the median of
   the per-pair ``profiled / bare`` ratios: the machine's speed drifts on
   a longer scale than one pair, so it cancels inside each ratio, where
   timing one whole side and then the other let it decide the sign.  The
   profiled backend must stay within ``--max-overhead`` (default 5%): work
   accounting is plain integer adds and the profiler folds spans the trace
   already recorded.

2. **Work determinism** — serves the same query set twice through the
   profiled backend and requires the per-question work counts to be
   ``==``-identical across the passes: work units are a pure function of
   the code and the index state, so any difference is a bug, not noise.

Usage (CI smoke runs the tiny variant)::

    PYTHONPATH=src python benchmarks/bench_profile.py \
        --topics 12 --queries 10 --out BENCH_profile.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.factory import build_uniask_system  # noqa: E402
from repro.corpus.generator import KbGenerator, KbGeneratorConfig  # noqa: E402
from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset  # noqa: E402
from repro.corpus.vocabulary import build_banking_lexicon  # noqa: E402
from repro.service.backend import BackendService  # noqa: E402


def _build(kb, lexicon, seed: int, profiled: bool):
    system = build_uniask_system(kb.store(), lexicon, seed=seed)
    backend = BackendService(
        system.engine,
        system.clock,
        tracing=True,
        telemetry=system.telemetry,
        seed=seed,
        profiling=profiled,
        capacity=profiled,
    )
    return system, backend


def _serve_all(backend, token, questions: list[str]) -> float:
    """Seconds of wall clock to serve every question once."""
    started = time.perf_counter()
    for question in questions:
        backend.serve(token, question)
    return time.perf_counter() - started


def bench_overhead(kb, lexicon, questions, args) -> dict:
    print("building profiled + bare deployments...", file=sys.stderr)
    _, profiled = _build(kb, lexicon, args.seed, profiled=True)
    _, bare = _build(kb, lexicon, args.seed, profiled=False)
    profiled_token = profiled.login("bench")
    bare_token = bare.login("bench")

    # Warmup both (embedding caches, LLM paths).
    _serve_all(profiled, profiled_token, questions[:2])
    _serve_all(bare, bare_token, questions[:2])
    profiled_runs, bare_runs = [], []
    sides = [(profiled, profiled_token, profiled_runs), (bare, bare_token, bare_runs)]
    for pair in range(args.repeats):
        for backend, token, runs in sides if pair % 2 == 0 else reversed(sides):
            runs.append(_serve_all(backend, token, questions))
    profiled_s = statistics.median(profiled_runs)
    bare_s = statistics.median(bare_runs)
    ratios = [p / b for p, b in zip(profiled_runs, bare_runs)]
    return {
        "queries": len(questions),
        "repeats": args.repeats,
        "profiled_s": profiled_s,
        "bare_s": bare_s,
        "overhead_fraction": statistics.median(ratios) - 1.0,
        "qps_profiled": len(questions) / profiled_s,
        "qps_bare": len(questions) / bare_s,
    }


def bench_work_determinism(kb, lexicon, questions, args) -> dict:
    _, backend = _build(kb, lexicon, args.seed, profiled=True)
    token = backend.login("bench")

    def one_pass() -> list[dict]:
        return [dict(backend.serve(token, q).answer.work or {}) for q in questions]

    first = one_pass()
    second = one_pass()
    kinds = sorted({kind for counts in first for kind in counts})
    totals = {
        kind: sum(counts.get(kind, 0) for counts in first) for kind in kinds
    }
    return {
        "queries": len(questions),
        "identical": first == second,
        "kinds_observed": kinds,
        "first_pass_totals": totals,
    }


def run(args: argparse.Namespace) -> dict:
    kb = KbGenerator(
        KbGeneratorConfig(num_topics=args.topics, error_families=2, seed=args.seed)
    ).generate()
    lexicon = build_banking_lexicon()
    questions = [
        q.text
        for q in generate_human_dataset(
            kb, HumanDatasetConfig(num_questions=args.queries, seed=args.seed)
        )
    ]

    overhead = bench_overhead(kb, lexicon, questions, args)
    work = bench_work_determinism(kb, lexicon, questions, args)

    result = {
        "config": {
            "topics": args.topics,
            "queries": args.queries,
            "seed": args.seed,
            "max_overhead": args.max_overhead,
        },
        "overhead": overhead,
        "work": work,
    }

    print()
    print("=" * 64)
    print(f"PROFILE BENCH — {overhead['queries']} queries, median of {args.repeats} pairs")
    print("=" * 64)
    print(f"bare    : {overhead['bare_s']:.3f}s ({overhead['qps_bare']:.1f} q/s)")
    print(f"profiled: {overhead['profiled_s']:.3f}s ({overhead['qps_profiled']:.1f} q/s)")
    print(
        f"overhead: {overhead['overhead_fraction']:+.2%} (limit {args.max_overhead:.0%})"
    )
    print(f"work    : identical across passes = {work['identical']}")
    print(f"          kinds observed: {', '.join(work['kinds_observed'])}")

    if overhead["overhead_fraction"] > args.max_overhead:
        raise SystemExit(
            f"profiling overhead {overhead['overhead_fraction']:.2%} exceeds "
            f"the {args.max_overhead:.0%} budget"
        )
    if not work["identical"]:
        raise SystemExit(
            "work counts differ between two passes of the same query set — "
            "the deterministic work-accounting contract is broken"
        )
    if not work["kinds_observed"]:
        raise SystemExit("no work kinds were booked — the instrumentation is dead")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--topics", type=int, default=60, help="corpus size (topics)")
    parser.add_argument("--queries", type=int, default=40, help="questions per timed run")
    # 40 pairs of the ~35 ms CI-smoke pass put well over a second on each side.
    parser.add_argument(
        "--repeats", type=int, default=40, help="profiled/bare pairs (median of their ratios)"
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.05,
        help="maximum tolerated profiled/bare slowdown",
    )
    parser.add_argument("--seed", type=int, default=2025, help="master seed")
    parser.add_argument("--out", default="BENCH_profile.json", help="JSON report path")
    args = parser.parse_args(argv)

    result = run(args)
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
