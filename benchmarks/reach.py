"""Reachability census: which ``src/repro`` functions no run ever calls.

    python3 benchmarks/reach.py            # the total, exit 1 above CEILING
    python3 benchmarks/reach.py --list     # also every uncalled function and
                                           # the uncalled lines per package

Tier-1 proves code works, not that the system needs it.  This script runs
the four sets of runs that stand for "the system" — nothing from
``tests/`` — each in its own child process under a call tracer:

* the end-to-end harness, ``--smoke``, on all four workloads, untraced
  and traced (``benchmarks/e2e/run.py``);
* the paper benchmarks as plain tests (``pytest benchmarks
  --ignore=benchmarks/e2e --benchmark-disable``: pytest-benchmark's timer
  would turn a tracer off);
* every CLI subcommand, ``ask`` also with its tracing, explain, profile,
  cache and shard flags, at ``--topics 20 --seed 3``;
* every script in ``examples/``.

A function is *called* when its code object ran at least once.  Its
*lines* are its ``def`` (or first decorator) through its last line.  The
uncalled total counts each uncalled function whose enclosing function was
called (or which has none), so a nested function is never counted twice.
The script exits 1 when the total is above ``CEILING``: code that a
change leaves without a caller needs one, or goes.  A PR that deletes
uncalled code lowers ``CEILING`` to its own count.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"

#: Uncalled function lines of ``src/repro`` at the last PR that moved it.
CEILING = 871

QUESTION = "Come posso bloccare la carta di credito?"
WORKLOADS = ("ask_human", "ask_zipf_cached", "ask_cluster_obs", "ingest_live")


def runs(scratch: Path) -> list[tuple[str, list[str], str]]:
    """``(kind, arguments, stdin)`` of every run of the census."""
    harness = str(ROOT / "benchmarks" / "e2e" / "run.py")
    cli = ["--topics", "20", "--seed", "3"]
    asks = [
        [],
        ["--trace", "--metrics", "--explain", "--profile"],
        ["--shards", "3", "--cluster-status", "--explain"],
        ["--cache", "--repeat", "2"],
    ]
    commands = [
        *(["ask", QUESTION, *flags] for flags in asks),
        ["ask", "questo stupido sistema non funziona"],
        ["eval", "--questions", "30"],
        ["loadtest", "--minutes", "10"],
        ["metrics", "--queries", "12", "--shards", "2", "--audit", str(scratch / "audit.jsonl")],
        ["profile", "--queries", "8", "--saturation"],
        *(["profile", "--queries", "8", "--format", form] for form in ("folded", "speedscope", "json")),
        ["canary", "--probes", "12"],
        ["incident", "--duration", "300", "--timeline", "--diagnose"],
        ["index", "--shards", "2", "--out", str(scratch / "index")],
    ]
    return [
        *(
            ("script", [harness, "--workload", workload, "--seed", "11", "--seconds", "2",
                        "--trace", trace, "--smoke"], "")
            for workload in WORKLOADS
            for trace in ("0", "1")
        ),
        ("pytest", [str(ROOT / "benchmarks"), "--ignore", str(ROOT / "benchmarks" / "e2e"),
                    "--benchmark-disable", "-q", "-p", "no:cacheprovider"], ""),
        *(("module", ["repro", *cli, *command], "") for command in commands),
        ("module", ["repro", *cli, "demo"], f"{QUESTION}\n\n"),
        *(("script", [str(path)], "") for path in sorted((ROOT / "examples").glob("*.py"))),
    ]


# -- the child: one run under the tracer ---------------------------------------


def child(out: Path, kind: str, arguments: list[str]) -> int:
    """Run one entry of :func:`runs` in this process and write the
    ``[file, first line]`` of every ``src/repro`` code object it ran."""
    import runpy

    prefix = str(SOURCE) + os.sep
    called: set = set()

    def tracer(frame, event, arg):
        called.add(frame.f_code)  # 'call' only: returning None skips line events

    threading.settrace(tracer)
    sys.settrace(tracer)
    code = 0
    try:
        if kind == "pytest":
            import pytest

            code = int(pytest.main(arguments))
        else:
            sys.argv = list(arguments)
            if kind == "module":
                runpy.run_module(arguments[0], run_name="__main__", alter_sys=True)
            else:
                sys.path.insert(0, str(Path(arguments[0]).parent))
                runpy.run_path(arguments[0], run_name="__main__")
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else (0 if exit_.code is None else 1)
    finally:
        intact = sys.gettrace() is tracer
        sys.settrace(None)
        threading.settrace(None)
        hits = sorted(
            {(c.co_filename[len(prefix):], c.co_firstlineno) for c in called
             if c.co_filename.startswith(prefix)}
        )
        out.write_text(json.dumps({"code": code, "intact": intact, "hits": hits}))
    return 0


# -- the census -----------------------------------------------------------------


def functions() -> list[tuple[str, int, int, int | None, str]]:
    """``(file, first line, lines, index of the enclosing function, dotted
    name)`` of every function and method in ``src/repro``."""
    found: list[tuple[str, int, int, int | None, str]] = []

    def visit(node, relative: str, parent: int | None, prefix: str) -> None:
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                visit(item, relative, parent, f"{prefix}{item.name}.")
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([item.lineno, *(d.lineno for d in item.decorator_list)])
                name = f"{prefix}{item.name}"
                found.append((relative, first, item.end_lineno - first + 1, parent, name))
                visit(item, relative, len(found) - 1, f"{name}.")
            else:
                visit(item, relative, parent, prefix)

    for path in sorted(SOURCE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path.relative_to(SOURCE)), None, "")
    return found


def census(verbose: bool) -> dict:
    """Run every entry of :func:`runs` and fold their hits together."""
    called: set[tuple[str, int]] = set()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as scratch:
        for number, (kind, arguments, stdin) in enumerate(runs(Path(scratch))):
            out = Path(scratch) / f"hits-{number}.json"
            command = [sys.executable, __file__, "--child", str(out), kind, "--", *arguments]
            done = subprocess.run(command, cwd=scratch, env=env, input=stdin,
                                  capture_output=True, text=True)
            label = " ".join([kind, *(Path(a).name if os.sep in a else a for a in arguments)])
            if done.returncode or not out.exists():
                sys.exit(f"reach: the run {label!r} crashed:\n{done.stderr[-2000:]}")
            result = json.loads(out.read_text())
            if not result["intact"]:
                sys.exit(f"reach: something replaced the tracer during {label!r}")
            called.update((file, line) for file, line in result["hits"])
            if verbose:
                print(f"# ran {label} (exit {result['code']})", file=sys.stderr, flush=True)
    every = functions()
    reached = [(file, first) in called for file, first, *_ in every]
    uncalled = [
        (file, first, lines, name)
        for index, (file, first, lines, parent, name) in enumerate(every)
        if not reached[index] and (parent is None or reached[parent])
    ]
    return {
        "function_lines": sum(lines for _, _, lines, parent, _ in every if parent is None),
        "uncalled": uncalled,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--list", action="store_true", help="print every uncalled function")
    parser.add_argument("--child", nargs=2, metavar=("OUT", "KIND"), help=argparse.SUPPRESS)
    parser.add_argument("arguments", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(Path(args.child[0]), args.child[1], args.arguments)

    result = census(verbose=True)
    total = sum(lines for _, _, lines, _ in result["uncalled"])
    if args.list:
        packages: Counter[str] = Counter()
        for file, first, lines, name in sorted(result["uncalled"]):
            print(f"{lines:5d}  {file}:{first}  {name}")
            packages[Path(file).parts[0].removesuffix(".py")] += lines
        print("by package: " + ", ".join(f"{name} {lines}" for name, lines in packages.most_common()))
    print(f"uncalled: {len(result['uncalled'])} functions, {total} of "
          f"{result['function_lines']} function lines (ceiling {CEILING})")
    if total > CEILING:
        print(f"reach: {total} uncalled lines is above the ceiling {CEILING}; give the new "
              "code a caller in a workload, benchmark, CLI command or example, or delete it")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
