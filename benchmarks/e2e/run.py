"""UniAsk end-to-end benchmark: one workload per invocation.

    python3 benchmarks/e2e/run.py --workload ask_human --seed 11 --seconds 10 --trace 0

builds the workload's deployment through ``repro.api``, drives it from one
thread through public calls, checks every output, prints every metric by
name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics with no wrapper installed; ``--trace 1`` serves half the
operations untraced and half under the timing wrappers of ``tracing.py``
and reports the per-layer metrics.  ``--out`` also writes the full result
document; ``--workload all`` runs every workload both ways in child
processes and writes them as one result set (see ``README.md``).

Every ``*_ms`` / ``*_s`` / ``1/s`` figure is wall time in *reference* units
(see ``probe.py``); the document carries the raw values beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import numpy  # noqa: E402
from probe import REF_PROBE_S, Normaliser  # noqa: E402
from stats import percentile  # noqa: E402
from tracing import Tracer, install_layer_wrappers, layer_self_seconds  # noqa: E402
from workloads import (  # noqa: E402
    FULL,
    ROUND_ASKS,
    SMOKE,
    WORKLOADS,
    Session,
    Size,
    generate_kb,
    human_questions,
    set_up,
)

from repro.core.answer import OUTCOME_ANSWERED  # noqa: E402

SCHEMA_VERSION = 1

#: name -> unit, in the order ``BENCHMARK.json`` lists them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ask_p50_ms": "ms",
    "ask_p90_ms": "ms",
    "ask_qps": "1/s",
    "ingest_docs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "hit_at_4": "ratio",
    "answered_share": "ratio",
}

#: Every metric with unit ``count`` repeats exactly for a given (seed, seconds).
PER_LAYER_UNITS = {
    "backend.self_ms": "ms",
    "engine.self_ms": "ms",
    "content_filter.busy_ms": "ms",
    "cache.lookup_ms": "ms",
    "cache.store_ms": "ms",
    "cache.hit_share": "ratio",
    "cache.exact_hits": "count",
    "cache.semantic_hits": "count",
    "hybrid.self_ms": "ms",
    "router.self_ms": "ms",
    "router.scatter_legs": "count",
    "fulltext.busy_ms": "ms",
    "fulltext.postings_scanned": "count",
    "fulltext.docs_scored": "count",
    "fulltext.segments_touched": "count",
    "vector.self_ms": "ms",
    "embeddings.busy_ms": "ms",
    "embeddings.calls": "count",
    "embeddings.cache_hit_share": "ratio",
    "hnsw.search_ms": "ms",
    "hnsw.add_ms": "ms",
    "hnsw.distance_evals": "count",
    "reranker.busy_ms": "ms",
    "reranker.candidates": "count",
    "analyzer.calls": "count",
    "analyzer.busy_ms": "ms",
    "llm.busy_ms": "ms",
    "llm.prompt_tokens": "count",
    "llm.completion_tokens": "count",
    "guardrails.busy_ms": "ms",
    "guardrails.fired_share": "ratio",
    "ingestion.poll_ms": "ms",
    "indexing.self_ms": "ms",
    "indexing.build_records_ms": "ms",
    "htmlproc.busy_ms": "ms",
    "index.add_self_ms": "ms",
    "index.delete_ms": "ms",
    "index.maintenance_ms": "ms",
    "index.maintenance_ops": "count",
    "index.segments_end": "count",
    "index.tombstone_ratio_end": "ratio",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}

#: metric -> the span layer whose self time it reports.
_LAYER_OF_MS = {
    "backend.self_ms": "backend",
    "engine.self_ms": "engine",
    "content_filter.busy_ms": "content_filter",
    "cache.lookup_ms": "cache.lookup",
    "cache.store_ms": "cache.store",
    "hybrid.self_ms": "hybrid",
    "router.self_ms": "router",
    "fulltext.busy_ms": "fulltext",
    "vector.self_ms": "vector",
    "embeddings.busy_ms": "embeddings",
    "hnsw.search_ms": "hnsw.search",
    "hnsw.add_ms": "hnsw.add",
    "reranker.busy_ms": "reranker",
    "llm.busy_ms": "llm",
    "guardrails.busy_ms": "guardrails",
    "ingestion.poll_ms": "ingestion",
    "indexing.self_ms": "indexing",
    "indexing.build_records_ms": "indexing.build_records",
    "htmlproc.busy_ms": "htmlproc",
    "index.add_self_ms": "index.add",
    "index.delete_ms": "index.delete",
    "index.maintenance_ms": "index.maintenance",
}

#: metric -> the ``answer.work`` kind it sums over the traced asks.
_WORK_KIND_OF = {
    "cache.exact_hits": "cache_exact_hits",
    "cache.semantic_hits": "cache_semantic_hits",
    "router.scatter_legs": "scatter_legs",
    "fulltext.postings_scanned": "postings_scanned",
    "fulltext.docs_scored": "docs_scored",
    "fulltext.segments_touched": "segments_touched",
    "hnsw.distance_evals": "ann_distance_evals",
    "llm.prompt_tokens": "llm_prompt_tokens",
    "llm.completion_tokens": "llm_completion_tokens",
}


# -- one run --------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: Size = FULL) -> dict:
    """Set up, drive and measure one workload; returns the result document."""
    workload = WORKLOADS[name]
    timer = Normaliser()
    question_seed = seed + workload.question_seed_offset
    ops = workload.ops(seconds)
    # A traced run splits its operations: the untraced half is the baseline
    # the tracing overhead is measured against.
    per_phase = max(1, ops // 2) if trace else ops

    inputs_kb = generate_kb(seed, size)
    warmup = human_questions(inputs_kb, seed + 1000, size.warmup_asks)
    if workload.rounds:
        reads = human_questions(inputs_kb, question_seed, ops * ROUND_ASKS)
        requests = []
    else:
        reads = []
        requests = workload.make_requests(inputs_kb, question_seed, ops)
    del inputs_kb

    timer.start()
    setups = 1 if trace else size.setups
    for number in range(setups):
        deployment = None
        gc.collect()  # peak memory is one deployment's, not two
        deployment = set_up(workload, seed, size, timer, f"setup{number}", warmup)
    gc.collect()

    session = Session(workload, deployment, timer, seed)

    def drive(first: int) -> None:
        """Operations ``first .. first + per_phase``."""
        if workload.rounds:
            for number in range(first, first + per_phase):
                session.ingest_round(number, reads[number * ROUND_ASKS:(number + 1) * ROUND_ASKS])
        else:
            session.drive_asks(requests[first:first + per_phase])

    tracer = None
    embedder_before = (0, 0)
    if not trace:
        drive(0)
    else:
        session.phase = "untraced"
        drive(0)
        session.phase = "traced"
        tracer = Tracer()
        install_layer_wrappers(tracer)
        session.tracer = tracer
        embedder = deployment.system.embedder
        embedder_before = (embedder.hits, embedder.misses)
        try:
            drive(0 if workload.replayable else per_phase)
        finally:
            tracer.remove()
            session.tracer = None
        if workload.replayable and session.answers_digest("untraced") != session.answers_digest("traced"):
            session.attempted += 1
            session.failures.append("the traced replay returned different answers than the untraced pass")
    timer.finish()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        values = per_layer_metrics(session, tracer, embedder_before, timer.reference)
        raw_values = per_layer_metrics(session, tracer, embedder_before, timer.raw)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end_metrics(session, setups, peak_rss_mb, timer.reference, size)
        raw_values = end_to_end_metrics(session, setups, peak_rss_mb, timer.raw, size)
        units = END_TO_END_UNITS

    failed = len(session.failures)
    hits = sum(1 for sample in session.asks if sample.cache_hit)
    document = {
        "schema": SCHEMA_VERSION,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": "full" if size is FULL else "smoke",
        "environment": environment(seed),
        "probe": timer.summary(),
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "fail_share": failed / session.attempted,
        "failures": session.failures[:20],
        "documents": deployment.documents,
        "asks": len(session.asks),
        "refreshes": len(session.refreshes),
        "cache_hit_share": hits / len(session.asks),
        "answers_digest": session.answers_digest(),
        "metrics": {
            metric: {"value": values[metric], "unit": units[metric], "raw": raw_values[metric]}
            for metric in units
        },
    }
    if trace:
        # [layer, start, end, parent, op]; seconds since the first span.
        origin = tracer.spans[0][1]
        document["spans"] = [
            [span[0], round(span[1] - origin, 7), round(span[2] - origin, 7), span[3], span[4]]
            for span in tracer.spans
        ]
    return document


def end_to_end_metrics(
    session: Session,
    setups: int,
    peak_rss_mb: float,
    duration: Callable[[int], float],
    size: Size,
) -> dict[str, float]:
    """The end-to-end metrics; *duration* maps a timed index to seconds
    (reference or raw)."""
    timer = session.timer

    def set_up_seconds(part: str) -> float:
        """Seconds of one set-up's *part*, robust to a disturbed moment.

        Every set-up does identical work block by block (the same documents
        in the same order), so the median is taken per block across the
        set-ups before summing: a disturbance would have to hit the same
        block in most of them to get through.
        """
        blocks = [
            [duration(index) for index in timer.indices(f"setup{number}.{part}")]
            for number in range(setups)
        ]
        return sum(statistics.median(block) for block in zip(*blocks, strict=True))

    build = set_up_seconds("build")
    other = set_up_seconds("other")
    ask_times = [duration(sample.op) for sample in session.asks]
    if session.refreshes:
        # Live write rate: store mutations applied per second inside refresh().
        written = sum(sample.mutations for sample in session.refreshes)
        ingest_rate = written / sum(duration(sample.op) for sample in session.refreshes)
    else:
        # No writes in the measured phase: the bulk build rate of set-up.
        ingest_rate = session.deployment.documents / build
    # Quality counts each distinct question once (its first answer), so one
    # popular query of the Zipf stream cannot carry the metric.
    first: dict[str, object] = {}
    for sample in session.asks:
        first.setdefault(sample.question, sample)
    judged = [sample.hit_at_4 for sample in first.values() if sample.hit_at_4 is not None]
    return {
        "setup_s": build + other,
        "ask_p50_ms": statistics.median(ask_times) * 1e3,
        "ask_p90_ms": percentile(ask_times, 90, size.min_beyond) * 1e3,
        "ask_qps": len(ask_times) / sum(ask_times),
        "ingest_docs_per_s": ingest_rate,
        "peak_rss_mb": peak_rss_mb,
        "hit_at_4": sum(judged) / len(judged),
        "answered_share": sum(1 for sample in first.values() if sample.outcome == OUTCOME_ANSWERED)
        / len(first),
    }


def per_layer_metrics(
    session: Session,
    tracer: Tracer,
    embedder_before: tuple[int, int],
    duration: Callable[[int], float],
) -> dict[str, float]:
    """The per-layer metrics of the traced phase.

    Every ``*_ms`` is time per operation: a layer's self time under ``serve``
    divided by the traced asks, plus its self time under ``refresh`` divided
    by the store mutations applied, so the rows of a workload add up to its
    traced mean ask latency plus (on ``ingest_live``) its mean refresh time
    per document.
    """
    timer = session.timer
    asks = [sample for sample in session.asks if sample.phase == "traced"]
    untraced = [sample for sample in session.asks if sample.phase == "untraced"]
    refreshes = [sample for sample in session.refreshes if sample.phase == "traced"]
    written = sum(sample.mutations for sample in refreshes)
    # Seconds of one op's span become per-operation reference (or raw) time.
    scale: dict[int, float] = {}
    for sample in asks:
        scale[sample.op] = duration(sample.op) / timer.raw(sample.op) / len(asks)
    for sample in refreshes:
        scale[sample.op] = duration(sample.op) / timer.raw(sample.op) / written

    per_layer, per_op_root = layer_self_seconds(tracer.spans)
    layer_seconds: dict[str, float] = {}
    for (layer, op), seconds in per_layer.items():
        layer_seconds[layer] = layer_seconds.get(layer, 0.0) + seconds * scale[op]
    analyzer_calls = 0
    analyzer_seconds = 0.0
    for op, (calls, seconds) in tracer.busy.get("analyzer", {}).items():
        if op in scale:
            analyzer_calls += calls
            analyzer_seconds += seconds * scale[op]

    values = {metric: layer_seconds.get(layer, 0.0) * 1e3 for metric, layer in _LAYER_OF_MS.items()}
    for metric, kind in _WORK_KIND_OF.items():
        values[metric] = sum((sample.work or {}).get(kind, 0) for sample in asks)

    embedder = session.deployment.system.embedder
    embed_hits = embedder.hits - embedder_before[0]
    embed_calls = embed_hits + embedder.misses - embedder_before[1]
    system = session.deployment.system
    index = system.index
    shards = [index.shard_index(shard) for shard in index.shard_ids] if system.cluster is not None else [index]
    timed_seconds = sum(timer.raw(op) for op in scale)
    attributed_seconds = sum(per_op_root.get(op, 0.0) for op in scale)
    traced_p50 = statistics.median(duration(sample.op) for sample in asks)
    untraced_p50 = statistics.median(duration(sample.op) for sample in untraced)

    values.update({
        "cache.hit_share": sum(1 for sample in asks if sample.cache_hit) / len(asks),
        "embeddings.calls": sum(1 for span in tracer.spans if span[0] == "embeddings" and span[4] in scale),
        "embeddings.cache_hit_share": embed_hits / embed_calls if embed_calls else 0.0,
        "reranker.candidates": tracer.counts.get("reranker", 0),
        "analyzer.calls": analyzer_calls,
        "analyzer.busy_ms": analyzer_seconds * 1e3,
        "guardrails.fired_share": sum(1 for sample in asks if sample.guardrail_fired) / len(asks),
        "index.maintenance_ops": tracer.counts.get("index.maintenance", 0),
        "index.segments_end": sum(shard.segment_count for shard in shards),
        "index.tombstone_ratio_end": statistics.fmean(shard.tombstone_ratio for shard in shards),
        "trace.overhead_pct": (traced_p50 / untraced_p50 - 1.0) * 100.0,
        "trace.unattributed_pct": (1.0 - attributed_seconds / timed_seconds) * 100.0,
    })
    return values


def environment(seed: int) -> dict:
    """The fingerprint written into every result document."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "seed": seed,
        "ref_probe_s": REF_PROBE_S,
    }


def _git_commit() -> str:
    """HEAD's commit, read from ``.git`` directly; the benchmark's checkout
    is not a git repository, and no process is started to find out."""
    head = REPO / ".git" / "HEAD"
    try:
        content = head.read_text().strip()
        if content.startswith("ref: "):
            return (REPO / ".git" / content[5:]).read_text().strip()
        return content
    except OSError:
        return "unknown"


# -- output ---------------------------------------------------------------------


def print_report(document: dict) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    probe = document["probe"]
    print(
        f"# {document['workload']} seed={document['seed']} seconds={document['seconds']:g} "
        f"trace={document['trace']} docs={document['documents']} asks={document['asks']} "
        f"refreshes={document['refreshes']} cache_hit_share={document['cache_hit_share']:.3f}"
    )
    print(
        f"# probe min/median/max = {probe['min_s'] * 1e3:.3f}/{probe['median_s'] * 1e3:.3f}/"
        f"{probe['max_s'] * 1e3:.3f} ms  spread={probe['spread']:.2f}"
        f"{'  DISTURBED' if probe['disturbed'] else ''}"
    )
    print(f"# answers_digest={document['answers_digest']}")
    print(f"{'metric':<30} {'value':>14} {'unit':<6} {'raw':>14}")
    for name, entry in document["metrics"].items():
        print(f"{name:<30} {entry['value']:>14.6g} {entry['unit']:<6} {entry['raw']:>14.6g}")
    print(
        f"fail_share = {document['fail_share']:g} "
        f"({document['failed']} failed of {document['attempted']} attempted)"
    )
    for failure in document["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in document["metrics"].items()
        },
    }))


def run_set(args: argparse.Namespace) -> int:
    """Every workload, untraced and traced, on every seed, each in its own
    process (peak memory is per process); writes one result set."""
    if not args.out:
        raise SystemExit("--workload all needs --out")
    out = Path(args.out)
    seeds = [int(seed) for seed in args.seeds.split(",")] if args.seeds else [args.seed]
    runs = []
    status = 0
    for seed in seeds:
        for name in WORKLOADS:
            for trace in (0, 1):
                part = out.with_name(f"{out.name}.{name}.{seed}.{trace}.part")
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", str(part),
                ] + (["--smoke"] if args.smoke else [])
                print(f"## {name} seed={seed} trace={trace}", flush=True)
                completed = subprocess.run(command, check=False)
                status = status or completed.returncode
                if part.exists():
                    document = json.loads(part.read_text())
                    document.pop("spans", None)  # a set stays small; one run's --out keeps them
                    runs.append(document)
                    part.unlink()
    out.write_text(json.dumps({"schema": SCHEMA_VERSION, "runs": runs}, indent=1) + "\n")
    print(f"wrote {out} ({len(runs)} runs)")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="size of the measured phase (operations = rate x seconds)")
    parser.add_argument("--seeds", default="", help="with --workload all: comma-separated seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="", help="also write the full result document here")
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, one set-up (harness tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_set(args)

    document = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), SMOKE if args.smoke else FULL
    )
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print_report(document)
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
