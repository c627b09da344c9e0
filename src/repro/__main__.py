"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``ask "<question>"`` — build a demo deployment and answer one question
  (``--shards N`` serves it from a sharded cluster, ``--explain`` prints
  the per-chunk score-provenance report, ``--cluster-status`` prints the
  shard/replica health table, ``--metrics`` dumps the Prometheus
  exposition of the deployment's telemetry registry);
* ``demo`` — an interactive search box over a demo deployment;
* ``eval`` — a compact UniAsk-vs-legacy evaluation (Table 1 style);
* ``loadtest`` — the Figure 2 open-system load test;
* ``metrics`` — serve a traced query stream through the backend and print
  the operational surface: ``/metrics`` exposition with exemplars,
  ``/healthz``/``/readyz`` probes, SLO burn-rate alerts, and optionally
  the JSONL audit log (``--audit PATH``); exits non-zero when any
  page-severity (critical) alert is firing;
* ``profile`` — serve a query stream through a profiling-enabled backend
  and print the aggregated call-tree profile (``--format top|folded|
  speedscope|json``), optionally with the saturation dashboard section
  (``--saturation``); ``ask --profile`` profiles a single request instead;
* ``canary`` — run the canary probe suite once through a demo deployment
  and report quality metrics against the (freshly frozen) baseline;
  exits non-zero when a quality alert fires;
* ``incident`` — run a compressed chaos day (replica kill + cache-epoch
  flip, no revive) through an incident-enabled sharded deployment and
  print the incident list; ``--timeline`` renders each incident's
  causally ordered flight-recorder timeline, ``--show ID`` one specific
  incident, ``--diagnose`` the root-cause verdict of the last served
  request; exits non-zero while an incident is open and unrecovered;
* ``index`` — build the demo corpus index and persist it to a directory,
  optionally sharded (``--shards N``).

The demo deployment uses the synthetic banking KB; sizes and seeds are
configurable via flags so the CLI stays deterministic by default.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.factory import UniAskSystem, build_uniask_system
from repro.corpus.generator import KbGenerator, KbGeneratorConfig, SyntheticKb
from repro.corpus.vocabulary import build_banking_lexicon
from repro.service.frontend import render_answer_page


def _build_system(
    topics: int,
    seed: int,
    shards: int = 1,
    replicas: int = 2,
    cache: bool = False,
    agents: bool = False,
) -> tuple[SyntheticKb, UniAskSystem]:
    print(f"building demo deployment ({topics} topics, seed {seed})...", file=sys.stderr)
    kb = KbGenerator(KbGeneratorConfig(num_topics=topics, error_families=6, seed=seed)).generate()
    config = None
    if shards > 1 or cache or agents:
        from repro.agents import AgentsConfig
        from repro.cache import CacheConfig
        from repro.cluster import ClusterConfig
        from repro.core.config import UniAskConfig

        config = UniAskConfig(
            cluster=ClusterConfig(shards=shards, replicas=replicas),
            cache=CacheConfig(enabled=cache),
            agents=AgentsConfig(enabled=agents),
        )
    system = build_uniask_system(kb.store(), build_banking_lexicon(), config=config, seed=seed)
    if shards > 1:
        sizes = ", ".join(
            f"shard {sid}: {len(system.index.shard_index(sid))}" for sid in system.index.shard_ids
        )
        print(f"indexed {len(system.index)} chunks over {shards} shards ({sizes}).", file=sys.stderr)
    else:
        print(f"indexed {len(system.index)} chunks.", file=sys.stderr)
    return kb, system


def _cmd_ask(args: argparse.Namespace) -> int:
    from repro.api import AskOptions, AskRequest

    agents_on = args.agents or bool(args.route)
    _, system = _build_system(
        args.topics,
        args.seed,
        shards=args.shards,
        replicas=args.replicas,
        cache=args.cache,
        agents=agents_on,
    )
    request = AskRequest(
        args.question,
        AskOptions(
            trace=args.trace,
            explain=args.explain,
            profile=args.profile,
            request_id="cli-ask" if (args.trace or args.profile) else "",
            route=args.route,
            priority=args.priority,
            deadline_ms=args.deadline_ms,
        ),
    )
    for _ in range(max(1, args.repeat)):
        answer = system.engine.answer(request).answer
    print(render_answer_page(answer))
    if args.show_route:
        if answer.route:
            print(f"\n[route] {answer.route}")
        else:
            print("\n[route] (agents disabled — run with --agents)")
    if args.trace:
        print()
        print(answer.trace.format_table())
    if args.explain and answer.explain_report is not None:
        print()
        print(answer.explain_report.format_report())
    if args.profile:
        from repro.obs.profile import ContinuousProfiler

        profiler = ContinuousProfiler()
        profiler.record(answer.trace)
        print()
        print(profiler.format_top())
        if answer.work:
            shown = " ".join(f"{kind}={units}" for kind, units in sorted(answer.work.items()))
            print(f"\nwork: {shown}")
    if answer.cache_hit:
        print(f"\n[cache] served from cache (kind={answer.cache_hit})")
    if answer.partial_results:
        print("\n[degraded] partial results: some shards missed their deadline.")
    if args.cache and system.answer_cache is not None:
        stats = system.answer_cache.stats
        print(
            f"\nanswer cache: {stats.hits_exact} exact + {stats.hits_semantic} semantic hits, "
            f"{stats.misses} misses, {stats.stores} stores"
        )
    if args.cluster_status:
        if system.cluster is None:
            print("\ncluster status: single-index deployment (no cluster).")
        else:
            from repro.cluster import format_cluster_status

            print()
            print(format_cluster_status(system.cluster.status()))
    if args.metrics:
        print()
        print(system.telemetry.render_metrics(), end="")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    _, system = _build_system(args.topics, args.seed, shards=args.shards)
    if system.cluster is not None:
        from repro.cluster import save_cluster

        save_cluster(system.index, args.out)
        for sid in system.index.shard_ids:
            shard = system.index.shard_index(sid)
            print(f"shard {sid}: {shard.document_count} documents, {len(shard)} chunks")
        print(f"saved {args.shards}-shard cluster to {args.out}")
    else:
        from repro.search.persistence import save_index

        save_index(system.index, args.out)
        print(f"{system.index.document_count} documents, {len(system.index)} chunks")
        print(f"saved single index to {args.out}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    _, system = _build_system(args.topics, args.seed)
    print("UniAsk demo — domande in italiano; riga vuota per uscire.")
    while True:
        try:
            question = input("\n❓ > ").strip()
        except (EOFError, KeyboardInterrupt):
            break
        if not question:
            break
        print(render_answer_page(system.engine.answer(question).answer))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.baselines.keyword_engine import PrevKeywordEngine
    from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset
    from repro.eval.harness import RetrievalEvaluator, hss_retriever, prev_retriever
    from repro.eval.reporting import format_comparison_table

    kb, system = _build_system(args.topics, args.seed)
    prev = PrevKeywordEngine()
    prev.index_all(kb.store().all_documents())
    questions = generate_human_dataset(
        kb, HumanDatasetConfig(num_questions=args.questions, seed=args.seed)
    )
    evaluator = RetrievalEvaluator()
    prev_result = evaluator.evaluate(prev_retriever(prev), questions)
    uniask_result = evaluator.evaluate(hss_retriever(system.searcher), questions)
    print(
        format_comparison_table(
            "Prev", prev_result, "UniAsk", uniask_result,
            title=f"Human questions (n={args.questions})",
        )
    )
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.service.loadtest import LoadTestConfig, run_load_test

    config = LoadTestConfig(
        duration_seconds=args.minutes * 60.0, tokens_per_minute=args.quota
    )
    report = run_load_test(config)
    print(f"total requests : {report.total_requests}")
    print(f"failed requests: {report.failed_requests} ({report.failure_rate:.2%})")
    print(f"first failure  : minute {report.first_failure_minute}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.service.alerting import SEVERITY_CRITICAL
    from repro.service.backend import BackendService, ROLE_OPS

    _, system = _build_system(args.topics, args.seed, shards=args.shards, replicas=args.replicas)
    backend = BackendService(system.engine, system.clock, tracing=True)
    token = backend.login("cli-user")
    questions = [
        "come sbloccare la carta di credito",
        "bonifico estero commissioni",
        "limiti prelievo bancomat",
        "apertura conto online",
        "quadratura di cassa",
    ]
    for i in range(args.queries):
        backend.serve(token, questions[i % len(questions)])
    ops_token = backend.login("cli-ops", role=ROLE_OPS)

    print(f"# served {args.queries} traced queries\n", file=sys.stderr)
    print(backend.ops("metrics", ops_token), end="")
    print()
    print(f"healthz: {backend.ops('healthz')}")
    print(f"readyz:  {backend.ops('readyz')}")
    alerts = backend.ops("slo", ops_token)
    if alerts:
        for alert in alerts:
            print(f"SLO ALERT [{alert.severity}] {alert.rule}: {alert.message}")
    else:
        print("SLO burn rates: all objectives within budget")
    sampler = backend.telemetry.sampler
    print(
        f"trace sampler: {len(sampler)} retained of {sampler.offered} offered "
        f"(head={sampler.head_sampled}, tail={sampler.tail_sampled})"
    )
    if args.audit:
        path = backend.telemetry.audit.dump(args.audit)
        print(f"audit log: {len(backend.telemetry.audit)} entries written to {path}")
    paging = [alert for alert in alerts if alert.severity == SEVERITY_CRITICAL]
    if paging:
        print(f"exit: {len(paging)} page-severity alert(s) firing", file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.service.backend import BackendService, ROLE_OPS

    _, system = _build_system(args.topics, args.seed, shards=args.shards, replicas=args.replicas)
    backend = BackendService(
        system.engine, system.clock, tracing=True, profiling=True, capacity=True
    )
    token = backend.login("cli-user")
    questions = [
        "come sbloccare la carta di credito",
        "bonifico estero commissioni",
        "limiti prelievo bancomat",
        "apertura conto online",
        "quadratura di cassa",
    ]
    for i in range(args.queries):
        backend.serve(token, questions[i % len(questions)])
    ops_token = backend.login("cli-ops", role=ROLE_OPS)
    print(f"# profiled {args.queries} requests\n", file=sys.stderr)
    payload = backend.ops("profile", ops_token, format=args.format, limit=args.limit)
    if isinstance(payload, str):
        print(payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    if args.saturation and backend.capacity is not None:
        from repro.obs.capacity import format_saturation

        print()
        print(format_saturation(backend.capacity.snapshot()))
    return 0


def _cmd_canary(args: argparse.Namespace) -> int:
    from repro.eval.groundedness import GroundednessJudge
    from repro.obs.quality import CanaryRunner, CanarySuite, format_canary_report

    kb, system = _build_system(
        args.topics, args.seed, shards=args.shards, replicas=args.replicas, agents=args.agents
    )
    suite = CanarySuite.from_kb(
        kb, size=args.probes, seed=args.seed + 1747, include_route_probes=args.agents
    )
    runner = CanaryRunner(
        system.engine,
        suite,
        judge=GroundednessJudge(build_banking_lexicon()),
        registry=system.telemetry.registry,
    )
    report = runner.run_once(now=system.clock.now())
    alerts = list(runner.last_alerts)
    print(format_canary_report(report, alerts))
    return 1 if alerts else 0


def _cmd_incident(args: argparse.Namespace) -> int:
    from repro.api import create_backend
    from repro.autoscale.loadgen import (
        CHAOS_EPOCH_FLIP,
        CHAOS_KILL,
        ChaosEvent,
        DiurnalLoadConfig,
        run_diurnal_load,
    )
    from repro.cache import CacheConfig
    from repro.cluster import ClusterConfig
    from repro.core.config import UniAskConfig
    from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset
    from repro.obs.incident import IncidentConfig
    from repro.service.backend import ROLE_OPS

    print(
        f"building incident-enabled deployment ({args.topics} topics, "
        f"{args.shards} shards, seed {args.seed})...",
        file=sys.stderr,
    )
    kb = KbGenerator(
        KbGeneratorConfig(num_topics=args.topics, error_families=6, seed=args.seed)
    ).generate()
    config = UniAskConfig(
        cluster=ClusterConfig(shards=args.shards, replicas=args.replicas),
        cache=CacheConfig(enabled=True),
        incident=IncidentConfig(enabled=True),
    )
    system = build_uniask_system(kb.store(), build_banking_lexicon(), config=config, seed=args.seed)
    backend = create_backend(system)
    token = backend.login("cli-incident")
    questions = [
        q.text
        for q in generate_human_dataset(
            kb, HumanDatasetConfig(num_questions=args.questions, seed=args.seed)
        )
    ]
    # The canonical pageable fault: kill one replica a third of the way in,
    # then flip the cache epoch shortly after so the re-scattering herd
    # actually sees the dark shard (cache hits never go partial).  No
    # revive and no autoscaler — the incident stays open.
    chaos: tuple[ChaosEvent, ...] = ()
    if args.chaos:
        kill_at = args.duration / 3.0
        chaos = (
            ChaosEvent(at=kill_at, kind=CHAOS_KILL, shard_id=0),
            ChaosEvent(at=kill_at + 30.0, kind=CHAOS_EPOCH_FLIP),
        )
    load = DiurnalLoadConfig(
        duration_seconds=args.duration,
        base_rate=args.rate,
        period_seconds=args.duration,
        chaos=chaos,
    )
    report = run_diurnal_load(backend, system.cluster, system.clock, token, questions, load)
    manager = backend.incidents
    print(
        f"# chaos day: served {report.served} requests over {args.duration:.0f}s "
        f"({'with' if args.chaos else 'without'} injected faults)\n",
        file=sys.stderr,
    )

    status = manager.status()
    print(
        f"incidents: {status['open']} open / {status['total']} total  "
        f"(flight recorder: {status['recorder_events']} events retained, "
        f"{status['recorder_total']} recorded)"
    )
    for summary in status["incidents"]:
        rules = ",".join(summary["rules"])
        print(
            f"  {summary['incident_id']}  [{summary['status']:<9}]  "
            f"opened=t={summary['opened_at']:.0f}s  rules={rules}  "
            f"cause={summary['top_cause'] or '-'}  seen={summary['count']}x"
        )
    if not status["incidents"]:
        print("  (none — no page-severity alert fired)")

    shown = []
    if args.show:
        try:
            shown = [manager.get(args.show)]
        except KeyError:
            print(f"error: unknown incident id {args.show!r}", file=sys.stderr)
            return 2
    elif args.timeline:
        shown = list(manager.incidents)
    for incident in shown:
        print()
        print(manager.format_timeline(incident))

    if args.diagnose:
        query_id = f"q-{backend.served_queries:07d}"
        diagnosis = backend.ops(
            "diagnose", backend.login("cli-ops", role=ROLE_OPS), query_id=query_id
        )
        print()
        print(f"diagnosis of {query_id} (route {diagnosis['route']}): {diagnosis['verdict']}")
        for finding in diagnosis["findings"]:
            print(f"  - {finding}")

    open_count = len(manager.open_incidents)
    if open_count:
        print(f"exit: {open_count} incident(s) still open", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--topics", type=int, default=120, help="demo corpus size (topics)")
    parser.add_argument("--seed", type=int, default=42, help="master seed")
    commands = parser.add_subparsers(dest="command", required=True)

    ask = commands.add_parser("ask", help="answer one question")
    ask.add_argument("question")
    ask.add_argument(
        "--trace",
        action="store_true",
        help="print the per-stage timing table of the request trace",
    )
    ask.add_argument("--shards", type=int, default=1, help="serve from N index shards")
    ask.add_argument("--replicas", type=int, default=2, help="replicas per shard")
    ask.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="enable the answer/retrieval cache (--no-cache restores the default)",
    )
    ask.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="serve the question N times (repeats hit the cache when --cache is on)",
    )
    ask.add_argument(
        "--cluster-status",
        action="store_true",
        help="print the shard/replica health table after answering",
    )
    ask.add_argument(
        "--metrics",
        action="store_true",
        help="print the Prometheus exposition of the telemetry registry",
    )
    ask.add_argument(
        "--explain",
        action="store_true",
        help="print the per-chunk score-provenance report of the retrieval",
    )
    ask.add_argument(
        "--profile",
        action="store_true",
        help="profile the request: hottest stage paths plus deterministic work counters",
    )
    ask.add_argument(
        "--agents",
        action="store_true",
        help="enable the multi-agent orchestration layer (intent routing)",
    )
    ask.add_argument(
        "--route",
        default="",
        help="force an agent route (conversational|lookup|multi_hop|structured|follow_up); implies --agents",
    )
    ask.add_argument(
        "--show-route",
        action="store_true",
        help="print the route the orchestrator chose for the question",
    )
    ask.add_argument(
        "--priority",
        default="interactive",
        choices=["interactive", "batch", "canary"],
        help="QoS priority class of the request (admission sheds canary and batch first)",
    )
    ask.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        help="client deadline in milliseconds; an admission-enabled backend degrades "
        "or rejects requests whose deadline full service cannot meet",
    )
    ask.set_defaults(func=_cmd_ask)

    demo = commands.add_parser("demo", help="interactive search box")
    demo.set_defaults(func=_cmd_demo)

    evaluate = commands.add_parser("eval", help="UniAsk vs legacy engine")
    evaluate.add_argument("--questions", type=int, default=150)
    evaluate.set_defaults(func=_cmd_eval)

    loadtest = commands.add_parser("loadtest", help="Figure 2 load test")
    loadtest.add_argument("--minutes", type=int, default=60)
    loadtest.add_argument("--quota", type=float, default=1_045_000.0)
    loadtest.set_defaults(func=_cmd_loadtest)

    metrics = commands.add_parser("metrics", help="telemetry surface of a demo backend")
    metrics.add_argument("--queries", type=int, default=8, help="traced queries to serve")
    metrics.add_argument("--shards", type=int, default=1, help="serve from N index shards")
    metrics.add_argument("--replicas", type=int, default=2, help="replicas per shard")
    metrics.add_argument("--audit", default="", help="write the JSONL audit log to this path")
    metrics.set_defaults(func=_cmd_metrics)

    profile = commands.add_parser(
        "profile", help="continuous profile of a served query stream"
    )
    profile.add_argument("--queries", type=int, default=12, help="requests to profile")
    profile.add_argument("--shards", type=int, default=1, help="serve from N index shards")
    profile.add_argument("--replicas", type=int, default=2, help="replicas per shard")
    profile.add_argument(
        "--format",
        choices=("top", "folded", "speedscope", "json"),
        default="top",
        help="output format of the aggregated profile",
    )
    profile.add_argument("--limit", type=int, default=25, help="rows in the top table")
    profile.add_argument(
        "--saturation",
        action="store_true",
        help="also print the saturation (USE) dashboard section",
    )
    profile.set_defaults(func=_cmd_profile)

    canary = commands.add_parser("canary", help="run the canary probe suite once")
    canary.add_argument("--probes", type=int, default=24, help="canary suite size")
    canary.add_argument("--shards", type=int, default=1, help="serve from N index shards")
    canary.add_argument("--replicas", type=int, default=2, help="replicas per shard")
    canary.add_argument(
        "--agents",
        action="store_true",
        help="enable agent routing and add per-route canary probes",
    )
    canary.set_defaults(func=_cmd_canary)

    incident = commands.add_parser(
        "incident", help="chaos day through an incident-enabled deployment"
    )
    incident.add_argument("--shards", type=int, default=2, help="serve from N index shards")
    incident.add_argument("--replicas", type=int, default=1, help="replicas per shard")
    incident.add_argument("--questions", type=int, default=40, help="distinct questions")
    incident.add_argument(
        "--duration", type=float, default=900.0, help="simulated chaos-day length (seconds)"
    )
    incident.add_argument("--rate", type=float, default=1.2, help="base request rate (req/s)")
    incident.add_argument(
        "--chaos",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="inject the replica kill + cache-epoch flip (--no-chaos for a clean day)",
    )
    incident.add_argument(
        "--timeline",
        action="store_true",
        help="print every incident's causally ordered flight-recorder timeline",
    )
    incident.add_argument("--show", default="", help="print one incident by id (e.g. inc-0001)")
    incident.add_argument(
        "--diagnose",
        action="store_true",
        help="print the root-cause diagnosis of the last served request",
    )
    incident.set_defaults(func=_cmd_incident)

    index = commands.add_parser("index", help="build and persist the demo index")
    index.add_argument("--shards", type=int, default=1, help="partition into N shards")
    index.add_argument("--out", required=True, help="output directory")
    index.set_defaults(func=_cmd_index)

    args = parser.parse_args(argv)
    topic_limit = KbGenerator().topic_limit
    if args.topics > topic_limit:
        parser.error(f"--topics {args.topics} exceeds the {topic_limit} the vocabulary can build")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
