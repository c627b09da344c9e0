"""Figure 3 — The monitoring dashboard.

Replays a realistic traffic sample (mixed human questions and keyword
queries from many users, with granular feedback) through the backend
service and prints the dashboard page the paper shows: number of users,
feedbacks provided, average response time, failed requests and triggered
guardrails, plus the per-interval series behind the charts.
"""

from __future__ import annotations

import random

from repro.service.backend import BackendService
from repro.service.feedback import GranularFeedback
from repro.service.monitoring import format_dashboard


def test_figure3_monitoring_dashboard(benchmark, bench_system, human_split, keyword_split):
    rng = random.Random(33)
    questions = human_split.validation[:120] + keyword_split[0].validation[:60]
    rng.shuffle(questions)
    backend = BackendService(bench_system.engine, bench_system.clock, seed=33)

    def run():
        tokens = {f"user-{i:03d}": backend.login(f"user-{i:03d}") for i in range(25)}
        user_ids = list(tokens)
        for number, query in enumerate(questions):
            user_id = user_ids[rng.randrange(len(user_ids))]
            record = backend.serve(tokens[user_id], query.text)
            if rng.random() < 0.4:
                positive = record.answer.answered and rng.random() < 0.85
                backend.feedback(
                    tokens[user_id],
                    GranularFeedback(
                        query_id=record.query_id,
                        user_id=user_id,
                        helpful=positive,
                        retrieved_relevant=bool(record.answer.documents),
                        rating=4 if positive else 2,
                    ),
                )
        return backend.metrics.snapshot()

    snapshot = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print("=" * 72)
    print("FIGURE 3 — Monitoring dashboard page")
    print("=" * 72)
    print(format_dashboard(snapshot))
    print()
    print("queries per minute  :", snapshot.queries_per_bucket[:20], "...")
    print("avg rt per minute   :", [round(v, 2) for v in snapshot.response_time_per_bucket[:10]], "...")

    assert snapshot.users == 25
    assert snapshot.queries == len(questions)
    assert snapshot.feedbacks > 0
    assert snapshot.average_response_time > 0
    assert snapshot.guardrails_triggered < snapshot.queries * 0.2
    assert sum(snapshot.queries_per_bucket) == snapshot.queries
