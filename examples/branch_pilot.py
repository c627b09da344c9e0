"""Scenario: a branch-user pilot with live feedback and monitoring.

Re-creates, at small scale, the Phase 2 pilot of Section 8: branch
employees (trained to use natural language) query the system through the
backend service, leave granular feedback through the frontend modal, and
the operations team watches the monitoring dashboard of Figure 3.

Run:  python examples/branch_pilot.py
"""

from __future__ import annotations

import random

from repro import KbGenerator, KbGeneratorConfig, build_banking_lexicon, build_uniask_system
from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset
from repro.service.backend import BackendService
from repro.service.monitoring import format_dashboard
from repro.service.users import BRANCH_TRAINED, make_users


def main() -> None:
    print("Provisioning the pilot environment...")
    kb = KbGenerator(KbGeneratorConfig(num_topics=120, error_families=6, seed=7)).generate()
    system = build_uniask_system(kb.store(), build_banking_lexicon(), seed=7)
    backend = BackendService(system.engine, system.clock, seed=7)

    users = make_users(20, "branch", BRANCH_TRAINED, seed=7)
    questions = generate_human_dataset(kb, HumanDatasetConfig(num_questions=120, seed=7))
    tokens = {user.user_id: backend.login(user.user_id) for user in users}
    rng = random.Random(7)

    print(f"{len(users)} branch users, {len(questions)} questions over the pilot.\n")

    proper = 0
    for query in questions:
        user = users[rng.randrange(len(users))]
        record = backend.serve(tokens[user.user_id], user.phrase_question(query))
        if record.answer.answered:
            proper += 1
        feedback = user.maybe_give_feedback(record, query)
        if feedback is not None:
            backend.feedback(tokens[user.user_id], feedback)

    store = backend.feedback_store
    print(f"proper answers (with citations): {proper}/{len(questions)} ({proper / len(questions):.0%})")
    print(f"feedbacks collected           : {len(store)}")
    print(f"positive feedback             : {store.positive_fraction:.0%}")
    print(f"rating histogram              : {store.by_rating()}")

    links = store.ground_truth_links()
    print(f"ground-truth links contributed: {len(links)} "
          "(used to grow the evaluation datasets, as in the paper)\n")

    print(format_dashboard(backend.metrics.snapshot()))


if __name__ == "__main__":
    main()
