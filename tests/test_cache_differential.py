"""Differential guarantees of the cache subsystem.

Two invariants protect existing deployments:

1. **Cache off ⇒ byte-identical behaviour.**  A deployment built with the
   default config (or an explicit ``CacheConfig(enabled=False)``) produces
   exactly the output surfaces it produced before the cache subsystem
   existed — same rendered answer pages, same response times, same
   dashboard, same ``/metrics`` exposition (the default-vs-explicit-off
   case itself is ``test_layers_differential.py``).
2. **Cache on ⇒ same answers on the cold path.**  Enabling the cache never
   changes *what* is answered, only how fast repeats come back: an
   all-unique workload gets answers identical to a cache-off deployment.
"""

from __future__ import annotations

import statistics

from repro.api import AskOptions, CacheConfig
from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset
from tests.differential import QUESTIONS, build, serve_surface


class TestCacheOffByteIdentity:
    def test_legacy_api_matches_new_api(self, tiny_kb, banking_lexicon):
        # The legacy call style is the bare question string (the
        # ``backend.query`` shim is gone; ``serve`` promotes the string).
        new = serve_surface(*build(tiny_kb, banking_lexicon), options=AskOptions())
        old = serve_surface(*build(tiny_kb, banking_lexicon))
        assert new == old

    def test_metrics_exposition_has_no_cache_instruments_when_off(
        self, tiny_kb, banking_lexicon
    ):
        system, backend = build(tiny_kb, banking_lexicon)
        serve_surface(system, backend)
        exposition = system.telemetry.render_metrics()
        assert "uniask_answer_cache_events_total" not in exposition
        assert "uniask_retrieval_cache_events_total" not in exposition
        assert "uniask_coalesced_waits_total" not in exposition
        assert "uniask_cache_served_queries_total" not in exposition


class TestCacheOnColdPathEquivalence:
    def test_unique_questions_get_identical_answers(self, tiny_kb, banking_lexicon):
        # Untraced: a traced total legitimately includes the cache spans,
        # so only the untraced token-volume model is directly comparable.
        _, backend_off = build(
            tiny_kb, banking_lexicon, cache=CacheConfig(enabled=False), tracing=False
        )
        system_on, backend_on = build(
            tiny_kb, banking_lexicon, cache=CacheConfig(enabled=True), tracing=False
        )
        token_off = backend_off.login("diff-user")
        token_on = backend_on.login("diff-user")
        for question in QUESTIONS:
            off = backend_off.serve(token_off, question)
            on = backend_on.serve(token_on, question)
            assert on.answer.cache_hit == ""
            assert on.answer.answer_text == off.answer.answer_text
            assert on.answer.outcome == off.answer.outcome
            assert on.answer.citations == off.answer.citations
            assert on.answer.response_time == off.answer.response_time
            # Keep the cached deployment's flights from colliding with the
            # serial cache-off clock: drive both clocks identically.
            system_on.clock.advance(off.answer.response_time)

    def test_cache_on_sharded_answers_match(self, tiny_kb, banking_lexicon):
        _, backend_off = build(tiny_kb, banking_lexicon, cache=CacheConfig(enabled=False), shards=3)
        system_on, backend_on = build(tiny_kb, banking_lexicon, cache=CacheConfig(enabled=True), shards=3)
        token_off = backend_off.login("diff-user")
        token_on = backend_on.login("diff-user")
        for question in QUESTIONS:
            off = backend_off.serve(token_off, question)
            on = backend_on.serve(token_on, question)
            assert on.answer.answer_text == off.answer.answer_text
            assert on.answer.outcome == off.answer.outcome
            system_on.clock.advance(off.answer.response_time)


class TestCacheOnRepeatSpeedup:
    def test_two_thirds_repeat_stream_is_five_times_faster(self, tiny_kb, banking_lexicon):
        """The gate: on a stream where every question is asked three times
        the median *simulated* response time drops at least 5x with the
        cache on (repeats are exact-tier hits, not re-runs)."""
        questions = generate_human_dataset(tiny_kb, HumanDatasetConfig(num_questions=10, seed=23))
        stream = [q.text for q in questions for _ in range(3)]

        def median_response_time(cache: CacheConfig) -> float:
            system, backend = build(tiny_kb, banking_lexicon, cache=cache, tracing=False)
            token = backend.login("diff-user")
            times = []
            for question in stream:
                times.append(backend.serve(token, question).answer.response_time)
                # Longer than any response: each repeat arrives after its
                # original completed, so it is a cache hit, not a coalesced wait.
                system.clock.advance(30.0)
            return statistics.median(times)

        cached = median_response_time(CacheConfig(enabled=True))
        uncached = median_response_time(CacheConfig(enabled=False))
        assert uncached >= 5.0 * cached
