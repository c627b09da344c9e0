"""Differential guarantees of the cache subsystem.

Two invariants protect existing deployments:

1. **Cache off ⇒ byte-identical behaviour.**  A deployment built with the
   default config (or an explicit ``CacheConfig(enabled=False)``) produces
   exactly the output surfaces it produced before the cache subsystem
   existed — same rendered answer pages, same response times, same
   dashboard, same ``/metrics`` exposition.
2. **Cache on ⇒ same answers on the cold path.**  Enabling the cache never
   changes *what* is answered, only how fast repeats come back: an
   all-unique workload gets answers identical to a cache-off deployment.
"""

from __future__ import annotations

import pytest

from repro.api import AskRequest, CacheConfig, create_backend, create_engine
from repro.cluster.config import ClusterConfig
from repro.core.config import UniAskConfig
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon
from repro.service.frontend import render_answer_page
from repro.service.monitoring import format_dashboard

QUESTIONS = (
    "come sbloccare la carta di credito",
    "bonifico estero commissioni",
    "limiti prelievo bancomat",
    "Qual e la ricetta della carbonara?",
)


@pytest.fixture(scope="module")
def tiny_kb():
    return KbGenerator(KbGeneratorConfig(num_topics=12, error_families=2, seed=23)).generate()


@pytest.fixture(scope="module")
def banking_lexicon():
    return build_banking_lexicon()


def build(tiny_kb, banking_lexicon, cache: CacheConfig | None, shards: int = 1, tracing=True):
    kwargs = {"cluster": ClusterConfig(shards=shards)}
    if cache is not None:
        kwargs["cache"] = cache
    config = UniAskConfig(**kwargs)
    system = create_engine(tiny_kb.store(), banking_lexicon, config=config, seed=23)
    backend = create_backend(system, tracing=tracing)
    return system, backend


def serve_surface(system, backend, typed_requests: bool = False) -> str:
    """Every output surface of a fixed workload, as one comparable blob."""
    token = backend.login("diff-user")
    lines = []
    for question in QUESTIONS:
        record = backend.serve(token, AskRequest.of(question) if typed_requests else question)
        lines.append(render_answer_page(record.answer))
        lines.append(f"response_time={record.answer.response_time!r}")
        lines.append(f"served_at={record.served_at!r}")
        lines.append(record.trace.format_table())
    lines.append(format_dashboard(backend.metrics.snapshot()))
    lines.append(system.telemetry.render_metrics())
    return "\n".join(lines)


class TestCacheOffByteIdentity:
    def test_default_config_matches_explicit_off(self, tiny_kb, banking_lexicon):
        default = serve_surface(*build(tiny_kb, banking_lexicon, None))
        explicit = serve_surface(*build(tiny_kb, banking_lexicon, CacheConfig(enabled=False)))
        assert default == explicit

    def test_legacy_api_matches_new_api(self, tiny_kb, banking_lexicon):
        # The legacy call style is the bare question string (the
        # ``backend.query`` shim is gone; ``serve`` promotes the string).
        new = serve_surface(*build(tiny_kb, banking_lexicon, None), typed_requests=True)
        old = serve_surface(*build(tiny_kb, banking_lexicon, None))
        assert new == old

    def test_sharded_default_matches_explicit_off(self, tiny_kb, banking_lexicon):
        default = serve_surface(*build(tiny_kb, banking_lexicon, None, shards=3))
        explicit = serve_surface(
            *build(tiny_kb, banking_lexicon, CacheConfig(enabled=False), shards=3)
        )
        assert default == explicit

    def test_metrics_exposition_has_no_cache_instruments_when_off(
        self, tiny_kb, banking_lexicon
    ):
        system, backend = build(tiny_kb, banking_lexicon, None)
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
            tiny_kb, banking_lexicon, CacheConfig(enabled=False), tracing=False
        )
        system_on, backend_on = build(
            tiny_kb, banking_lexicon, CacheConfig(enabled=True), tracing=False
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
        _, backend_off = build(tiny_kb, banking_lexicon, CacheConfig(enabled=False), shards=3)
        system_on, backend_on = build(tiny_kb, banking_lexicon, CacheConfig(enabled=True), shards=3)
        token_off = backend_off.login("diff-user")
        token_on = backend_on.login("diff-user")
        for question in QUESTIONS:
            off = backend_off.serve(token_off, question)
            on = backend_on.serve(token_on, question)
            assert on.answer.answer_text == off.answer.answer_text
            assert on.answer.outcome == off.answer.outcome
            system_on.clock.advance(off.answer.response_time)
