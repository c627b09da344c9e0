"""Differential guarantees of the autoscaling / admission-control layer.

Mirrors the cache, explain and profiling differential suites: QoS is a
strictly additive overlay.

1. **Autoscale off ⇒ byte-identical behaviour.**  A deployment that never
   enables autoscaling or admission produces exactly the surfaces it
   produced before the layer existed, and a default ``UniAskConfig()``
   equals an explicit ``AutoscaleConfig(enabled=False)`` — plain and
   sharded alike (that case is ``test_layers_differential.py``).
2. **The shed ladder is well-formed.**  Every degrade level returns a
   complete :class:`~repro.api.types.AskResponse`; rejection raises the
   typed :class:`~repro.core.errors.AdmissionError` with a retry-after.
3. **The control loop acts.**  Under synthetic overload the autoscaler
   adds replicas, the hedge budget shrinks, and the hot-shard rebalance
   moves documents through the ring's minimal-movement pins.
"""

from __future__ import annotations

import pytest

from repro.api import (
    AskOptions,
    AskRequest,
    PRIORITY_BATCH,
    PRIORITY_CANARY,
    PRIORITY_INTERACTIVE,
    create_backend,
    create_engine,
)
from repro.autoscale import (
    AdaptiveHedgeBudget,
    AdmissionConfig,
    AdmissionController,
    AutoscaleConfig,
    LEVEL_CACHED_ONLY,
    LEVEL_DEGRADED,
    LEVEL_FULL,
    LEVEL_REJECT,
    admission,
)
from repro.cache.config import CacheConfig
from repro.core.answer import OUTCOME_DEGRADED
from repro.core.config import UniAskConfig
from repro.core.errors import AdmissionError
from repro.service.frontend import render_answer_page
from tests.differential import QUESTIONS, build, serve_surface


class TestAutoscaleOffByteIdentity:
    def test_off_deployment_has_no_qos_wiring(self, tiny_kb, banking_lexicon):
        system, backend = build(tiny_kb, banking_lexicon, shards=3)
        serve_surface(system, backend)
        assert system.autoscaler is None
        assert backend.admission is None
        assert backend.autoscaler is None
        assert system.cluster.hedge_budget is None
        exposition = system.telemetry.render_metrics()
        assert "uniask_autoscale_" not in exposition
        assert "uniask_admission_" not in exposition

    def test_default_audit_carries_no_degrade_field(self, tiny_kb, banking_lexicon):
        system, backend = build(tiny_kb, banking_lexicon)
        serve_surface(system, backend)
        for line in backend.telemetry.audit.lines():
            assert '"degrade_level"' not in line

    def test_default_options_carry_interactive_priority(self):
        options = AskOptions()
        assert options.priority == PRIORITY_INTERACTIVE
        assert options.deadline_ms is None

    def test_invalid_priority_and_deadline_rejected(self):
        with pytest.raises(ValueError):
            AskOptions(priority="realtime")
        with pytest.raises(ValueError):
            AskOptions(deadline_ms=0)
        with pytest.raises(ValueError):
            AskOptions(deadline_ms=True)


def _admission_backend(tiny_kb, banking_lexicon):
    autoscale = AutoscaleConfig(admission=AdmissionConfig(enabled=True))
    return build(tiny_kb, banking_lexicon, autoscale=autoscale)


def _saturate(
    controller: AdmissionController,
    load: float,
    start: float = 0.0,
    duration: float = 60.0,
) -> float:
    """Feed synthetic traffic worth *load* erlangs over one rolling window.

    Arrivals run ``start .. start + duration`` (the capacity monitor
    requires arrival order, so successive calls must use increasing
    *start*); returns the instant just past the last arrival so callers
    can advance their clock before serving real requests.
    """
    rate = 2.0
    service = load / rate
    t = start
    end = start + duration
    while t < end:
        controller.observe(t, service)
        t += 1.0 / rate
    return end


def _pressurize(system, backend, fraction: float) -> None:
    """Push the backend's admission pressure to *fraction* of reject level.

    Feeds the synthetic window ahead of the service clock, then advances
    the clock past it so subsequent serves observe in arrival order.
    """
    start = system.clock.now() + 1.0
    end = _saturate(
        backend.admission,
        load=admission.TARGET_LOAD * fraction,
        start=start,
    )
    system.clock.advance_to(end)


class TestShedLadder:
    def test_full_service_below_pressure(self, tiny_kb, banking_lexicon):
        system, backend = _admission_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        record = backend.serve(token, QUESTIONS[0])
        assert record.answer.degrade_level == LEVEL_FULL
        assert record.answer.outcome != OUTCOME_DEGRADED

    def test_cached_only_serves_cache_hits(self, tiny_kb, banking_lexicon):
        config = UniAskConfig(
            cache=CacheConfig(enabled=True),
            autoscale=AutoscaleConfig(admission=AdmissionConfig(enabled=True)),
        )
        system = create_engine(tiny_kb.store(), banking_lexicon, config=config, seed=23)
        backend = create_backend(system)
        token = backend.login("u")
        # Warm the answer cache at full service, then push into level 1.
        warm = backend.serve(token, QUESTIONS[0])
        assert warm.answer.degrade_level == LEVEL_FULL
        _pressurize(system, backend, 0.75)
        hit = backend.serve(token, QUESTIONS[0])
        assert hit.answer.degrade_level == 1
        assert hit.answer.cache_hit
        assert hit.answer.answer_text == warm.answer.answer_text
        assert hit.answer.citations == warm.answer.citations

    def test_cached_only_misses_fall_to_bm25(self, tiny_kb, banking_lexicon):
        config = UniAskConfig(
            cache=CacheConfig(enabled=True),
            autoscale=AutoscaleConfig(admission=AdmissionConfig(enabled=True)),
        )
        system = create_engine(tiny_kb.store(), banking_lexicon, config=config, seed=23)
        backend = create_backend(system)
        token = backend.login("u")
        _pressurize(system, backend, 0.75)
        record = backend.serve(token, QUESTIONS[1])  # never cached
        assert record.answer.degrade_level == 2
        assert record.answer.outcome == OUTCOME_DEGRADED
        assert not record.answer.cache_hit
        assert record.answer.citations == ()
        assert record.answer.documents  # BM25 evidence rides along

    def test_bm25_only_answer_is_well_formed(self, tiny_kb, banking_lexicon):
        system, backend = _admission_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        _pressurize(system, backend, 0.9)
        record = backend.serve(token, QUESTIONS[0])
        answer = record.answer
        assert answer.degrade_level == LEVEL_DEGRADED
        assert answer.outcome == OUTCOME_DEGRADED
        assert answer.answer_text  # the degraded-service message, not empty
        assert answer.raw_answer == ""
        assert answer.context == ()
        assert answer.citations == ()
        assert answer.response_time > 0.0
        assert render_answer_page(answer)  # renders like any other outcome

    def test_rejection_is_typed_with_retry_after(self, tiny_kb, banking_lexicon):
        system, backend = _admission_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        _pressurize(system, backend, 1.5)
        with pytest.raises(AdmissionError) as excinfo:
            backend.serve(token, QUESTIONS[0])
        error = excinfo.value
        assert error.retry_after_seconds > 0.0
        assert error.pressure > 1.0
        assert error.priority == PRIORITY_INTERACTIVE
        # The rejection left an audit trail and no stored record.
        assert any("admission_reject" in line for line in backend.telemetry.audit.lines())

    def test_canary_sheds_before_interactive(self, tiny_kb, banking_lexicon):
        system, backend = _admission_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        # Pressure in the canary-degraded / interactive-full band.
        _pressurize(system, backend, 0.55)
        interactive = backend.serve(
            token, AskRequest(QUESTIONS[0], AskOptions(priority=PRIORITY_INTERACTIVE))
        )
        canary = backend.serve(
            token, AskRequest(QUESTIONS[0], AskOptions(priority=PRIORITY_CANARY))
        )
        assert interactive.answer.degrade_level == LEVEL_FULL
        assert canary.answer.degrade_level > LEVEL_FULL

    def test_response_surfaces_degrade_and_shed(self, tiny_kb, banking_lexicon):
        from repro.api.types import AskResponse

        system, backend = _admission_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        _pressurize(system, backend, 0.9)
        record = backend.serve(token, QUESTIONS[2])
        response = AskResponse(answer=record.answer, request=AskRequest(QUESTIONS[2]))
        assert response.degrade_level == 2
        assert response.shed is True

    def test_degraded_audit_lines_carry_the_level(self, tiny_kb, banking_lexicon):
        system, backend = _admission_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        _pressurize(system, backend, 0.9)
        backend.serve(token, QUESTIONS[0])
        assert '"degrade_level":2' in backend.telemetry.audit.lines()[-1]

    def test_deadline_below_full_estimate_degrades(self, tiny_kb, banking_lexicon, monkeypatch):
        monkeypatch.setattr(admission, "FULL_LATENCY_ESTIMATE", 4.0)
        system, backend = _admission_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        record = backend.serve(
            token, AskRequest(QUESTIONS[0], AskOptions(deadline_ms=1000))
        )
        assert record.answer.degrade_level == LEVEL_DEGRADED

    def test_deadline_below_degraded_estimate_rejects(
        self, tiny_kb, banking_lexicon, monkeypatch
    ):
        monkeypatch.setattr(admission, "DEGRADED_LATENCY_ESTIMATE", 0.5)
        system, backend = _admission_backend(tiny_kb, banking_lexicon)
        token = backend.login("u")
        with pytest.raises(AdmissionError) as excinfo:
            backend.serve(token, AskRequest(QUESTIONS[0], AskOptions(deadline_ms=100)))
        assert excinfo.value.reason == "deadline"


class TestAdmissionController:
    def test_levels_follow_the_ladder(self, monkeypatch):
        monkeypatch.setattr(admission, "TARGET_LOAD", 4.0)
        controller = AdmissionController()
        assert controller.admit(PRIORITY_INTERACTIVE).level == LEVEL_FULL
        _saturate(controller, load=4.0 * 0.75)
        assert controller.admit(PRIORITY_INTERACTIVE).level == LEVEL_CACHED_ONLY
        _saturate(controller, load=4.0 * 0.9, start=1000.0)
        assert controller.admit(PRIORITY_INTERACTIVE).level == LEVEL_DEGRADED
        _saturate(controller, load=4.0 * 1.4, start=2000.0)
        decision = controller.admit(PRIORITY_INTERACTIVE)
        assert decision.level == LEVEL_REJECT
        assert decision.rejected
        with pytest.raises(AdmissionError):
            decision.raise_if_rejected()

    def test_priority_headroom_shifts_the_ladder(self, monkeypatch):
        monkeypatch.setattr(admission, "TARGET_LOAD", 4.0)
        controller = AdmissionController()
        _saturate(controller, load=4.0 * 0.6)
        assert controller.admit(PRIORITY_INTERACTIVE).level == LEVEL_FULL
        assert controller.admit(PRIORITY_BATCH).level == LEVEL_CACHED_ONLY
        assert controller.admit(PRIORITY_CANARY).level == LEVEL_DEGRADED

    def test_status_counts_decisions(self):
        controller = AdmissionController()
        controller.admit(PRIORITY_INTERACTIVE)
        status = controller.status()
        assert status["enabled"] is True
        assert status["decisions"]["full"] == 1

    def test_unknown_priority_rejected(self):
        controller = AdmissionController()
        with pytest.raises(ValueError):
            controller.admit("realtime")


class TestAdaptiveHedgeBudget:
    def test_full_budget_at_idle(self):
        budget = AdaptiveHedgeBudget(base_fraction=0.5, disable_above=0.8)
        budget.update_utilization(0.0)
        grants = sum(budget.allow() for _ in range(100))
        assert grants == 50

    def test_budget_shrinks_with_utilization(self):
        low = AdaptiveHedgeBudget(base_fraction=0.5, disable_above=0.8)
        high = AdaptiveHedgeBudget(base_fraction=0.5, disable_above=0.8)
        low.update_utilization(0.2)
        high.update_utilization(0.6)
        low_grants = sum(low.allow() for _ in range(200))
        high_grants = sum(high.allow() for _ in range(200))
        assert low_grants > high_grants > 0

    def test_budget_zero_above_disable_threshold(self):
        budget = AdaptiveHedgeBudget(base_fraction=0.5, disable_above=0.8)
        budget.update_utilization(0.9)
        assert not any(budget.allow() for _ in range(50))

    def test_router_denied_hedge_behaves_as_no_sibling(self, tiny_kb, banking_lexicon):
        """A zero budget must not change results, only suppress hedges."""
        plain_system, _ = build(tiny_kb, banking_lexicon, shards=3)
        budget_system, _ = build(tiny_kb, banking_lexicon, shards=3)
        exhausted = AdaptiveHedgeBudget(base_fraction=0.5, disable_above=0.8)
        exhausted.update_utilization(1.0)  # denies every hedge
        budget_system.cluster.hedge_budget = exhausted
        for question in QUESTIONS:
            plain = plain_system.cluster.search(question)
            budgeted = budget_system.cluster.search(question)
            assert [r.record.chunk_id for r in plain] == [
                r.record.chunk_id for r in budgeted
            ]
