"""The backend's bounded per-session state.

Covers the :class:`~repro.service.ttl_lru.TtlLruStore` container (the
answer cache's eviction idiom as a mapping) and the backend's session
tokens, bounded by it on the simulated clock.
"""

from __future__ import annotations

import pytest

from repro.api import create_engine
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon
from repro.pipeline.clock import SimulatedClock
from repro.service.backend import AuthenticationError, BackendService
from repro.service.ttl_lru import TtlLruStore


class TestTtlLruStore:
    def test_capacity_evicts_least_recently_used(self):
        store: TtlLruStore[str, int] = TtlLruStore(capacity=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # refreshes a's recency
        store.put("c", 3)
        assert "b" not in store
        assert store.get("a") == 1 and store.get("c") == 3
        assert store.evictions == 1

    def test_ttl_expires_on_the_simulated_clock(self):
        clock = SimulatedClock()
        store: TtlLruStore[str, int] = TtlLruStore(capacity=8, ttl_seconds=10.0, clock=clock)
        store.put("a", 1)
        clock.advance(9.0)
        assert store.get("a") == 1
        clock.advance(1.0)
        assert store.get("a") is None
        assert store.expirations == 1
        assert len(store) == 0

    def test_touch_restarts_the_ttl(self):
        clock = SimulatedClock()
        store: TtlLruStore[str, int] = TtlLruStore(capacity=8, ttl_seconds=10.0, clock=clock)
        store.put("a", 1)
        clock.advance(9.0)
        store.touch("a")
        clock.advance(9.0)
        assert store.get("a") == 1

    def test_dict_style_access(self):
        store: TtlLruStore[str, int] = TtlLruStore(capacity=4)
        store["a"] = 1
        assert store["a"] == 1
        with pytest.raises(KeyError):
            store["missing"]
        assert store.pop("a") == 1
        assert store.pop("a", 9) == 9

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            TtlLruStore(capacity=0)
        with pytest.raises(ValueError):
            TtlLruStore(capacity=1, ttl_seconds=0.0)


class TestBackendSessionBounds:
    @pytest.fixture(scope="class")
    def system(self):
        kb = KbGenerator(
            KbGeneratorConfig(num_topics=12, error_families=2, seed=23)
        ).generate()
        return create_engine(kb.store(), build_banking_lexicon(), seed=23)

    def test_idle_sessions_expire(self, system):
        backend = BackendService(
            system.engine, system.clock, session_ttl_seconds=600.0
        )
        token = backend.login("user-1")
        backend.serve(token, "come sbloccare la carta di credito")
        # Serving advances the simulated clock by the modeled latency, so
        # the idle gaps stay well inside the TTL.
        system.clock.advance(500.0)
        backend.serve(token, "limiti prelievo bancomat")  # activity restamps
        system.clock.advance(500.0)
        backend.serve(token, "bonifico estero commissioni")
        system.clock.advance(601.0)
        with pytest.raises(AuthenticationError):
            backend.serve(token, "apertura conto online")

    def test_session_capacity_bounds_logins(self, system):
        backend = BackendService(system.engine, system.clock, session_capacity=2)
        first = backend.login("user-1")
        backend.login("user-2")
        backend.login("user-3")
        with pytest.raises(AuthenticationError):
            backend.serve(first, "come sbloccare la carta di credito")
