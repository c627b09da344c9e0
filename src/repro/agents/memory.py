"""Bounded session memory on the simulated clock.

Two pieces live here:

* :class:`TtlLruStore` — a generic TTL + LRU bounded map, the cache
  subsystem's eviction idiom (:mod:`repro.cache.answer_cache`) extracted
  into a reusable container.  The backend uses it to bound its per-session
  state (tokens, query records), fixing the unbounded growth that made
  long-running load tests leak.
* :class:`SessionMemory` — the FollowUp agent's conversation memory: a
  bounded deque of :class:`SessionTurn` per session id (the backend keys
  it by its hardened 128-bit session tokens), itself held in a
  :class:`TtlLruStore` so abandoned sessions expire on the simulated
  clock instead of accumulating forever.

Everything is deterministic: no wall clock, eviction order is pure
insertion/recency order.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro.pipeline.clock import SimulatedClock

K = TypeVar("K")
V = TypeVar("V")

#: Conversation turns remembered per session (older turns are forgotten
#: first).
SESSION_TURNS = 8


@dataclass(slots=True)
class _Slot(Generic[V]):
    """One stored value with its store-time stamp."""

    value: V
    stored_at: float


class TtlLruStore(Generic[K, V]):
    """A mapping bounded by LRU capacity and per-entry TTL.

    Args:
        capacity: maximum resident entries; inserting beyond it evicts the
            least recently used entry.
        ttl_seconds: entry lifetime on *clock* (None disables expiry).
            Expiry is lazy: an expired entry is dropped when touched (get,
            iteration, length) rather than by a background sweep.
        clock: the deployment's simulated clock.
    """

    def __init__(
        self,
        capacity: int,
        ttl_seconds: float | None = None,
        clock: SimulatedClock | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self._capacity = capacity
        self._ttl = ttl_seconds
        self._clock = clock if clock is not None else SimulatedClock()
        self._slots: OrderedDict[K, _Slot[V]] = OrderedDict()
        self.evictions = 0
        self.expirations = 0

    def __len__(self) -> int:
        self._expire_all()
        return len(self._slots)

    def __contains__(self, key: K) -> bool:
        return self.get(key) is not None

    def __getitem__(self, key: K) -> V:
        """Dict-style fetch; raises ``KeyError`` when absent or expired."""
        sentinel = object()
        value = self.get(key, sentinel)  # type: ignore[arg-type]
        if value is sentinel:
            raise KeyError(key)
        return value  # type: ignore[return-value]

    def __setitem__(self, key: K, value: V) -> None:
        """Dict-style insert: exactly :meth:`put`."""
        self.put(key, value)

    def get(self, key: K, default: V | None = None) -> V | None:
        """Fetch *key*, refreshing its recency; None when absent/expired."""
        slot = self._slots.get(key)
        if slot is None:
            return default
        if self._expired(slot):
            del self._slots[key]
            self.expirations += 1
            return default
        self._slots.move_to_end(key)
        return slot.value

    def put(self, key: K, value: V) -> None:
        """Insert or replace *key*, re-stamping its TTL and recency."""
        if key in self._slots:
            del self._slots[key]  # re-insert at the LRU tail
        self._slots[key] = _Slot(value=value, stored_at=self._clock.now())
        while len(self._slots) > self._capacity:
            self._slots.popitem(last=False)
            self.evictions += 1

    def touch(self, key: K) -> None:
        """Re-stamp *key*'s TTL without replacing its value (no-op if absent)."""
        slot = self._slots.get(key)
        if slot is None:
            return
        slot.stored_at = self._clock.now()
        self._slots.move_to_end(key)

    def pop(self, key: K, default: V | None = None) -> V | None:
        """Remove and return *key* (expired entries count as absent)."""
        slot = self._slots.pop(key, None)
        if slot is None:
            return default
        if self._expired(slot):
            self.expirations += 1
            return default
        return slot.value

    def _expired(self, slot: _Slot[V]) -> bool:
        return self._ttl is not None and self._clock.now() - slot.stored_at >= self._ttl

    def _expire_all(self) -> None:
        if self._ttl is None:
            return
        stale = [key for key, slot in self._slots.items() if self._expired(slot)]
        for key in stale:
            del self._slots[key]
            self.expirations += 1


@dataclass(frozen=True)
class SessionTurn:
    """One remembered conversation turn of a session.

    Attributes:
        question: the question as the user typed it.
        resolved_question: the question the pipeline actually ran — for
            follow-up turns the anaphora-resolved rewrite, otherwise the
            original.
        route: the route that served the turn.
        outcome: the pipeline outcome of the turn.
        clarification_pending: True when the turn's answer asked the user
            for more details (typed :data:`~repro.llm.base.RESPONSE_KIND_CLARIFICATION`
            generation outcome) — the next turn in the session is then
            merged with this one instead of treated as a fresh question.
    """

    question: str
    resolved_question: str
    route: str
    outcome: str
    clarification_pending: bool = False


@dataclass
class _SessionState:
    """The remembered turns of one session."""

    turns: deque[SessionTurn] = field(default_factory=deque)


class SessionMemory:
    """Per-session conversation memory with TTL + LRU bounds.

    Args:
        capacity: maximum concurrently remembered sessions.
        ttl_seconds: session lifetime on *clock* since last activity.
        turns_per_session: turns remembered per session (FIFO beyond).
        clock: the deployment's simulated clock.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl_seconds: float | None = 1800.0,
        turns_per_session: int = SESSION_TURNS,
        clock: SimulatedClock | None = None,
    ) -> None:
        if turns_per_session <= 0:
            raise ValueError("turns_per_session must be positive")
        self._turns_per_session = turns_per_session
        self._store: TtlLruStore[str, _SessionState] = TtlLruStore(
            capacity, ttl_seconds, clock=clock
        )

    def __len__(self) -> int:
        return len(self._store)

    def turns(self, session_id: str) -> tuple[SessionTurn, ...]:
        """The remembered turns of *session_id*, oldest first."""
        if not session_id:
            return ()
        state = self._store.get(session_id)
        if state is None:
            return ()
        return tuple(state.turns)

    def last_turn(self, session_id: str) -> SessionTurn | None:
        """The most recent remembered turn of *session_id*, if any."""
        turns = self.turns(session_id)
        return turns[-1] if turns else None

    def observe(self, session_id: str, turn: SessionTurn) -> None:
        """Append *turn* to the session, refreshing its TTL and recency."""
        if not session_id:
            return
        state = self._store.get(session_id)
        if state is None:
            state = _SessionState(turns=deque(maxlen=self._turns_per_session))
        self._store.put(session_id, state)  # re-stamps TTL + recency
        state.turns.append(turn)
