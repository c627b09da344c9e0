"""A mapping bounded by LRU capacity and per-entry TTL on the simulated clock.

The backend bounds its per-session state with it: session tokens expire
after an idle TTL, and served-request summaries are LRU-only (feedback may
arrive arbitrarily late).  It is the answer cache's eviction idiom
(:mod:`repro.cache.answer_cache`) as a container.

Everything is deterministic: no wall clock, eviction order is pure
insertion/recency order.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.pipeline.clock import SimulatedClock

K = TypeVar("K")
V = TypeVar("V")


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
