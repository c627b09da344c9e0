"""Single-flight request coalescing on the simulated clock.

Production traffic bursts around the same procedures: when ten employees
ask "come sbloccare la carta?" within the same few seconds, only the first
request needs to run the retrieve → generate → validate pipeline — the
other nine should **wait for the in-flight computation** and share its
answer.  That is single-flight semantics (one execution per key per flight
window), and it composes with the answer cache: the leader's answer lands
in the cache as usual, so stragglers arriving *after* the flight completes
hit the exact tier instead.

Time is the deployment's simulated clock.  A flight for key *k* started at
``t0`` with modeled response time ``d`` occupies the window
``[t0, t0 + d)``; a request for *k* arriving at ``t < t0 + d`` joins the
flight and is charged only the remaining wait ``t0 + d - t``.  Everything
is deterministic — no threads, no wall clock — which is exactly what lets
the coalescing tests assert "each unique in-flight question executed the
pipeline exactly once".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.answer import UniAskAnswer

#: Completed flights are pruned once the table grows past this bound.
_PRUNE_THRESHOLD = 1024


@dataclass(frozen=True)
class Flight:
    """One in-flight (or recently completed) pipeline execution.

    ``answer`` is the leader's envelope; a joiner gets an envelope of its
    own over the leader's content.
    """

    key: tuple
    request_id: str
    started_at: float
    completes_at: float
    answer: UniAskAnswer

    def live_at(self, now: float) -> bool:
        """True while a request arriving at *now* can still join."""
        return now < self.completes_at


@dataclass
class SingleFlightStats:
    """Lifetime counters of one :class:`SingleFlight` table."""

    flights: int = 0
    coalesced_waits: int = 0


class SingleFlight:
    """The flight table: at most one live execution per request key."""

    def __init__(self) -> None:
        self._flights: dict[tuple, Flight] = {}
        self.stats = SingleFlightStats()

    def __len__(self) -> int:
        return len(self._flights)

    def join(self, key: tuple, now: float) -> Flight | None:
        """The live flight for *key* at *now*, if one exists.

        Joining counts a coalesced wait; a completed flight is dropped
        (its answer now lives in the answer cache, not here).
        """
        flight = self._flights.get(key)
        if flight is None:
            return None
        if not flight.live_at(now):
            del self._flights[key]
            return None
        self.stats.coalesced_waits += 1
        return flight

    def register(
        self,
        key: tuple,
        request_id: str,
        started_at: float,
        completes_at: float,
        answer: UniAskAnswer,
    ) -> Flight:
        """Record the leader execution for *key* over its flight window."""
        flight = Flight(
            key=key,
            request_id=request_id,
            started_at=started_at,
            completes_at=completes_at,
            answer=answer,
        )
        self._flights[key] = flight
        self.stats.flights += 1
        if len(self._flights) > _PRUNE_THRESHOLD:
            self._prune(started_at)
        return flight

    def _prune(self, now: float) -> None:
        """Drop completed flights (deterministic, insertion-ordered)."""
        done = [key for key, flight in self._flights.items() if not flight.live_at(now)]
        for key in done:
            del self._flights[key]
