"""Trace sampling: probabilistic head sampling plus tail-latency retention.

Tracing every request at production volume is unaffordable to *keep* — the
spans of millions of requests per day dwarf the corpus — yet all-or-nothing
tracing means a latency spike on the dashboard points at nothing.  The
:class:`TraceSampler` implements the standard compromise:

* **head sampling** — each finished request draws once from a dedicated
  seeded RNG stream and is retained with probability ``rate`` (0 disables,
  1 keeps everything); the stream is private to the sampler, so sampling
  never perturbs any other seeded component and the same seed over the
  same query stream retains the *same* trace ids, bit for bit;
* **tail sampling** — a request slower than ``tail_latency`` seconds is
  retained regardless of the head decision, because the slow outliers are
  exactly the traces an operator needs;
* **bounded retention** — at most ``capacity`` traces are kept, oldest
  evicted first; an ``on_evict`` hook lets the owning telemetry bundle
  drop any histogram exemplars that pointed at the evicted trace, so every
  exposed exemplar trace id always resolves to a fetchable trace.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Callable

from repro.obs.trace import Trace

__all__ = ["TraceSampler"]


class TraceSampler:
    """Head + tail trace sampling with bounded, exemplar-safe retention.

    Args:
        rate: head-sampling probability in [0, 1].
        tail_latency: duration (seconds) above which a trace is always
            retained (None disables tail sampling).
        seed: seed of the sampler's private RNG stream.
        capacity: maximum retained traces (oldest evicted first).
        on_evict: called with the trace id of every evicted trace.
    """

    def __init__(
        self,
        rate: float = 0.1,
        tail_latency: float | None = None,
        seed: int = 1729,
        capacity: int = 256,
        on_evict: Callable[[str], None] | None = None,
    ) -> None:
        if not (0.0 <= rate <= 1.0):
            raise ValueError("rate must be in [0, 1]")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._rate = rate
        self._tail_latency = tail_latency
        self._rng = random.Random(seed)
        self._capacity = capacity
        self._on_evict = on_evict
        self._retained: OrderedDict[str, Trace] = OrderedDict()
        self.offered = 0
        self.head_sampled = 0
        self.tail_sampled = 0

    def offer(self, trace_id: str, trace: Trace, duration: float) -> bool:
        """Decide whether to retain *trace*; returns True when retained.

        Exactly one RNG draw per offer, so retention decisions depend only
        on the seed and the offer sequence — never on timing.
        """
        self.offered += 1
        head = self._rng.random() < self._rate
        tail = self._tail_latency is not None and duration >= self._tail_latency
        if head:
            self.head_sampled += 1
        if tail and not head:
            self.tail_sampled += 1
        if not (head or tail):
            return False
        self._retained[trace_id] = trace
        self._retained.move_to_end(trace_id)
        while len(self._retained) > self._capacity:
            evicted_id, _ = self._retained.popitem(last=False)
            if self._on_evict is not None:
                self._on_evict(evicted_id)
        return True

    def get(self, trace_id: str) -> Trace | None:
        """The retained trace for *trace_id* (None when not retained)."""
        return self._retained.get(trace_id)

    @property
    def retained_ids(self) -> list[str]:
        """Ids of all retained traces, oldest first."""
        return list(self._retained)

    def __len__(self) -> int:
        return len(self._retained)
