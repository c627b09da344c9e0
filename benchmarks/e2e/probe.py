"""Speed probe and normaliser: wall time expressed in *reference* time.

The sandbox's cores flip between speed states from one moment to the next
(the same probe reads 0.22 ms or 0.36 ms within a second, with
``process_time / wall`` ≈ 0.98: the core itself is slower, nothing preempts
it).  Raw wall time therefore does not repeat: the median ``serve`` latency
of one deployment ranged 43–69 ms over eight passes of the same questions.
The probe is a fixed piece of interpreter + small-numpy work, deliberately
importing nothing from ``repro``, whose duration tracks the machine's speed
at that moment.  Every timed duration is multiplied by ``REF_PROBE_S`` over
the mean of the two probes that bracket it, which converts it to what it
would have taken in the machine state that defined ``REF_PROBE_S``; the
same eight passes then read 40.6–43.2 ms.

``REF_PROBE_S`` was measured once on a quiet run (the fast state) and is
frozen: it defines the unit ("reference seconds") of every timing the
harness reports and must never change, or results stop being comparable
across commits.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

#: Duration of one probe on the quiet run that defined the unit.  Frozen.
REF_PROBE_S = 0.000220

#: Re-probe when this much wall time has passed since the last probe.  Short
#: enough that every full-pipeline request (tens of ms) gets its own pair of
#: brackets; a run of sub-millisecond cache hits shares one pair.
PROBE_INTERVAL_S = 0.02

#: A run whose slowest probe is this many times its fastest is flagged.
DISTURBED_SPREAD = 2.0

_PROBE_VECTOR = np.arange(256, dtype=np.float64) / 256.0


def probe_once() -> float:
    """Run the fixed probe once; returns its wall duration in seconds."""
    started = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    for i in range(1500):
        total += (i * i) % 7
        table[i & 63] = total
    vector = _PROBE_VECTOR
    acc = 0.0
    for _ in range(40):
        acc += float(vector @ vector)
        acc += float(np.linalg.norm(vector))
    return time.perf_counter() - started


def probe() -> float:
    """Best of three back-to-back probes: rejects one-off interruptions."""
    return min(probe_once(), probe_once(), probe_once())


def reference_factor(before: float, after: float, ref_probe_s: float = REF_PROBE_S) -> float:
    """Multiplier that turns a wall duration bracketed by two probes into
    reference time."""
    return ref_probe_s / ((before + after) / 2.0)


class Normaliser:
    """Times operations and converts their wall durations to reference time.

    ``start()`` takes the opening probe; every ``with timed(label):`` block
    records one duration under *label* and re-probes afterwards when the
    last probe is older than the interval; ``finish()`` takes the closing
    probe.  Probes run between timed blocks, never inside one.
    """

    def __init__(self, ref_probe_s: float = REF_PROBE_S, interval_s: float = PROBE_INTERVAL_S) -> None:
        self._ref = ref_probe_s
        self._interval = interval_s
        self.probes: list[float] = []
        self._probe_at = 0.0
        self._raw: list[float] = []
        self._labels: list[str] = []
        # Index of the last probe taken before each recorded duration; the
        # first probe taken after it is that index + 1.
        self._before: list[int] = []

    def start(self) -> None:
        """Take the opening probe."""
        self._take_probe()

    def finish(self) -> None:
        """Take the closing probe, so the last durations are bracketed."""
        self._take_probe()

    @contextmanager
    def timed(self, label: str) -> Iterator[None]:
        """Time the block as one duration under *label*."""
        if not self.probes:
            raise RuntimeError("Normaliser.start() must run before the first timed block")
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            self._raw.append(ended - started)
            self._labels.append(label)
            self._before.append(len(self.probes) - 1)
            if ended - self._probe_at >= self._interval:
                self._take_probe()

    def _take_probe(self) -> None:
        self.probes.append(probe())
        self._probe_at = time.perf_counter()

    def __len__(self) -> int:
        return len(self._raw)

    def indices(self, label: str) -> list[int]:
        """Indices of the durations recorded under *label*, in order."""
        return [i for i, seen in enumerate(self._labels) if seen == label]

    def raw(self, index: int) -> float:
        """Raw wall seconds of the *index*-th recorded duration."""
        return self._raw[index]

    def factor(self, index: int) -> float:
        """Reference-time multiplier of the *index*-th recorded duration."""
        before = self._before[index]
        after = min(before + 1, len(self.probes) - 1)
        return reference_factor(self.probes[before], self.probes[after], self._ref)

    def reference(self, index: int) -> float:
        """Reference seconds of the *index*-th recorded duration."""
        return self._raw[index] * self.factor(index)

    def summary(self) -> dict:
        """Probe statistics written into every result document."""
        probes = self.probes
        spread = max(probes) / min(probes)
        return {
            "ref_probe_s": self._ref,
            "count": len(probes),
            "min_s": min(probes),
            "median_s": statistics.median(probes),
            "max_s": max(probes),
            "spread": spread,
            "disturbed": spread > DISTURBED_SPREAD,
        }
