"""Small statistics helpers shared by the harness and the comparison tool."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: list[float], q: float, min_beyond: int = MIN_SAMPLES_BEYOND) -> float:
    """Nearest-rank *q*-th percentile of *values* (``0 < q < 100``).

    Refuses (``ValueError``) when fewer than *min_beyond* samples lie beyond
    the returned one: a tail estimate resting on a handful of samples is
    mostly noise, and reporting it would invite conclusions from it.
    """
    if not 0.0 < q < 100.0:
        raise ValueError("q must lie strictly between 0 and 100")
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; needs {min_beyond}"
        )
    return ordered[rank - 1]


def quartile_distance(values: list[float]) -> float:
    """Distance between the first and third quartile of *values*
    (``statistics.quantiles(values, n=4)``, the acceptance check's rule).

    Fewer than four values have no quartiles worth the name: the range
    stands in, and a single value gives 0.
    """
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return max(values) - min(values)
    first, _, third = statistics.quantiles(values, n=4)
    return third - first
