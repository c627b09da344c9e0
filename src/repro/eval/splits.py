"""Validation/test splitting.

Section 7: "We split both datasets in two parts: validation (2/3 of
queries) and test (1/3 of queries)."  The split is a deterministic seeded
shuffle so that every component of the evaluation sees the same partition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.corpus.queries import LabeledQuery


@dataclass(frozen=True)
class DatasetSplit:
    """A validation/test partition of one query dataset."""

    validation: list[LabeledQuery]
    test: list[LabeledQuery]


def split_dataset(
    queries: list[LabeledQuery], validation_fraction: float = 2.0 / 3.0, seed: int = 31
) -> DatasetSplit:
    """Shuffle and partition *queries* into validation and test parts."""
    if not 0.0 < validation_fraction < 1.0:
        raise ValueError("validation_fraction must lie strictly between 0 and 1")
    shuffled = list(queries)
    random.Random(seed).shuffle(shuffled)
    cut = round(len(shuffled) * validation_fraction)
    return DatasetSplit(validation=shuffled[:cut], test=shuffled[cut:])
