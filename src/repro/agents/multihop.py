"""Multi-hop decomposition.

Comparative and conjunctive questions ("Qual è la differenza tra bloccare
la carta di credito e chiudere il conto corrente?") retrieve poorly as one
query: the two operations' terms dilute each other and one side's pages
crowd the other's out of the top ranks.  The multi-hop agent splits such a
question into its constituent sub-queries; the Orchestrator then retrieves
each hop independently and fuses the per-hop rankings through the *same*
:func:`~repro.search.fusion.reciprocal_rank_fusion` used everywhere else —
so the fused scores obey the exact bit-for-bit sum rules explain reports
already verify (``sum(rrf_hop_*) == fused score``).

Decomposition is deterministic pattern surgery, not an LLM call: the same
connectives the intent classifier keyed on are reused as split points.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_DIFFERENCE_RE = re.compile(
    r"\bdifferenz[ae]\b.*?\btra\b\s*(?P<body>.+)$", re.IGNORECASE | re.DOTALL
)
_CONFRONTA_RE = re.compile(
    r"^confronta\s+(?P<left>.+?)\s+(?:con|e)\s+(?P<right>.+)$",
    re.IGNORECASE | re.DOTALL,
)
_SIA_CHE_RE = re.compile(
    r"\bsia\b\s*(?P<left>.+?)\s*\b(?:sia|che)\b\s*(?P<right>.+)$",
    re.IGNORECASE | re.DOTALL,
)
_INOLTRE_RE = re.compile(
    r"^(?P<left>.+?)\s+e\s+inoltre\s+come\s+(?P<right>.+)$",
    re.IGNORECASE | re.DOTALL,
)


#: Maximum sub-queries a decomposition may fan out into (extra fragments
#: are dropped, never silently run).
MAX_HOPS = 4


def _clean(fragment: str) -> str:
    return fragment.strip().strip("?.,;:").strip()


@dataclass(frozen=True)
class Decomposition:
    """One decomposed multi-hop question.

    Attributes:
        hops: the sub-queries to retrieve independently, in question order.
        rule: which surgery produced them (span/debugging attribute).
    """

    hops: tuple[str, ...]
    rule: str


class MultiHopAgent:
    """Splits comparative/conjunctive questions into retrieval hops."""

    def decompose(self, question: str) -> Decomposition:
        """Decompose *question*; fewer than 2 hops means "not multi-hop".

        The caller (the Orchestrator) treats a degenerate decomposition as
        a plain lookup — a misfired connective must never make an answer
        worse than the single-path pipeline would have produced.
        """
        match = _DIFFERENCE_RE.search(question)
        if match:
            parts = re.split(r"\s+e\s+", match.group("body"), maxsplit=MAX_HOPS - 1)
            hops = tuple(h for h in (_clean(p) for p in parts) if h)
            if len(hops) >= 2:
                return Decomposition(hops=hops[: MAX_HOPS], rule="differenza_tra")

        match = _CONFRONTA_RE.match(question.strip())
        if match:
            hops = tuple(
                h for h in (_clean(match.group("left")), _clean(match.group("right"))) if h
            )
            if len(hops) == 2:
                return Decomposition(hops=hops, rule="confronta")

        match = _SIA_CHE_RE.search(question)
        if match:
            hops = tuple(
                h for h in (_clean(match.group("left")), _clean(match.group("right"))) if h
            )
            if len(hops) == 2:
                return Decomposition(hops=hops, rule="sia_che")

        match = _INOLTRE_RE.match(question.strip())
        if match:
            hops = tuple(
                h for h in (_clean(match.group("left")), _clean(match.group("right"))) if h
            )
            if len(hops) == 2:
                return Decomposition(hops=hops, rule="e_inoltre")

        return Decomposition(hops=(), rule="none")
