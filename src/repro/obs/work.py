"""Deterministic work accounting: counting what a request *did*, not how
long it took.

Timing-based perf gates are inherently noisy — a loaded CI runner turns a
real regression into flaky red and a fake one into green.  Work units are
not: the number of postings scanned, documents scored, ANN distance
evaluations, cache tiers consulted and LLM tokens consumed by a given
question against a given index state is a pure function of the code, so
two runs of the same query set must produce ``==``-identical counts and
any drift is a bit-exact diff pointing at the exact code path that changed.
This is the same philosophy as the kernels' byte-identical score gates,
applied to *effort* instead of *results*.

A :class:`WorkCounters` rides on the request's
:class:`~repro.obs.trace.RequestContext` (``ctx.work``, None by default);
every instrumented source of truth guards with ``if work is not None`` so
the disabled path executes exactly the pre-accounting code.  Increments
are plain integer adds on a dict — no clock reads, no allocation per add.
"""

from __future__ import annotations

__all__ = [
    "ALL_WORK_KINDS",
    "WORK_ANN_DISTANCE_EVALS",
    "WORK_CACHE_EXACT_HITS",
    "WORK_CACHE_EXACT_MISSES",
    "WORK_CACHE_SEMANTIC_HITS",
    "WORK_CACHE_SEMANTIC_MISSES",
    "WORK_COALESCED_JOINS",
    "WORK_DOCS_SCORED",
    "WORK_LLM_COMPLETION_TOKENS",
    "WORK_LLM_PROMPT_TOKENS",
    "WORK_POSTINGS_SCANNED",
    "WORK_RETRIEVAL_CACHE_HITS",
    "WORK_RETRIEVAL_CACHE_MISSES",
    "WORK_SCATTER_LEGS",
    "WORK_SEGMENTS_TOUCHED",
    "WorkCounters",
]

#: The work-counter taxonomy.  Each kind is incremented at exactly one
#: source of truth (the module listed), so a count never double-books.
WORK_POSTINGS_SCANNED = "postings_scanned"  # search.kernels / search.bm25
WORK_DOCS_SCORED = "docs_scored"  # search.bm25
WORK_SEGMENTS_TOUCHED = "segments_touched"  # search.bm25 (kernel views scored)
WORK_ANN_DISTANCE_EVALS = "ann_distance_evals"  # ann.hnsw / ann.exact
WORK_CACHE_EXACT_HITS = "cache_exact_hits"  # cache.answer_cache
WORK_CACHE_EXACT_MISSES = "cache_exact_misses"  # cache.answer_cache
WORK_CACHE_SEMANTIC_HITS = "cache_semantic_hits"  # cache.answer_cache
WORK_CACHE_SEMANTIC_MISSES = "cache_semantic_misses"  # cache.answer_cache
WORK_RETRIEVAL_CACHE_HITS = "retrieval_cache_hits"  # cluster.router (legs)
WORK_RETRIEVAL_CACHE_MISSES = "retrieval_cache_misses"  # cluster.router (legs)
WORK_COALESCED_JOINS = "coalesced_joins"  # service.backend (single-flight)
WORK_LLM_PROMPT_TOKENS = "llm_prompt_tokens"  # llm.base (traced_complete)
WORK_LLM_COMPLETION_TOKENS = "llm_completion_tokens"  # llm.base
WORK_SCATTER_LEGS = "scatter_legs"  # cluster.router (shard probes)

ALL_WORK_KINDS = (
    WORK_POSTINGS_SCANNED,
    WORK_DOCS_SCORED,
    WORK_SEGMENTS_TOUCHED,
    WORK_ANN_DISTANCE_EVALS,
    WORK_CACHE_EXACT_HITS,
    WORK_CACHE_EXACT_MISSES,
    WORK_CACHE_SEMANTIC_HITS,
    WORK_CACHE_SEMANTIC_MISSES,
    WORK_RETRIEVAL_CACHE_HITS,
    WORK_RETRIEVAL_CACHE_MISSES,
    WORK_COALESCED_JOINS,
    WORK_LLM_PROMPT_TOKENS,
    WORK_LLM_COMPLETION_TOKENS,
    WORK_SCATTER_LEGS,
)


class WorkCounters:
    """Deterministic per-request work tally, keyed by kind.

    Only kinds that actually fired appear in :attr:`counts`, so the
    serialized form of a cache-hit request (two adds) stays tiny and a
    taxonomy extension never bloats old requests.  Equality is plain dict
    equality — the contract the differential tests assert with ``==``.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def add(self, kind: str, amount: int = 1) -> None:
        """Book *amount* units of *kind* (a plain integer add)."""
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + int(amount)

    def get(self, kind: str) -> int:
        """Units booked for *kind* (0 when it never fired)."""
        return self.counts.get(kind, 0)

    def merge(self, other: "WorkCounters") -> None:
        """Fold *other*'s counts into this tally."""
        for kind, amount in other.counts.items():
            self.add(kind, amount)

    def snapshot(self) -> dict[str, int]:
        """A sorted copy of the counts (safe to mutate, stable order)."""
        return {kind: self.counts[kind] for kind in sorted(self.counts)}

    def delta(self, mark: dict[str, int]) -> dict[str, int]:
        """Counts accrued since *mark* (an earlier :meth:`snapshot`)."""
        out: dict[str, int] = {}
        for kind in sorted(self.counts):
            diff = self.counts[kind] - mark.get(kind, 0)
            if diff:
                out[kind] = diff
        return out

    @property
    def total(self) -> int:
        """Sum of all booked units."""
        return sum(self.counts.values())

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WorkCounters):
            return self.counts == other.counts
        if isinstance(other, dict):
            return self.counts == other
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"WorkCounters({inner})"
