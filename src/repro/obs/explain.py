"""Query-level explain reports: why did each chunk rank where it did?

The deployment lessons of Section 6 are that silent quality regressions —
index refreshes, near-duplicate procedure docs, jargon drift — degrade
retrieval long before users complain.  The first tool against that is
*per-query explainability*: given one answered question, reconstruct the
exact arithmetic that produced the final ranking.

The retrieval executors already attach a named score breakdown to every
:class:`~repro.search.results.RetrievedChunk` (``components``):

* ``bm25_<field>`` — raw per-field BM25 score of the text leg, plus
  ``bm25_<field>:<term>`` per-term contributions on explain requests;
* ``cosine_<field>`` — cosine similarity of each vector leg;
* ``rrf_<name>`` — the reciprocal-rank contribution ``1 / (rank + c)`` of
  ranking *name* to the fused score (their sum **is** the fused score);
* ``rerank_adjust`` — the semantic reranker's additive delta
  (fused + rerank_adjust **is** the final score);
* ``shard`` — shard of origin when served by a cluster.

:func:`build_explain_report` folds those components into a structured
:class:`ExplainReport`: one :class:`ChunkExplanation` per returned chunk
with its leg ranks recovered from the RRF contributions, an exactness
check that the component sums reproduce the fused/final scores, and
per-component "why is #i beaten by #k" diffs.  The report renders as a
text table (``ask --explain``) and serializes to JSON (ops route, CI
artifacts).

This module is importable without the engine: it only depends on the
retrieval result types, so ``repro.core`` can attach reports to answers
without an import cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.search.results import RetrievedChunk

__all__ = [
    "ChunkExplanation",
    "ComponentDiff",
    "ExplainReport",
    "build_explain_report",
]

#: Component keys that are attribution metadata, not additive score terms.
_NON_SCORE_KEYS = ("shard",)


def _is_score_key(key: str) -> bool:
    return key not in _NON_SCORE_KEYS


@dataclass(frozen=True)
class ComponentDiff:
    """One component's contribution to the score gap between two chunks.

    Attributes:
        component: the component key (``rrf_text``, ``rerank_adjust``, ...).
        mine: this chunk's value (0.0 when absent).
        theirs: the other chunk's value (0.0 when absent).
        delta: ``mine - theirs`` — negative means the component favours
            the other chunk.
    """

    component: str
    mine: float
    theirs: float

    @property
    def delta(self) -> float:
        return self.mine - self.theirs


@dataclass(frozen=True)
class ChunkExplanation:
    """Score provenance of one chunk in the final ranking.

    Attributes:
        rank: 1-based position in the final ranking.
        chunk_id / doc_id / title: chunk identity.
        final_score: the score the ranking was sorted by.
        fused_score: the RRF sum (``final_score - rerank_adjust``).
        rerank_adjust: the semantic reranker's additive delta (0.0 when
            the reranker was disabled).
        rrf_contributions: per-ranking reciprocal-rank contributions.
        leg_ranks: the rank this chunk held in each source ranking,
            recovered from ``1/contribution - c``.
        leg_scores: raw leg-level scores (``bm25_<field>``,
            ``cosine_<field>``) including per-term breakdowns.
        shard: shard of origin (None on a single-index deployment).
        components: the full raw component mapping, verbatim.
    """

    rank: int
    chunk_id: str
    doc_id: str
    title: str
    final_score: float
    fused_score: float
    rerank_adjust: float
    rrf_contributions: dict[str, float]
    leg_ranks: dict[str, int]
    leg_scores: dict[str, float]
    shard: int | None
    components: dict[str, float] = field(default_factory=dict)

    @property
    def sum_exact(self) -> bool:
        """True when the component sums reproduce the scores exactly.

        The fused score must equal the sum of the ``rrf_*`` contributions
        (in their recorded insertion order, which matches the fusion
        accumulation order bit for bit), and the final score must equal
        ``fused + rerank_adjust``.
        """
        rrf_sum = 0.0
        for value in self.rrf_contributions.values():
            rrf_sum += value
        return rrf_sum == self.fused_score and (
            self.fused_score + self.rerank_adjust == self.final_score
        )

    def diff(self, other: "ChunkExplanation") -> list[ComponentDiff]:
        """Per-component diffs against *other*, largest absolute gap first.

        Only additive score components are compared (``rrf_*`` and
        ``rerank_adjust``), because only those sum to the final score —
        leg scores feed the ranks behind the RRF terms but do not add.
        """
        keys: list[str] = []
        for source in (self.rrf_contributions, other.rrf_contributions):
            for key in source:
                if key not in keys:
                    keys.append(key)
        keys.append("rerank_adjust")
        diffs = [
            ComponentDiff(
                component=key,
                mine=self.rrf_contributions.get(key, 0.0)
                if key != "rerank_adjust"
                else self.rerank_adjust,
                theirs=other.rrf_contributions.get(key, 0.0)
                if key != "rerank_adjust"
                else other.rerank_adjust,
            )
            for key in keys
        ]
        diffs.sort(key=lambda d: (-abs(d.delta), d.component))
        return diffs

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "rank": self.rank,
            "chunk_id": self.chunk_id,
            "doc_id": self.doc_id,
            "title": self.title,
            "final_score": self.final_score,
            "fused_score": self.fused_score,
            "rerank_adjust": self.rerank_adjust,
            "rrf_contributions": dict(self.rrf_contributions),
            "leg_ranks": dict(self.leg_ranks),
            "leg_scores": dict(self.leg_scores),
            "shard": self.shard,
            "sum_exact": self.sum_exact,
        }


@dataclass(frozen=True)
class ExplainReport:
    """The full provenance report of one answered question.

    Attributes:
        question: the question as retrieved (post content filter).
        rrf_c: the RRF smoothing constant of the deployment.
        mode: the retrieval mode (``hybrid``/``text``/``vector``).
        entries: one explanation per chunk of the final ranking.
        work: deterministic work counts accrued up to the point the report
            was built (``{kind: units}``, see :mod:`repro.obs.work`), or
            None when the request ran without profiling.
    """

    question: str
    rrf_c: float
    mode: str
    entries: tuple[ChunkExplanation, ...]
    work: dict[str, int] | None = None

    @property
    def sums_exact(self) -> bool:
        """True when every entry's component sums reproduce its scores."""
        return all(entry.sum_exact for entry in self.entries)

    def entry(self, rank: int) -> ChunkExplanation:
        """The explanation of the chunk at 1-based *rank*."""
        return self.entries[rank - 1]

    def why_beaten(self, rank: int, by: int = 1) -> list[ComponentDiff]:
        """Why is the chunk at *rank* beaten by the chunk at rank *by*?"""
        return self.entry(rank).diff(self.entry(by))

    def to_dict(self) -> dict:
        """JSON-ready representation of the whole report.

        The ``work`` block only appears for profiled requests, keeping the
        pre-profiling JSON byte-identical.
        """
        report = {
            "question": self.question,
            "rrf_c": self.rrf_c,
            "mode": self.mode,
            "sums_exact": self.sums_exact,
            "entries": [entry.to_dict() for entry in self.entries],
        }
        if self.work is not None:
            report["work"] = dict(self.work)
        return report

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize the report to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, ensure_ascii=False)

    def format_report(self, top: int = 5, terms: int = 4) -> str:
        """Render the human-readable explain table (``ask --explain``).

        Args:
            top: entries to detail (the rest are summarized in one line).
            terms: per-term BM25 contributions to show per field.
        """
        lines = [
            f"explain: {self.question!r} (mode={self.mode}, rrf_c={self.rrf_c:g}, "
            f"sums_exact={self.sums_exact})"
        ]
        if self.work:
            shown = ", ".join(f"{kind}={units}" for kind, units in sorted(self.work.items()))
            lines.append(f"work: {shown}")
        for entry in self.entries[:top]:
            shard = f" shard={entry.shard}" if entry.shard is not None else ""
            lines.append(
                f"#{entry.rank} {entry.chunk_id} [{entry.doc_id}]{shard} "
                f"final={entry.final_score:.6f} = fused {entry.fused_score:.6f} "
                f"+ rerank {entry.rerank_adjust:.6f}"
            )
            lines.append(f"    title: {entry.title}")
            for name, contribution in entry.rrf_contributions.items():
                leg = name[len("rrf_"):]
                leg_rank = entry.leg_ranks.get(name)
                rank_text = f"rank {leg_rank}" if leg_rank is not None else "rank ?"
                detail = ""
                if leg == "text":
                    fields = [
                        f"{key}={value:.4f}"
                        for key, value in entry.leg_scores.items()
                        if key.startswith("bm25_") and ":" not in key
                    ]
                    if fields:
                        detail = f" ({', '.join(fields)})"
                elif leg.startswith("vector_"):
                    cosine = entry.leg_scores.get(f"cosine_{leg[len('vector_'):]}")
                    if cosine is not None:
                        detail = f" (cosine={cosine:.4f})"
                lines.append(f"    {name:<24} {contribution:.6f}  ({rank_text}){detail}")
            term_keys = [key for key in entry.leg_scores if ":" in key]
            if term_keys:
                term_keys.sort(key=lambda key: -entry.leg_scores[key])
                shown = ", ".join(
                    f"{key.split(':', 1)[1]}={entry.leg_scores[key]:.3f}"
                    for key in term_keys[:terms]
                )
                lines.append(f"    top terms: {shown}")
            if entry.rank > 1:
                diffs = [d for d in entry.diff(self.entries[0]) if d.delta != 0.0][:3]
                why = ", ".join(f"{d.component} {d.delta:+.6f}" for d in diffs)
                lines.append(f"    vs #1: {why or 'tie on every component'}")
        if len(self.entries) > top:
            lines.append(f"... {len(self.entries) - top} more entries (see --explain JSON)")
        return "\n".join(lines)


def _leg_rank(contribution: float, c: float) -> int | None:
    """Recover the 1-based leg rank from an RRF contribution ``1/(rank+c)``."""
    if contribution <= 0.0:
        return None
    rank = round(1.0 / contribution - c)
    return int(rank) if rank >= 1 else None


def build_explain_report(
    question: str,
    results: list[RetrievedChunk],
    rrf_c: float,
    mode: str = "hybrid",
    work: dict[str, int] | None = None,
) -> ExplainReport:
    """Fold the component breakdowns of *results* into an explain report.

    *results* is the final ranking as returned by the retriever (fused and
    reranked); the per-chunk arithmetic is reconstructed purely from each
    chunk's ``components`` mapping, so this works identically for the
    single-index and clustered retrievers.
    """
    entries = []
    for position, result in enumerate(results, start=1):
        components = result.components
        rrf_contributions = {
            key: value for key, value in components.items() if key.startswith("rrf_")
        }
        rerank_adjust = components.get("rerank_adjust", 0.0)
        leg_scores = {
            key: value
            for key, value in components.items()
            if _is_score_key(key) and not key.startswith("rrf_") and key != "rerank_adjust"
        }
        fused = 0.0
        for value in rrf_contributions.values():
            fused += value
        shard = components.get("shard")
        entries.append(
            ChunkExplanation(
                rank=position,
                chunk_id=result.record.chunk_id,
                doc_id=result.record.doc_id,
                title=result.record.title,
                final_score=result.score,
                fused_score=fused,
                rerank_adjust=rerank_adjust,
                rrf_contributions=rrf_contributions,
                leg_ranks={
                    key: rank
                    for key, value in rrf_contributions.items()
                    if (rank := _leg_rank(value, rrf_c)) is not None
                },
                leg_scores=leg_scores,
                shard=int(shard) if shard is not None else None,
                components=dict(components),
            )
        )
    return ExplainReport(
        question=question,
        rrf_c=rrf_c,
        mode=mode,
        entries=tuple(entries),
        work=work,
    )
