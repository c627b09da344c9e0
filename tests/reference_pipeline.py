"""The list retrieval pipeline as ``src/`` carried it before query-then-fetch.

Test oracle only: :mod:`tests.test_query_then_fetch` serves a retrieval
through the searchers (the legs return heads, one fetch builds the final
ranking) and through these functions, where every leg, the shard merge, RRF
and the reranker each build their own :class:`RetrievedChunk` list, and
requires the same final ranking — chunk ids and score bits — and on an
explain request the same components in the same key order.  The bodies are
the parent commit's ``FullTextSearch.search``, ``VectorSearch._search_field``,
``reciprocal_rank_fusion``, ``SemanticReranker._score`` / ``rerank`` and the
router's ``_ranked`` / ``_attribute_shard`` / ``_merge``; the reranker is the
per-candidate scalar formula, its sums written out in concept order.  Only
the BM25 kernel, the ANN index and the query plan are the serving ones.  Do
not optimise this file.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

from repro.search.bm25 import Bm25Parameters, Bm25Scorer, score_fields
from repro.search.fulltext import FullTextSearch, ScoringProfile
from repro.search.results import Heads, RetrievedChunk
from repro.search.schema import ChunkRecord


class RecordList:
    """A key space for hand-built heads: key *i* is the *i*-th record."""

    def __init__(self) -> None:
        self.records: list[ChunkRecord] = []
        self._keys: dict[str, int] = {}

    def record(self, key: int) -> ChunkRecord:
        return self.records[key]

    def heads(self, names: list[str], scores: list[float] | None = None) -> Heads:
        """A ranking of one-chunk documents named *names*, best first."""
        keys = []
        for name in names:
            if name not in self._keys:
                self._keys[name] = len(self.records)
                self.records.append(
                    ChunkRecord(chunk_id=f"{name}#0", doc_id=name, title=name, content=name)
                )
            keys.append(self._keys[name])
        if scores is None:
            scores = [1.0] * len(keys)
        return Heads(np.array(keys, dtype=np.int64), np.array(scores, dtype=np.float64), self)


def text_leg(
    index,
    query: str,
    n: int,
    filters=None,
    explain: bool = False,
    plan=None,
    profile: ScoringProfile | None = None,
) -> list[RetrievedChunk]:
    profile = profile or ScoringProfile()
    parameters = Bm25Parameters()
    field_results = []
    max_internal = -1
    if n <= 0:
        plan = {}
    elif plan is None:
        plan = FullTextSearch(index, profile=profile).plan(query)
    for field_name, (terms, statistics) in plan.items():
        scorer = Bm25Scorer(index.inverted_index(field_name), parameters)
        ids, scores = score_fields([(index.inverted_index(field_name), statistics)], parameters)[0]
        if ids.size:
            weight = profile.weight(field_name)
            field_results.append((field_name, weight, ids, scores, scorer))
            max_internal = max(max_internal, int(ids.max()))
    combined = np.zeros(max_internal + 1, dtype=np.float64)
    touched = np.zeros(max_internal + 1, dtype=bool)
    for _, weight, ids, scores, _ in field_results:
        combined[ids] += weight * scores
        touched[ids] = True
    candidates = np.nonzero(touched)[0]
    ranked = np.lexsort((candidates, -combined[candidates]))
    selected: list[tuple[int, float]] = []
    for position in ranked:
        internal = int(candidates[position])
        if not index.live_mask()[internal]:
            continue
        if not index.matches_filters(internal, filters):
            continue
        selected.append((internal, float(combined[internal])))
        if len(selected) == n:
            break
    per_field: dict[int, dict[str, float]] = {}
    if explain:
        selected_ids = np.array([internal for internal, _ in selected], dtype=np.int64)
        chosen = np.zeros(max_internal + 1, dtype=bool)
        chosen[selected_ids] = True
        for field_name, _, ids, scores, scorer in field_results:
            key = f"bm25_{field_name}"
            mask = chosen[ids]
            terms, statistics = plan[field_name]
            per_term = scorer.term_contributions(terms, selected_ids, statistics)
            for internal, score in zip(ids[mask].tolist(), scores[mask].tolist()):
                breakdown = per_field.setdefault(internal, {})
                breakdown[key] = score
                for term, contribution in per_term[internal].items():
                    breakdown[f"{key}:{term}"] = contribution
    return [
        RetrievedChunk(
            record=index.record(internal), score=score, components=per_field.get(internal, {})
        )
        for internal, score in selected
    ]


def vector_legs(
    index, query_vector, k: int, filters=None, explain: bool = False
) -> dict[str, list[RetrievedChunk]]:
    rankings = {}
    for field_name in index.schema.vector_fields:
        fetch = k if not filters else 4 * k
        hits = index.vector_search(field_name, query_vector, fetch)
        key = f"cosine_{field_name}"
        ranking = []
        for internal, distance in hits:
            if not index.matches_filters(internal, filters):
                continue
            similarity = 1.0 - distance
            ranking.append(
                RetrievedChunk(
                    record=index.record(internal),
                    score=similarity,
                    components={key: similarity} if explain else {},
                )
            )
            if len(ranking) >= k:
                break
        rankings[field_name] = ranking
    return rankings


def rrf(rankings, c: float, top_n=None, explain: bool = False) -> list[RetrievedChunk]:
    fused_scores: dict[str, float] = {}
    components: dict[str, dict[str, float]] = {}
    payload: dict[str, RetrievedChunk] = {}
    for name, ranking in rankings.items():
        rrf_key = f"rrf_{name}"
        for position, result in enumerate(ranking, start=1):
            chunk_id = result.record.chunk_id
            contribution = 1.0 / (position + c)
            fused_scores[chunk_id] = fused_scores.get(chunk_id, 0.0) + contribution
            payload.setdefault(chunk_id, result)
            if not explain:
                continue
            merged = components.setdefault(chunk_id, {})
            for key, value in result.components.items():
                if key.startswith("rrf_") or key == "rerank_adjust":
                    continue
                merged.setdefault(key, value)
            merged[rrf_key] = contribution
    ordered = sorted(fused_scores.items(), key=lambda pair: (-pair[1], pair[0]))
    if top_n is not None:
        ordered = ordered[:top_n]
    return [
        RetrievedChunk(
            record=payload[chunk_id].record,
            score=score,
            components=components.get(chunk_id, {}),
        )
        for chunk_id, score in ordered
    ]


def hash_noise(query: str, chunk_id: str) -> float:
    digest = hashlib.blake2b(f"{query}\x00{chunk_id}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2**63 - 1.0


def _cosine(a: dict[str, float], b: dict[str, float]) -> float:
    if not a or not b:
        return 0.0
    norm_a = 0.0
    for weight in a.values():
        norm_a += weight * weight
    norm_b = 0.0
    for weight in b.values():
        norm_b += weight * weight
    dot = 0.0
    for concept_id, weight in a.items():
        if concept_id in b:
            dot += weight * b[concept_id]
    norm_a, norm_b = norm_a ** 0.5, norm_b ** 0.5
    return dot / (norm_a * norm_b) if norm_a and norm_b else 0.0


def rerank_score(reranker, query: str, record: ChunkRecord) -> float:
    """The reranker's per-candidate formula over raw texts."""
    lexicon, analyzer = reranker._lexicon, reranker._analyzer
    query_concepts = lexicon.concepts_in_text(query)
    terms = analyzer.analyze_unique(query)
    title_agreement = _cosine(query_concepts, lexicon.concepts_in_text(record.title))
    content_agreement = _cosine(query_concepts, lexicon.concepts_in_text(record.content))
    if terms:
        lexical = len(terms & analyzer.analyze_unique(record.content)) / len(terms)
    else:
        lexical = 0.0
    blended = (
        reranker._title_weight * title_agreement
        + reranker._content_weight * content_agreement
        + reranker._lexical_weight * lexical
    )
    score = reranker._max_score * min(max(blended, 0.0), 1.0)
    return max(0.0, score + reranker._noise * hash_noise(query, record.chunk_id))


def rerank(reranker, query: str, results, explain: bool) -> list[RetrievedChunk]:
    rescored = []
    for result in results:
        reranker_score = rerank_score(reranker, query, result.record)
        components = {}
        if explain:
            components = dict(result.components)
            components["rerank_adjust"] = reranker_score
        rescored.append(
            RetrievedChunk(
                record=result.record, score=result.score + reranker_score, components=components
            )
        )
    rescored.sort(key=lambda r: (-r.score, r.record.chunk_id))
    return rescored


def tail(query: str, rankings, config, reranker, explain: bool) -> list[RetrievedChunk]:
    fused = rrf(rankings, c=config.rrf_c, top_n=config.final_n, explain=explain)
    if config.use_reranker and reranker is not None:
        fused = rerank(reranker, query, fused, explain)
    return fused[: config.final_n]


def _legs(index, query: str, query_vector, config, filters, explain, profile, plan=None):
    rankings = {}
    if config.mode in ("hybrid", "text"):
        rankings["text"] = text_leg(
            index, query, config.text_n, filters, explain, plan=plan, profile=profile
        )
    if config.mode in ("hybrid", "vector"):
        for field_name, ranking in vector_legs(
            index, query_vector, config.vector_k, filters, explain
        ).items():
            rankings[f"vector_{field_name}"] = ranking
    return rankings


def hybrid_search(searcher, query: str, filters=None, explain: bool = False):
    """``HybridSemanticSearch.search`` as a list pipeline."""
    index, config = searcher.index, searcher.config
    rankings = _legs(
        index, query, index.embedder.embed(query), config, filters, explain,
        searcher._fulltext._profile,
    )
    return tail(query, rankings, config, searcher._reranker, explain)


def fused_vector_search(searcher, query_text: str, query_vector, filters=None, explain=False):
    """``HybridSemanticSearch.search_fused_vector`` as a list pipeline."""
    index, config = searcher.index, searcher.config
    rankings = _legs(
        index, query_text, query_vector, config, filters, explain, searcher._fulltext._profile
    )
    return tail(query_text, rankings, config, searcher._reranker, explain)


def multi_search(searcher, queries: list[str], filters=None, explain: bool = False):
    """``HybridSemanticSearch.search_multi`` as a list pipeline."""
    if not queries:
        return []
    per_query = {
        f"q{i}": hybrid_search(searcher, query, filters, explain)
        for i, query in enumerate(queries)
    }
    config = searcher.config
    return rrf(per_query, c=config.rrf_c, top_n=config.final_n, explain=explain)


def ranked(candidates, limit: int, ordinal) -> list[RetrievedChunk]:
    scores = Counter(result.score for result in candidates)

    def key(result):
        tied = scores[result.score] > 1
        return -result.score, ordinal(result.record.chunk_id) if tied else 0

    candidates.sort(key=key)
    return candidates[:limit]


def attribute_shard(results, shard_id: int) -> list[RetrievedChunk]:
    tagged = []
    for result in results:
        components = dict(result.components)
        components["shard"] = float(shard_id)
        tagged.append(
            RetrievedChunk(record=result.record, score=result.score, components=components)
        )
    return tagged


def cluster_search(router, query: str, answered, filters=None, explain: bool = False):
    """``ClusterSearcher.search`` as a list pipeline over the shards in
    *answered* (the ids whose probe succeeded), in shard order."""
    index, config = router.index, router.config
    query_vector = index.embedder.embed(query)
    plan = FullTextSearch(index.search_view(index.shard_ids[0])).plan(query)
    text_candidates: list[RetrievedChunk] = []
    vector_candidates: dict[str, list[RetrievedChunk]] = {
        name: [] for name in index.schema.vector_fields
    }
    for shard_id in index.shard_ids:
        if shard_id not in answered:
            continue
        profile = router._fulltext[shard_id]._profile
        leg_text = text_leg(
            index.search_view(shard_id), query, config.text_n, filters, explain, plan, profile
        )
        leg_vector = vector_legs(
            index.shard_index(shard_id), query_vector, config.vector_k, filters, explain
        )
        if explain:
            leg_text = attribute_shard(leg_text, shard_id)
            leg_vector = {name: attribute_shard(leg, shard_id) for name, leg in leg_vector.items()}
        text_candidates.extend(leg_text)
        for name, leg in leg_vector.items():
            vector_candidates[name].extend(leg)
    rankings = {"text": ranked(text_candidates, config.text_n, index.ordinal)}
    for name, candidates in vector_candidates.items():
        rankings[f"vector_{name}"] = ranked(candidates, config.vector_k, index.ordinal)
    return tail(query, rankings, config, router._reranker, explain)
