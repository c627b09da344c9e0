"""Vector search executor.

The vector half of Hybrid Search (Section 4): the query is embedded once and
the K approximate nearest chunks are fetched *per vector field* (UniAsk
indexes separate title and content embeddings), producing one ranking per
field.  Each ranking is fused separately by RRF downstream, matching Azure
AI Search's multi-vector hybrid behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.obs import spans
from repro.obs.trace import NULL_CONTEXT, RequestContext
from repro.search.index import SearchIndex
from repro.search.results import Heads


class VectorSearch:
    """ANN search over the vector fields of a :class:`SearchIndex`."""

    def __init__(self, index: SearchIndex, vector_fields: tuple[str, ...] | None = None) -> None:
        self._index = index
        self._fields = vector_fields or index.schema.vector_fields

    def search(
        self,
        query: str,
        k: int = 15,
        filters: dict[str, str] | None = None,
        ctx: RequestContext = NULL_CONTEXT,
    ) -> dict[str, Heads]:
        """Per-field rankings (heads) of the *k* nearest chunks to *query*.

        Returns a mapping ``vector_field -> ranking``; similarity is
        ``1 - cosine distance`` so that larger scores are better, consistent
        with the BM25 ranking direction.  Only an explain request's fetch
        gets it as a component too (``cosine_<field>``).
        """
        with ctx.trace.span(spans.STAGE_EMBED_QUERY, query_chars=len(query)):
            query_vector = self._index.embedder.embed(query)
        return self.search_by_vector(query_vector, k, filters, ctx=ctx)

    def search_by_vector(
        self,
        query_vector,
        k: int = 15,
        filters: dict[str, str] | None = None,
        ctx: RequestContext = NULL_CONTEXT,
    ) -> dict[str, Heads]:
        """Same as :meth:`search` but with a pre-computed query embedding.

        Used by the MQ2 query-expansion variant (Table 3), which averages
        the embeddings of several generated queries.
        """
        rankings: dict[str, Heads] = {}
        for field_name in self._fields:
            with ctx.span(spans.vector_stage(field_name), k=k) as span:
                ranking = self._search_field(field_name, query_vector, k, filters, ctx)
                span.set("results", len(ranking))
            rankings[field_name] = ranking
        return rankings

    def _search_field(
        self,
        field_name: str,
        query_vector,
        k: int,
        filters: dict[str, str] | None,
        ctx: RequestContext,
    ) -> Heads:
        # Oversample so that post-hoc filtering can still fill k results.
        fetch = k if not filters else 4 * k
        hits = self._index.vector_search(field_name, query_vector, fetch, work=ctx.work)
        ids: list[int] = []
        similarities: list[float] = []
        for internal, distance in hits:
            if self._index.matches_filters(internal, filters):
                ids.append(internal)
                similarities.append(1.0 - distance)
                if len(ids) >= k:
                    break

        def provenance(keys: list[int]) -> dict[int, dict[str, float]]:
            key, by_id = f"cosine_{field_name}", dict(zip(ids, similarities))
            return {internal: {key: by_id[internal]} for internal in keys}

        ids_array, explain = np.array(ids, dtype=np.int64), provenance if ctx.explain else None
        return Heads(ids_array, np.array(similarities), self._index, None, explain)
