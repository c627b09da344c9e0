"""Benchmark-side tracing: timing wrappers around each layer's public call.

Nothing in ``src/`` changes: :class:`Tracer` swaps a class (or module)
attribute for a wrapper that records a span, and puts the original back in
:meth:`Tracer.remove`.  A span is ``[layer, start, end, parent, op]``:
*parent* is the index of the span that was open when it started (-1 for a
root) and *op* identifies the timed operation (one ``serve`` or one
``refresh``) it belongs to, so the spans of one request share an id.

A layer's **self time** is its span's duration minus the time its child
spans cover; summed over an operation's spans it equals the root span's
duration, so per-layer rows add up to the traced latency.
"""

from __future__ import annotations

import functools
import time
from typing import Callable

#: Span field positions.
NAME, START, END, PARENT, OP = range(5)

#: ``op`` of spans recorded outside any timed operation (output checks).
NO_OP = -1

_MISSING = object()


class Tracer:
    """Installs and removes timing wrappers; owns the recorded spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Per-layer ``{op: [calls, seconds]}`` of wrappers that accumulate
        #: instead of recording a span per call (very hot functions).
        self.busy: dict[str, dict[int, list]] = {}
        #: Per-layer integer counts taken from calls inside timed operations.
        self.counts: dict[str, int] = {}
        #: Identifier stamped on spans; the harness sets it around each op.
        self.op: int = NO_OP
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    def wrap_span(
        self,
        owner: object,
        attribute: str,
        layer: str,
        count: Callable[[tuple, object], int] | None = None,
    ) -> None:
        """Record one span per call of ``owner.attribute`` under *layer*.

        *count*, when given, maps the call's ``(args, result)`` to an
        integer added to ``counts[layer]`` (e.g. candidates per rerank).
        """
        original = getattr(owner, attribute)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None and self.op != NO_OP:
                counts[layer] = counts.get(layer, 0) + count(args, result)
            return result

        self._patch(owner, attribute, wrapper)

    def wrap_busy(self, owner: object, attribute: str, layer: str) -> None:
        """Accumulate calls and busy seconds of ``owner.attribute`` per
        operation; no spans."""
        original = getattr(owner, attribute)
        cells = self.busy.setdefault(layer, {})
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                ended = clock()
                cell = cells.get(self.op)
                if cell is None:
                    cell = cells[self.op] = [0, 0.0]
                cell[0] += 1
                cell[1] += ended - started

        self._patch(owner, attribute, wrapper)

    def _patch(self, owner: object, attribute: str, wrapper: object) -> None:
        # ``__dict__`` lookup keeps staticmethod/classmethod descriptors and
        # tells an inherited attribute (restore by deleting) from an own one.
        own = vars(owner).get(attribute, _MISSING)
        self._patched.append((owner, attribute, own))
        setattr(owner, attribute, wrapper)

    def remove(self) -> None:
        """Put every original attribute back, in reverse order."""
        while self._patched:
            owner, attribute, own = self._patched.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    @property
    def installed(self) -> int:
        """How many attributes are currently wrapped."""
        return len(self._patched)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public call of every UniAsk layer the benchmark reports."""
    import repro.pipeline.indexing as indexing_module
    from repro.ann.hnsw import HnswIndex
    from repro.cache.answer_cache import AnswerCache
    from repro.cluster.router import ClusterSearcher
    from repro.core.engine import UniAskEngine
    from repro.embeddings.cache import CachingEmbedder
    from repro.guardrails.pipeline import GuardrailPipeline
    from repro.htmlproc.chunking import HtmlParagraphChunker
    from repro.llm.content_filter import ContentFilter
    from repro.llm.simulated import SimulatedChatLLM
    from repro.pipeline.indexing import IndexingService
    from repro.pipeline.ingestion import IngestionService
    from repro.search.fulltext import FullTextSearch
    from repro.search.hybrid import HybridSemanticSearch
    from repro.search.index import SearchIndex
    from repro.search.reranker import SemanticReranker
    from repro.search.vector import VectorSearch
    from repro.service.backend import BackendService
    from repro.text.analyzer import ItalianAnalyzer

    span = tracer.wrap_span
    span(BackendService, "serve", "backend")
    span(UniAskEngine, "answer", "engine")
    span(ContentFilter, "check", "content_filter")
    span(AnswerCache, "lookup", "cache.lookup")
    span(AnswerCache, "store", "cache.store")
    span(HybridSemanticSearch, "search", "hybrid")
    span(ClusterSearcher, "search", "router")
    span(FullTextSearch, "search", "fulltext")
    span(VectorSearch, "search", "vector")
    # The cluster router embeds the query itself and calls the per-shard
    # vector legs by vector.
    span(VectorSearch, "search_by_vector", "vector")
    span(CachingEmbedder, "embed", "embeddings")
    span(HnswIndex, "search", "hnsw.search")
    span(HnswIndex, "add", "hnsw.add")
    span(SemanticReranker, "rerank", "reranker", count=lambda args, result: len(args[2]))
    span(SimulatedChatLLM, "complete", "llm")
    span(GuardrailPipeline, "run", "guardrails")
    span(IngestionService, "run_due_polls", "ingestion")
    span(IndexingService, "drain", "indexing")
    span(IndexingService, "build_records", "indexing.build_records")
    # ``parse_html`` is imported by name into the indexing module.
    span(indexing_module, "parse_html", "htmlproc")
    span(HtmlParagraphChunker, "chunk_document", "htmlproc")
    # ``add_chunks`` and the sharded index both funnel into ``add_chunk``.
    span(SearchIndex, "add_chunk", "index.add")
    span(SearchIndex, "delete_document", "index.delete")
    span(
        SearchIndex, "run_maintenance", "index.maintenance",
        count=lambda args, result: sum(result.values()),
    )
    # Thousands of calls per request: a span each would cost more than the
    # call, so the analyzer only accumulates.
    tracer.wrap_busy(ItalianAnalyzer, "analyze", "analyzer")


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    result = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            result[parent] -= span[END] - span[START]
    return result


def layer_self_seconds(spans: list[list]) -> tuple[dict[tuple[str, int], float], dict[int, float]]:
    """Per-(layer, op) self seconds and per-op root-span seconds.

    Spans recorded outside a timed operation are skipped.  An operation's
    layer self times add up to its root-span seconds.
    """
    per_layer: dict[tuple[str, int], float] = {}
    per_op_root: dict[int, float] = {}
    for span, own in zip(spans, self_times(spans)):
        op = span[OP]
        if op == NO_OP:
            continue
        key = (span[NAME], op)
        per_layer[key] = per_layer.get(key, 0.0) + own
        if span[PARENT] < 0:
            per_op_root[op] = per_op_root.get(op, 0.0) + span[END] - span[START]
    return per_layer, per_op_root
