"""Differential gate: sealing segments changes nothing observable.

There is one full-text layout (sealed segments + write buffer) and one
serving scorer (the vectorized kernels).  The reference the layout is held
to is the same code with sealing switched off: the segment module's
``FLUSH_THRESHOLD`` patched to ``NEVER_SEALED`` for the build keeps every document in the write buffer,
i.e. one plain :class:`~repro.search.inverted.InvertedIndex` per field.
The acceptance bar between the two points is **byte identity** (``==``,
never ``approx``), plain and 3-shard:

* same rendered answer pages, response times and traces;
* same explain reports, down to the per-term BM25 bits;
* same dashboard.

The ``/metrics`` exposition is left out: the sealing side legitimately
counts seal operations the never-sealed side does not perform.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.api import (
    CACHE_BYPASS,
    AskOptions,
    AskRequest,
    create_backend,
    create_engine,
)
from repro.cluster.config import ClusterConfig
from repro.core.config import UniAskConfig
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon
from repro.obs.trace import RequestContext
from repro.search import segment
from repro.search.fulltext import FullTextSearch
from repro.service.frontend import render_answer_page
from repro.service.monitoring import format_dashboard

QUESTIONS = (
    "come sbloccare la carta di credito",
    "bonifico estero commissioni",
    "limiti prelievo bancomat",
    "Qual e la ricetta della carbonara?",
)

#: Forces several sealed segments plus a partial write buffer on this corpus.
SEALING = 16
#: A flush threshold no corpus reaches: the buffer is the whole index.
NEVER_SEALED = 10**9


@pytest.fixture(scope="module")
def tiny_kb():
    return KbGenerator(KbGeneratorConfig(num_topics=10, error_families=2, seed=31)).generate()


@pytest.fixture(scope="module")
def banking_lexicon():
    return build_banking_lexicon()


def build(tiny_kb, banking_lexicon, flush_threshold: int, shards: int = 1):
    config = UniAskConfig(cluster=ClusterConfig(shards=shards))
    # Only the build writes, so the threshold needs to hold only while it runs.
    with mock.patch.object(segment, "FLUSH_THRESHOLD", flush_threshold):
        system = create_engine(tiny_kb.store(), banking_lexicon, config=config, seed=31)
    backend = create_backend(system, tracing=True)
    return system, backend


def serve_surface(backend, explain: bool = False) -> str:
    """Every output surface of a fixed workload, as one comparable blob.

    Plain requests are scored by the kernels, ``explain`` ones by the
    per-term loop — the two readers of a segmented field view.
    """
    token = backend.login("diff-user")
    lines = []
    for question in QUESTIONS:
        record = backend.serve(token, AskRequest(question, AskOptions(explain=explain)))
        lines.append(render_answer_page(record.answer))
        lines.append(f"response_time={record.answer.response_time!r}")
        lines.append(f"served_at={record.served_at!r}")
        lines.append(record.trace.format_table())
    lines.append(format_dashboard(backend.metrics.snapshot()))
    return "\n".join(lines)


def explain_surface(system) -> str:
    """The explain reports of the workload, serialized bit-for-bit."""
    reports = []
    for question in QUESTIONS:
        request = AskRequest.of(question, explain=True, cache=CACHE_BYPASS)
        report = system.engine.answer(request).answer.explain_report
        assert report is not None
        assert report.sums_exact
        reports.append(report.to_json())
    return "\n".join(reports)


class TestSegmentAxis:
    """Sealing vs never-sealed: identical surfaces, maintenance counters aside."""

    def test_layouts_under_test_differ(self, tiny_kb, banking_lexicon):
        sealing, _ = build(tiny_kb, banking_lexicon, SEALING)
        buffered, _ = build(tiny_kb, banking_lexicon, NEVER_SEALED)
        assert sealing.index.segment_count > 1 and sealing.index.buffered_count > 0
        assert buffered.index.segment_count == 0
        assert buffered.index.buffered_count == len(buffered.index)

    @pytest.mark.parametrize("explain", [True, False], ids=["loop", "kernel"])
    def test_surface_identical_sans_metrics(self, tiny_kb, banking_lexicon, explain):
        buffered = serve_surface(build(tiny_kb, banking_lexicon, NEVER_SEALED)[1], explain)
        sealing = serve_surface(build(tiny_kb, banking_lexicon, SEALING)[1], explain)
        assert sealing == buffered

    def test_sharded_surface_identical_sans_metrics(self, tiny_kb, banking_lexicon):
        buffered = serve_surface(build(tiny_kb, banking_lexicon, NEVER_SEALED, shards=3)[1])
        sealing = serve_surface(build(tiny_kb, banking_lexicon, SEALING, shards=3)[1])
        assert sealing == buffered


class TestExplainBitExactness:
    def test_explain_reports_identical_across_grid(self, tiny_kb, banking_lexicon):
        # The grid is layout × deployment; identity holds along the layout axis.
        for shards in (1, 3):
            buffered, _ = build(tiny_kb, banking_lexicon, NEVER_SEALED, shards=shards)
            sealing, _ = build(tiny_kb, banking_lexicon, SEALING, shards=shards)
            baseline = explain_surface(buffered)
            assert baseline
            assert explain_surface(sealing) == baseline, f"explain diverged at {shards} shard(s)"

    @pytest.mark.parametrize(
        "flush_threshold", [SEALING, NEVER_SEALED], ids=["sealing", "buffered"]
    )
    def test_explain_totals_equal_served_scores(self, tiny_kb, banking_lexicon, flush_threshold):
        # The explain request also builds the per-field and per-term
        # components; a plain one builds none: same chunks, same order,
        # same score bits, and each explained score is its fields' sum.
        system, _ = build(tiny_kb, banking_lexicon, flush_threshold)
        search = FullTextSearch(system.index)
        titles = [system.index.record(i).title for i in system.index.live_internals()[::6]]
        hits = 0
        for question in (*QUESTIONS, *titles):
            served = search.search(question, n=20).fetch()
            explained = search.search(question, n=20, ctx=RequestContext(explain=True)).fetch()
            hits += len(served)
            assert [(c.record.chunk_id, c.score) for c in explained] == [
                (c.record.chunk_id, c.score) for c in served
            ]
            for plain, detailed in zip(served, explained):
                assert plain.components == {}
                fields = [v for k, v in detailed.components.items() if ":" not in k]
                assert sum(fields) == detailed.score
        assert hits > 20


class TestDefaultsAreOn:
    def test_default_config_runs_kernels_on_segments(self, tiny_kb, banking_lexicon):
        system = create_engine(tiny_kb.store(), banking_lexicon, config=UniAskConfig(), seed=31)
        # Whatever the default threshold leaves sealed or buffered, the field
        # view the scorer reads covers every live chunk and is kernel-scorable.
        assert system.index.segment_count > 0 or system.index.buffered_count > 0
        view = system.index.inverted_index("content")
        assert len(view) == len(system.index)
        assert view.kernel_views()
