"""Differential guarantees of the explain + quality observability layer.

Mirrors the cache differential suite: explain and quality monitoring are
strictly additive overlays.

1. **Explain off ⇒ byte-identical behaviour.**  A deployment that never
   asks for explain produces exactly the surfaces it produced before the
   explain pipeline existed — and ``AskOptions()`` equals an explicit
   ``AskOptions(explain=False)``.
2. **Explain on ⇒ same answers, same clock.**  Asking for explain changes
   *nothing* about the ranking, the answer text, the trace or the modeled
   response time — it only attaches a report.
3. **No monitor ⇒ no instruments.**  A deployment without a quality
   monitor or canary runner exposes none of their metrics.
"""

from __future__ import annotations

import pytest

from repro.api import AskOptions, AskRequest
from repro.obs.trace import RequestContext
from repro.service.frontend import render_answer_page
from tests.differential import QUESTIONS, build, serve_surface

EXPLAIN = AskOptions(explain=True)


class TestExplainOffByteIdentity:
    def test_default_options_match_explicit_off(self, tiny_kb, banking_lexicon):
        default = serve_surface(*build(tiny_kb, banking_lexicon))
        explicit = serve_surface(
            *build(tiny_kb, banking_lexicon), options=AskOptions(explain=False)
        )
        assert default == explicit

    def test_explain_changes_nothing_but_the_report(self, tiny_kb, banking_lexicon):
        plain = serve_surface(*build(tiny_kb, banking_lexicon))
        explained = serve_surface(*build(tiny_kb, banking_lexicon), options=EXPLAIN)
        # The report rides on the answer object; every serialized surface —
        # answer pages, response times, traces, dashboard, /metrics — is
        # byte-identical.
        assert plain == explained

    def test_sharded_surfaces_identical(self, tiny_kb, banking_lexicon):
        plain = serve_surface(*build(tiny_kb, banking_lexicon, shards=3))
        explained = serve_surface(*build(tiny_kb, banking_lexicon, shards=3), options=EXPLAIN)
        assert plain == explained

    def test_no_quality_instruments_without_a_monitor(self, tiny_kb, banking_lexicon):
        system, backend = build(tiny_kb, banking_lexicon)
        serve_surface(system, backend)
        exposition = system.telemetry.render_metrics()
        assert "uniask_quality_" not in exposition
        assert "uniask_canary_" not in exposition

    def test_components_never_render_on_plain_answers(self, tiny_kb, banking_lexicon):
        system, _ = build(tiny_kb, banking_lexicon)
        answer = system.engine.answer(AskRequest(QUESTIONS[0])).answer
        assert answer.explain_report is None
        page = render_answer_page(answer)
        assert "rrf_" not in page and "rerank_adjust" not in page


def _ranking(results):
    return [(result.record.chunk_id, result.score.hex()) for result in results]


class TestPlainRequestsBuildNoProvenance:
    """Only an explain request builds score provenance; both rank the same."""

    @pytest.mark.parametrize("shards", [1, 3])
    def test_plain_and_explain_rank_alike(self, tiny_kb, banking_lexicon, shards):
        searcher = build(tiny_kb, banking_lexicon, shards=shards)[0].searcher
        for question in QUESTIONS:
            for search in (searcher.search, searcher.search_degraded):
                plain = search(question, ctx=RequestContext())
                explained = search(question, ctx=RequestContext(explain=True))
                assert _ranking(plain) == _ranking(explained), (shards, question)
                assert all(result.components == {} for result in plain)
                assert all(result.components for result in explained)

    def test_search_multi(self, tiny_kb, banking_lexicon):
        searcher = build(tiny_kb, banking_lexicon)[0].searcher
        queries = [*QUESTIONS[:3], QUESTIONS[0]]
        plain = searcher.search_multi(queries, ctx=RequestContext())
        explained = searcher.search_multi(queries, ctx=RequestContext(explain=True))
        assert plain and _ranking(plain) == _ranking(explained)
        assert all(result.components == {} for result in plain)
        assert all(
            {"rrf_q0", "rrf_q1", "rrf_q2", "rrf_q3"} & result.components.keys()
            for result in explained
        )
