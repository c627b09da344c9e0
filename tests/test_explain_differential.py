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

from repro.api import AskOptions, AskRequest
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
