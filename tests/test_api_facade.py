"""The stable ``repro.api`` facade.

The facade is the supported surface: typed request/response dataclasses,
the two deployment builders, and re-exported configuration types.  The
legacy positional shims (``engine.ask``, ``backend.query``) are gone; a
bare question string is promoted by ``engine.answer`` / ``backend.serve``.
The "nothing left behind" property that replaced the two
``_last_scatter`` cases lives in ``tests/test_request_path.py``.
"""

from __future__ import annotations

import pytest

from repro.api import AskOptions, AskRequest, AskResponse
from repro.service.backend import BackendService


class TestFacadeSurface:
    def test_every_export_resolves(self):
        import repro.api as api

        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_dir_matches_all(self):
        import repro.api as api

        assert set(api.__all__) <= set(dir(api))

    def test_top_level_reexports(self):
        import repro

        for name in (
            "AskOptions",
            "AskRequest",
            "AskResponse",
            "CacheConfig",
            "create_backend",
            "create_engine",
        ):
            assert hasattr(repro, name), name

    def test_lazy_config_exports_are_the_real_types(self):
        import repro.api as api
        from repro.core.config import UniAskConfig
        from repro.core.factory import UniAskSystem

        assert api.UniAskConfig is UniAskConfig
        assert api.UniAskSystem is UniAskSystem

    def test_options_reject_unknown_cache_policy(self):
        with pytest.raises(ValueError):
            AskOptions(cache="sometimes")

    def test_request_of_shorthand(self):
        request = AskRequest.of("ciao", trace=True, filters={"domain": "carte"})
        assert request.question == "ciao"
        assert request.options.trace
        assert request.options.filters == {"domain": "carte"}

    def test_response_properties_mirror_the_answer(self, system, small_kb):
        topic = next(iter(small_kb.topics.values()))
        question = f"Come posso {topic.action.canonical} {topic.entity.canonical}?"
        response = system.engine.answer(question)
        assert isinstance(response, AskResponse)
        assert response.text == response.answer.answer_text
        assert response.outcome == response.answer.outcome
        assert response.answered == response.answer.answered
        assert response.citations == response.answer.citations
        assert response.documents == response.answer.documents
        assert response.cache_hit == response.answer.cache_hit == ""
        assert response.request.question == question

    def test_string_request_is_promoted(self, system):
        by_string = system.engine.answer("limiti prelievo bancomat")
        assert by_string.request == AskRequest(question="limiti prelievo bancomat")


class TestDeprecatedShims:
    """The PR-4 shims (``engine.ask`` / ``backend.query``) are deleted.

    The test ids are kept from when the shims warned; each case now pins
    what the shim promised on the canonical entry point that replaced it.
    """

    def test_engine_ask_warns(self, system):
        # No warning left to give: the shim is gone, not silently aliased.
        with pytest.raises(AttributeError):
            system.engine.ask("limiti prelievo bancomat")

    def test_engine_ask_matches_answer(self, system, small_kb):
        # The shim's call style — a bare string — is what answer() promotes.
        topic = next(iter(small_kb.topics.values()))
        question = f"Come posso {topic.action.canonical} {topic.entity.canonical}?"
        system.llm.reseed(0)
        bare = system.engine.answer(question).answer
        system.llm.reseed(0)
        typed = system.engine.answer(AskRequest.of(question)).answer
        assert bare == typed

    def test_backend_query_warns_and_matches_serve(self, system, small_kb):
        topic = next(iter(small_kb.topics.values()))
        question = f"Come posso {topic.action.canonical} {topic.entity.canonical}?"

        def serve_with(request):
            backend = BackendService(system.engine, system.clock)
            token = backend.login("shim-user")
            system.llm.reseed(0)
            return backend.serve(token, request)

        assert not hasattr(BackendService, "query")
        bare = serve_with(question)
        typed = serve_with(AskRequest.of(question))
        assert bare.answer == typed.answer
        assert bare.question == typed.question

    def test_query_filters_become_options(self, system):
        backend = BackendService(system.engine, system.clock)
        token = backend.login("shim-user")
        record = backend.serve(
            token, AskRequest.of("bonifico estero", filters={"domain": "no-such"})
        )
        assert record.answer.documents == ()
