"""Service-layer wiring of explain observability.

The backend exposes an authorized ``explain`` ops route: score provenance
by query id or for a fresh question.
"""

from __future__ import annotations

import pytest

from repro.api import AskOptions, AskRequest, create_backend, create_engine
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon
from repro.service.backend import ROLE_OPS, AuthorizationError


@pytest.fixture(scope="module")
def tiny_kb():
    return KbGenerator(KbGeneratorConfig(num_topics=12, error_families=2, seed=29)).generate()


@pytest.fixture(scope="module")
def banking_lexicon():
    return build_banking_lexicon()


def build_backend(tiny_kb, banking_lexicon):
    system = create_engine(tiny_kb.store(), banking_lexicon, seed=29)
    backend = create_backend(system, tracing=True)
    return system, backend


class TestExplainRoute:
    def test_stored_record_report_by_query_id(self, tiny_kb, banking_lexicon):
        _, backend = build_backend(tiny_kb, banking_lexicon)
        token = backend.login("emp")
        ops = backend.login("sre", role=ROLE_OPS)
        record = backend.serve(
            token, AskRequest("limiti prelievo bancomat", AskOptions(explain=True))
        )
        report = backend.ops("explain", ops, query_id=record.query_id)
        assert report is record.answer.explain_report
        assert report.sums_exact

    def test_plain_record_has_no_stored_report(self, tiny_kb, banking_lexicon):
        _, backend = build_backend(tiny_kb, banking_lexicon)
        token = backend.login("emp")
        ops = backend.login("sre", role=ROLE_OPS)
        record = backend.serve(token, "limiti prelievo bancomat")
        assert backend.ops("explain", ops, query_id=record.query_id) is None

    def test_fresh_question_explain(self, tiny_kb, banking_lexicon):
        _, backend = build_backend(tiny_kb, banking_lexicon)
        ops = backend.login("sre", role=ROLE_OPS)
        report = backend.ops("explain", ops, question="bonifico estero commissioni")
        assert report is not None
        assert report.sums_exact
        # The ad-hoc explain never counts as served traffic.
        assert backend.served_queries == 0

    def test_requires_ops_role_and_an_argument(self, tiny_kb, banking_lexicon):
        _, backend = build_backend(tiny_kb, banking_lexicon)
        employee = backend.login("emp")
        ops = backend.login("sre", role=ROLE_OPS)
        with pytest.raises(AuthorizationError):
            backend.ops("explain", employee, question="x")
        with pytest.raises(ValueError):
            backend.ops("explain", ops)
