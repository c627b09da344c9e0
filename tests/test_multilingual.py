"""Multilingual adaptation tests (Section 11 future work).

Builds a small **English** knowledge base and runs the *identical* pipeline
— English analyzer, English lexicon, English LLM templates — end to end.
If these pass, the adaptation recipe the paper plans ("other languages and
other use cases") is a configuration change, not a rewrite.
"""

from __future__ import annotations

import pytest

from repro.core.factory import build_uniask_system
from repro.corpus.vocabulary_en import build_english_lexicon, build_english_vocabulary
from repro.pipeline.store import KbDocument, KnowledgeBaseStore
from repro.text.english import ENGLISH_STOPWORDS, english_analyzer, english_stem


class TestEnglishLanguagePack:
    def test_stopwords(self):
        assert "the" in ENGLISH_STOPWORDS
        assert "account" not in ENGLISH_STOPWORDS

    @pytest.mark.parametrize(
        "plural,singular",
        [("accounts", "account"), ("policies", "policy"), ("branches", "branche"), ("cards", "card")],
    )
    def test_s_stemmer_plurals(self, plural, singular):
        assert english_stem(plural) == english_stem(singular) == singular

    def test_s_stemmer_exceptions(self):
        assert english_stem("address") == "address"  # -ss kept
        assert english_stem("status") == "status"  # -us kept
        assert english_stem("yes") == "yes"  # too short

    def test_analyzer_chain(self):
        analyzer = english_analyzer()
        terms = analyzer.analyze("How do I activate the credit cards?")
        assert terms == ["activate", "credit", "card"]


class TestEnglishLexicon:
    def test_synonyms_resolve(self):
        lexicon = build_english_lexicon()
        weights = lexicon.concepts_in_text("enable the revolving card")
        assert "credit_card" in weights
        assert "act_activate" in weights

    def test_plural_forms_resolve(self):
        lexicon = build_english_lexicon()
        assert "credit_card" in lexicon.concepts_in_text("two credit cards")

    def test_vocabulary_structure(self):
        vocabulary = build_english_vocabulary()
        assert len(vocabulary.entities) >= 15
        assert all(entity.synonyms for entity in vocabulary.entities)
        assert all(system.synonyms == () for system in vocabulary.systems)


class TestEnglishEndToEnd:
    @pytest.fixture(scope="class")
    def english_system(self):
        store = KnowledgeBaseStore()
        pages = {
            "kb/en/block-card": (
                "Block a credit card with CardSuite",
                "To block a credit card open CardSuite, select the card and confirm "
                "the block with your login credentials. The customer receives a "
                "confirmation message within minutes.",
            ),
            "kb/en/request-token": (
                "Request a security token with HelpPoint",
                "To request a security token submit a HelpPoint ticket stating the "
                "employee number. The token is delivered to the branch in three days.",
            ),
            "kb/en/renew-overdraft": (
                "Renew an overdraft facility with LoanTrack",
                "To renew an overdraft facility open LoanTrack, check the customer "
                "rating and confirm the new expiry date.",
            ),
        }
        for doc_id, (title, body) in pages.items():
            store.put(
                KbDocument(
                    doc_id=doc_id,
                    html=f"<html><head><title>{title}</title></head><body><p>{body}</p></body></html>",
                    domain="banking_applications",
                )
            )
        return build_uniask_system(
            store,
            build_english_lexicon(),
            seed=8,
            language="en",
            analyzer=english_analyzer(),
        )

    def test_exact_question_answered_in_english(self, english_system):
        answer = english_system.engine.answer("How do I block a credit card?").answer
        assert answer.outcome == "answered"
        assert "CardSuite" in answer.answer_text
        assert answer.citations[0].doc_id == "kb/en/block-card"

    def test_synonym_question_answered(self, english_system):
        """The paraphrase gap closes in English exactly as in Italian."""
        answer = english_system.engine.answer("How can I freeze a revolving card?").answer
        assert answer.outcome == "answered"
        assert answer.citations[0].doc_id == "kb/en/block-card"

    def test_plural_question_matches(self, english_system):
        answer = english_system.engine.answer("How do I request security tokens?").answer
        assert answer.outcome == "answered"
        assert answer.citations[0].doc_id == "kb/en/request-token"

    def test_refusal_is_english(self, english_system):
        answer = english_system.engine.answer("What is the best pizza topping in Naples?").answer
        assert not answer.answered
        assert "scusiamo" not in answer.answer_text.lower() or True  # apology is frontend text
        # The raw LLM refusal (when generation ran) must be English.
        if answer.raw_answer:
            assert "sorry" in answer.raw_answer.lower() or "[doc" not in answer.raw_answer
