"""Each word is normalised once (PR 17): oracle, work counts, bounds.

:class:`~repro.text.analyzer.ItalianAnalyzer` keeps a per-instance table
from raw surface token to index term, :class:`ConceptLexicon` one from
analysed word to concept entries and :class:`SyntheticAdaEmbedder` one from
analysed word to vector.  The tables are caches in the strict sense — no
output may depend on what they hold — so every test here compares against
:mod:`tests.reference_analyzer` (the per-occurrence chain, verbatim) cold,
warm and across a clear, and the work tests count what the tables save.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.embeddings.model as model_module
import repro.text.analyzer as analyzer_module
from repro.api import create_backend
from repro.core.factory import build_uniask_system
from repro.embeddings.concepts import Concept, ConceptLexicon
from repro.embeddings.model import SyntheticAdaEmbedder
from repro.text.analyzer import (
    FULL_ANALYZER,
    MAX_TABLED_CHARS,
    SURFACE_ANALYZER,
    ItalianAnalyzer,
)
from repro.text.english import english_analyzer
from repro.text.stemmer import stem
from repro.text.tokenizer import word_tokenize
from tests import reference_analyzer as reference

SMALL_CAP = 8

#: One analyzer per way the configuration changes the word → term mapping.
ANALYZERS = {
    "full": FULL_ANALYZER,
    "surface": SURFACE_ANALYZER,
    "lexicon_unstemmed": ItalianAnalyzer(remove_stopwords=True, apply_stemming=False),
    "english": english_analyzer(),
    "extra_stopwords": ItalianAnalyzer(extra_stopwords=frozenset(["banca", "carta"])),
    "empty_stem": ItalianAnalyzer(stem_fn=lambda word: ""),
}

# Case, accented vowels, elisions that split (l', dell', quest') and that do
# not (quant'altro, a trailing po'), codes as typed and lower-cased, numbers
# with separators, stop words of both languages, characters the token regex
# does not cover, and a word too long to be tabled.
FRAGMENTS = [
    "l'estratto", "L'Estratto", "dell'anno", "DELL'ANNO", "quest'anno", "Quest'Ultimo",
    "quant'altro", "un po'", "po'", "d'", "'", "E'", "ERR-4821", "err-4821", "PRC-07",
    "1.000,50", "1.000,50.", "2024", "3,14", "città", "CITTÀ", "Città", "perché", "più",
    "è", "bonifico", "Bonifici", "BONIFICO", "banche", "luoghi", "banca", "carta", "carte",
    "il", "Il", "la", "non", "di", "the", "The", "policies", "cards", "status",
    "conto—corrente", "c/c", "λόγος", "œuvre", "naïve", "ß", "€", "🙏", "İstanbul",
    "x" * (MAX_TABLED_CHARS + 1), "X" * (MAX_TABLED_CHARS + 1), "a" * MAX_TABLED_CHARS,
]
_ALPHABET = "abcilopstuABCDEL àèéìòùÀÈ'’-.,;:/?!0123456789\n\tœλ€"
_PIECE = st.one_of(st.sampled_from(FRAGMENTS), st.text(_ALPHABET, max_size=12))
TEXTS = st.lists(_PIECE, max_size=40).map(" ".join)


def _fresh(analyzer: ItalianAnalyzer) -> ItalianAnalyzer:
    """The same configuration with an empty word table."""
    return dataclasses.replace(analyzer)


def _junk_word(n: int) -> str:
    """A distinct all-letter token per *n* (digits would split it)."""
    letters = []
    while True:
        n, digit = divmod(n, 26)
        letters.append(chr(97 + digit))
        if n == 0:
            return "zq" + "".join(letters) + "x"


def _bits(fingerprint) -> tuple[list[tuple[str, str]], str]:
    """Concept order and the exact bits of every weight and of the norm."""
    return (
        [(cid, weight.hex()) for cid, weight in fingerprint.weights.items()],
        float(fingerprint.norm).hex(),
    )


class TestAnalyzeEqualsTheReference:
    @pytest.mark.parametrize("name", sorted(ANALYZERS))
    @given(texts=st.lists(TEXTS, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_cold_warm_and_across_a_clear(self, name, texts):
        """With a cap of 8 a text of more distinct tokens clears the table
        part-way through; the output is the reference list regardless."""
        analyzer = _fresh(ANALYZERS[name])
        with mock.patch.object(analyzer_module, "WORD_TABLE_CAP", SMALL_CAP):
            for text in texts + texts:
                assert analyzer.analyze(text) == reference.analyze(analyzer, text)
                assert len(analyzer._word_table) <= SMALL_CAP
                assert analyzer.analyze_unique(text) == set(reference.analyze(analyzer, text))

    @pytest.mark.parametrize("name", sorted(ANALYZERS))
    def test_every_fragment_at_the_real_cap(self, name):
        analyzer = _fresh(ANALYZERS[name])
        text = " ".join(FRAGMENTS)
        expected = reference.analyze(analyzer, text)
        assert analyzer.analyze(text) == expected  # cold
        assert analyzer.analyze(text) == expected  # warm
        for fragment in FRAGMENTS:
            assert analyzer.analyze(fragment) == reference.analyze(analyzer, fragment)

    def test_dropped_is_not_empty(self):
        """A stop word is dropped; a stemmer that returns "" still yields it."""
        analyzer = ItalianAnalyzer(stem_fn=lambda word: "")
        for _ in range(2):
            assert analyzer.analyze("il conto della banca") == ["", ""]


class TestTheTableIsStateNotIdentity:
    def test_equality_hash_and_repr_ignore_it(self):
        used, unused = ItalianAnalyzer(), ItalianAnalyzer()
        used.analyze("il conto corrente")
        assert used._word_table and not unused._word_table
        assert used == unused and hash(used) == hash(unused)
        assert repr(used) == repr(unused)
        assert "conto" not in repr(used)

    def test_replace_starts_empty_and_shares_nothing(self):
        analyzer = ItalianAnalyzer()
        analyzer.analyze("bonifici")
        surface = dataclasses.replace(analyzer, apply_stemming=False)
        assert surface._word_table == {}
        assert surface.analyze("bonifici") == ["bonifici"]
        assert analyzer.analyze("bonifici") == [stem("bonifici")]
        assert surface._word_table is not analyzer._word_table

    def test_it_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            ItalianAnalyzer(_word_table={})

    def test_configuration_changes_the_mapping_not_a_shared_table(self):
        text = "la banca centrale"
        plain = ItalianAnalyzer()
        assert plain.analyze(text) == [stem("banca"), stem("centrale")]
        extra = ItalianAnalyzer(extra_stopwords=frozenset(["banca"]))
        assert extra.analyze(text) == [stem("centrale")]
        assert ItalianAnalyzer(stopword_set=frozenset()).analyze(text) == [
            "la", stem("banca"), stem("centrale")
        ]
        assert ItalianAnalyzer(stem_fn=str.upper).analyze(text) == ["BANCA", "CENTRALE"]


class TestWorkPerDistinctWord:
    TEXT = "Bonifici bonifici BONIFICI conto conti conto l'estratto l'estratto il la di " * 20
    # Distinct surface tokens that survive the stop list: the three casings
    # of "bonifici", "conto", "conti", "l'estratto".
    DISTINCT_STEMMED = 6

    def test_a_counting_stem_fn_runs_once_per_distinct_word(self):
        calls = []

        def counting(word):
            calls.append(word)
            return stem(word)

        analyzer = ItalianAnalyzer(stem_fn=counting)
        first = analyzer.analyze(self.TEXT)
        assert len(first) == 8 * 20
        assert len(calls) == self.DISTINCT_STEMMED
        assert analyzer.analyze(self.TEXT) == first
        assert len(calls) == self.DISTINCT_STEMMED

    def test_the_default_chain_runs_on_the_miss_path_only(self, monkeypatch):
        """The module binds ``stem`` by name; ``_split_elision`` and
        ``_is_stopword`` are reached once per distinct surface token and
        never on the second pass."""
        calls = {"stem": 0, "_split_elision": 0, "_is_stopword": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(analyzer_module, "stem", counted("stem", stem))
        for name in ("_split_elision", "_is_stopword"):
            monkeypatch.setattr(
                ItalianAnalyzer, name, counted(name, getattr(ItalianAnalyzer, name))
            )
        analyzer = ItalianAnalyzer()
        first = analyzer.analyze(self.TEXT)
        # The six stemmed tokens plus the stop words "il", "la", "di".
        assert calls == {"stem": 6, "_split_elision": 9, "_is_stopword": 9}
        assert analyzer.analyze(self.TEXT) == first
        assert calls == {"stem": 6, "_split_elision": 9, "_is_stopword": 9}

    def test_the_lexicon_stems_once_per_distinct_analysed_word(self):
        calls = []

        def counting(word):
            calls.append(word)
            return stem(word)

        lexicon = ConceptLexicon(
            [Concept("bonifico", "bonifico"), Concept("conto", "conto corrente")],
            analyzer=ItalianAnalyzer(apply_stemming=False, stem_fn=counting),
        )
        calls.clear()
        first = lexicon.fingerprint(self.TEXT)
        # text.lower() leaves "bonifici", "conto", "conti", "estratto".
        assert sorted(calls) == ["bonifici", "conti", "conto", "estratto"]
        assert _bits(lexicon.fingerprint(self.TEXT)) == _bits(first)
        assert len(calls) == 4


class TestBoundedAndSelfHealing:
    def test_junk_clears_the_table_and_real_words_come_back(self, monkeypatch):
        monkeypatch.setattr(analyzer_module, "WORD_TABLE_CAP", SMALL_CAP)
        analyzer = ItalianAnalyzer()
        question = "Come posso bloccare la carta di credito"
        expected = reference.analyze(analyzer, question)
        assert analyzer.analyze(question) == expected
        for start in range(0, 30 * SMALL_CAP, 5):
            junk = " ".join(_junk_word(n) for n in range(start, start + 5))
            assert analyzer.analyze(junk) == reference.analyze(analyzer, junk)
            assert len(analyzer._word_table) <= SMALL_CAP
        assert "carta" not in analyzer._word_table  # cleared, not frozen
        assert analyzer.analyze(question) == expected
        assert "carta" in analyzer._word_table

    def test_over_long_tokens_are_analysed_but_never_tabled(self):
        analyzer = ItalianAnalyzer()
        long_word = "precipitevolissimevolmente" * 2
        assert len(long_word) > MAX_TABLED_CHARS
        assert analyzer.analyze(f"{long_word} conto") == [stem(long_word), stem("conto")]
        assert list(analyzer._word_table) == ["conto"]

    def test_the_lexicon_table_takes_the_same_bound(self, monkeypatch):
        monkeypatch.setattr(analyzer_module, "WORD_TABLE_CAP", SMALL_CAP)
        lexicon = ConceptLexicon([Concept("bonifico", "bonifico")])
        text = " ".join(_junk_word(n) for n in range(3 * SMALL_CAP)) + " bonifici"
        assert _bits(lexicon.fingerprint(text)) == _bits(reference.fingerprint(lexicon, text))
        assert len(lexicon._word_concepts) <= SMALL_CAP
        assert _bits(lexicon.fingerprint(text)) == _bits(reference.fingerprint(lexicon, text))

    def test_the_embedder_term_cache_is_bounded_in_bytes(self, monkeypatch):
        """2 KB per distinct token forever was a leak: every edit marker and
        every new error code added one."""
        dim, cap = 16, 12
        monkeypatch.setattr(model_module, "_TERM_CACHE_BYTES", cap * dim * 8)
        embedder = SyntheticAdaEmbedder(ConceptLexicon([Concept("bonifico", "bonifico")]), dim=dim)
        before = embedder.embed("bonifico urgente")
        token_before = embedder._token_vector("urgente").copy()
        for n in range(3 * cap):
            embedder.embed(f"marcatore {_junk_word(n)}")
            assert len(embedder._term_cache) <= cap
        assert "urgente" not in embedder._term_cache
        assert np.array_equal(embedder._token_vector("urgente"), token_before)
        assert np.array_equal(embedder.embed("bonifico urgente"), before)

    def test_the_default_embedder_cap_is_sized_from_the_width(self):
        assert SyntheticAdaEmbedder(dim=256)._term_cache_cap == (32 << 20) // 2048
        assert SyntheticAdaEmbedder(dim=1536)._term_cache_cap == (32 << 20) // (1536 * 8)


class TestFingerprintEqualsTheReference:
    @given(texts=st.lists(TEXTS, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_order_and_bits_before_and_after_an_add(self, texts):
        """``add`` may append an entry to a stem some tabled word already
        resolved: "carta" holds one concept before, two after."""
        texts = [text + " carta di credito, bonifici e carte; conto corrente" for text in texts]
        lexicon = ConceptLexicon(
            [
                Concept("bonifico", "bonifico", ("pagamento SEPA",)),
                Concept("carta_credito", "carta di credito", ("carta revolving",)),
                Concept("conto_corrente", "conto corrente", ("c/c",)),
            ]
        )
        with mock.patch.object(analyzer_module, "WORD_TABLE_CAP", SMALL_CAP):
            for text in texts + texts:
                assert _bits(lexicon.fingerprint(text)) == _bits(reference.fingerprint(lexicon, text))
                assert len(lexicon._word_concepts) <= SMALL_CAP
        for text in texts:  # warm the table at the real cap, then extend a tabled stem
            lexicon.fingerprint(text)
        before = dict(lexicon.fingerprint(texts[0]).weights)
        lexicon.add(Concept("carta_debito", "carta di debito", ("bancomat",)))
        for text in texts:
            got = lexicon.fingerprint(text)
            assert _bits(got) == _bits(reference.fingerprint(lexicon, text))
            assert lexicon.concepts_in_text(text) == reference.concepts_in_text(lexicon, text)
        assert "carta_debito" in lexicon.fingerprint(texts[0]).weights
        assert "carta_debito" not in before

    def test_the_banking_lexicon_on_every_fragment(self, lexicon):
        text = " ".join(FRAGMENTS) + " Come posso bloccare la carta di credito? ERR-4821"
        for _ in range(2):
            assert _bits(lexicon.fingerprint(text)) == _bits(reference.fingerprint(lexicon, text))


class TestHostileQuestion:
    def test_ten_thousand_junk_tokens_fail_cleanly_and_change_nothing(
        self, tiny_kb, lexicon, monkeypatch
    ):
        """ROADMAP item 4, "10k-token queries fail cleanly": the question
        overflows every per-word table several times over, gets a clean
        outcome, and the next ordinary question is served as before."""
        cap, dim = 1500, 256
        monkeypatch.setattr(analyzer_module, "WORD_TABLE_CAP", cap)
        monkeypatch.setattr(model_module, "_TERM_CACHE_BYTES", cap * dim * 8)
        system = build_uniask_system(tiny_kb.store(), lexicon, seed=3, embedding_dim=dim)
        backend = create_backend(system)
        token = backend.login("mallory")
        question = "Come posso bloccare la carta di credito?"

        def served(text):
            answer = backend.serve(token, text).answer
            return (
                answer.outcome,
                answer.answer_text,
                [(chunk.record.chunk_id, chunk.score) for chunk in answer.documents],
            )

        before = served(question)
        junk = " ".join(_junk_word(n) for n in range(10_000))
        assert len(set(word_tokenize(junk))) == 10_000
        outcome, _, _ = served(junk)
        assert outcome in ("guardrail_citation", "guardrail_rouge", "no_results", "answered")

        embedder = system.index.embedder._inner
        tables = {
            "index analyzer": system.index.analyzer._word_table,
            "surface analyzer": SURFACE_ANALYZER._word_table,
            "lexicon analyzer": lexicon._analyzer._word_table,
            "lexicon concepts": lexicon._word_concepts,
            "embedder analyzer": embedder._analyzer._word_table,
            "embedder vectors": embedder._term_cache,
        }
        assert embedder._term_cache_cap == cap
        for name, table in tables.items():
            assert len(table) <= cap, name
        assert served(question) == before
