"""A chunk is read once — and the reranker still scores what it always did.

A chunk's fingerprints, distinct terms and ROUGE tokens are its *reading*
(``repro.search.reading``): made when the index writes the chunk, memoised
on the ``ChunkRecord``, read by the reranker and the ROUGE guardrail.  These
tests pin the three things that design must not break:

* **scores**: the reading path is ``==`` the naive per-candidate formula
  written here against raw ``concepts_in_text`` / ``analyze_unique``;
* **invalidation**: an edited chunk and a grown lexicon never serve a stale
  reading, a reading is reachable only from its record, and neither
  ``dataclasses.replace`` nor a save → load round trip carries one along;
* **work**: a warm ask tokenizes no context chunk (the LLM stand-in keeps
  its read of each passage), a cold stand-in each once, and the reranker and
  guardrails no chunk text at all; scores are the same floats in every
  process.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.text.tokenizer as tokenizer_module
from repro.api import ClusterConfig, UniAskConfig, create_backend, create_engine
from repro.core.factory import build_uniask_system
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon
from repro.embeddings.concepts import Concept, ConceptLexicon
from repro.embeddings.model import SyntheticAdaEmbedder
from repro.guardrails.pipeline import GuardrailPipeline
from repro.guardrails.rouge import RougeGuardrail
from repro.obs.trace import RequestContext
from repro.search.index import SearchIndex
from repro.search.persistence import load_index, save_index
from repro.search.reading import ChunkReading, read_chunk, unread_chunk
from repro.search.reranker import SemanticReranker
from repro.search.results import Heads, RetrievedChunk
from repro.search.schema import ChunkRecord
from repro.text.analyzer import FULL_ANALYZER
from repro.text.similarity import rouge_l_score
from repro.text.tokenizer import count_tokens

SRC = Path(__file__).resolve().parents[1] / "src"

# The constructor defaults of SemanticReranker, restated so the oracle does
# not read them back from the object under test.
MAX_SCORE, TITLE_W, CONTENT_W, LEXICAL_W, NOISE = 4.0, 0.35, 0.45, 0.30, 0.35


def _hash_noise(query: str, chunk_id: str) -> float:
    """Deterministic pseudo-noise in [-1, 1) keyed on the (query, chunk) pair."""
    digest = hashlib.blake2b(f"{query}\x00{chunk_id}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2**63 - 1.0


def _naive_cosine(lexicon: ConceptLexicon, a: str, b: str) -> float:
    weights_a = lexicon.concepts_in_text(a)
    weights_b = lexicon.concepts_in_text(b)
    if not weights_a or not weights_b:
        return 0.0
    norm_a = sum(w * w for w in weights_a.values()) ** 0.5
    norm_b = sum(w * w for w in weights_b.values()) ** 0.5
    dot = sum(weights_a[cid] * weights_b[cid] for cid in weights_a if cid in weights_b)
    return dot / (norm_a * norm_b) if norm_a and norm_b else 0.0


def naive_score(lexicon: ConceptLexicon, query: str, record: ChunkRecord) -> float:
    """The reranker formula, re-analyzing every text for every candidate."""
    query_terms = FULL_ANALYZER.analyze_unique(query)
    if query_terms:
        lexical = len(query_terms & FULL_ANALYZER.analyze_unique(record.content)) / len(query_terms)
    else:
        lexical = 0.0
    total = TITLE_W + CONTENT_W + LEXICAL_W
    blended = (
        TITLE_W / total * _naive_cosine(lexicon, query, record.title)
        + CONTENT_W / total * _naive_cosine(lexicon, query, record.content)
        + LEXICAL_W / total * lexical
    )
    score = MAX_SCORE * min(max(blended, 0.0), 1.0)
    return max(0.0, score + NOISE * _hash_noise(query, record.chunk_id))


def _chunk(chunk_id: str = "doc#0", title: str = "", content: str = "") -> ChunkRecord:
    return ChunkRecord(chunk_id=chunk_id, doc_id=chunk_id.split("#")[0], title=title, content=content)


def _result(record: ChunkRecord) -> RetrievedChunk:
    return RetrievedChunk(record=record, score=0.0)


def _candidates(records: list[ChunkRecord]) -> Heads:
    """*records* as a fused ranking of zero scores, already fetched."""
    n = len(records)
    return Heads(np.arange(n, dtype=np.int64), np.zeros(n), None, tuple(records))


@pytest.fixture(scope="module")
def kb_records(system) -> list[ChunkRecord]:
    return [system.index.record(internal) for internal in system.index.live_internals()]


@pytest.fixture(scope="module")
def questions(human_queries, keyword_queries) -> list[str]:
    return [q.text for q in human_queries] + [q.text for q in keyword_queries[0]]


@pytest.fixture(scope="module")
def shared_reranker(lexicon) -> SemanticReranker:
    """One instance across all hypothesis examples; the KB records were read
    when the ``system`` fixture indexed them."""
    return SemanticReranker(lexicon)


class TestScoreOracle:
    @given(st.integers(min_value=0), st.integers(min_value=0))
    @settings(max_examples=300, deadline=None)
    def test_feature_path_equals_naive_formula(
        self, shared_reranker, lexicon, kb_records, questions, record_index, question_index
    ):
        record = kb_records[record_index % len(kb_records)]
        question = questions[question_index % len(questions)]
        assert shared_reranker.score(question, _result(record)) == naive_score(
            lexicon, question, record
        )

    def test_rerank_adds_the_same_scores_score_returns(self, lexicon, kb_records, questions):
        reranker = SemanticReranker(lexicon)
        candidates = _candidates(kb_records[:30])
        for question in questions[:10]:
            reranked = reranker.rerank(question, candidates, ctx=RequestContext(explain=True))
            assert {r.record.chunk_id: r.components["rerank_adjust"] for r in reranked.fetch()} == {
                record.chunk_id: naive_score(lexicon, question, record) for record in kb_records[:30]
            }

    @pytest.mark.parametrize(
        "query, title, content",
        [
            ("", "Bloccare la carta di credito", "Per bloccare la carta chiamare il numero verde."),
            ("il lo la di", "Bloccare la carta di credito", "Per bloccare la carta chiamare."),
            ("bloccare la carta", "", "Per bloccare la carta di credito chiamare il numero verde."),
            ("bloccare la carta", "Ricetta", "Sbattere le uova con il pecorino e il pepe."),
            ("xyzzy frobnicate", "Bloccare la carta di credito", "Per bloccare la carta chiamare."),
            ("bloccare la carta", "", ""),
        ],
        ids=[
            "empty-query",
            "stopwords-only-query",
            "empty-title",
            "chunk-without-concepts",
            "query-without-concepts",
            "empty-chunk",
        ],
    )
    def test_degenerate_inputs(self, lexicon, query, title, content):
        record = _chunk(title=title, content=content)
        reranker = SemanticReranker(lexicon)
        first = reranker.score(query, _result(record))
        assert first == naive_score(lexicon, query, record)
        assert reranker.score(query, _result(record)) == first


class TestFeatureInvalidation:
    def test_edited_content_then_title_score_like_a_fresh_reranker(self, lexicon):
        query = "come bloccare la carta di credito"
        reranker = SemanticReranker(lexicon)
        record = _chunk(
            title="Bloccare la carta di credito",
            content="Per bloccare la carta di credito chiamare il numero verde.",
        )
        reranker.score(query, _result(record))

        edited = replace(record, content="Il bonifico estero si dispone dal portale pagamenti.")
        assert reranker.score(query, _result(edited)) == SemanticReranker(lexicon).score(
            query, _result(replace(edited))
        )
        retitled = replace(edited, title="Disporre un bonifico estero")
        assert reranker.score(query, _result(retitled)) == SemanticReranker(lexicon).score(
            query, _result(replace(retitled))
        )
        assert reranker.score(query, _result(retitled)) == naive_score(lexicon, query, retitled)

    def test_lexicon_add_drops_cached_features(self):
        lexicon = ConceptLexicon([Concept("carta", "carta di credito")])
        reranker = SemanticReranker(lexicon, noise=0.0)
        record = _chunk(title="Rinnovo", content="Il badge aziendale si rinnova a BadgePoint.")
        query = "rinnovare il tesserino"
        before = reranker.score(query, _result(record))

        version = lexicon.version
        lexicon.add(Concept("badge", "badge aziendale", ("tesserino",)))
        assert lexicon.version == version + 1
        after = reranker.score(query, _result(record))
        assert after == SemanticReranker(lexicon, noise=0.0).score(query, _result(record))
        assert after > before

    def test_lexicon_add_between_two_searches_rescoring_is_the_naive_formula(self):
        """End to end: the readings the index made are stale after ``add``,
        and the next search scores every candidate under the grown lexicon."""
        lexicon = build_banking_lexicon()  # not the session's: this test grows it
        kb = KbGenerator(KbGeneratorConfig(num_topics=6, error_families=1, seed=2)).generate()
        system = build_uniask_system(kb.store(), lexicon, seed=2)
        topic = next(iter(kb.topics.values()))
        question = f"Come posso {topic.action.canonical} {topic.entity.canonical}?"
        explain = RequestContext(explain=True)
        before = {
            r.record.chunk_id: r.components["rerank_adjust"]
            for r in system.searcher.search(question, ctx=explain)
        }

        lexicon.add(Concept("posso", "posso", (topic.entity.canonical.split()[0],)))
        after = system.searcher.search(question, ctx=explain)
        assert {r.record.chunk_id: r.components["rerank_adjust"] for r in after} != before
        for result in after:
            assert result.components["rerank_adjust"] == naive_score(
                lexicon, question, result.record
            )
            assert result.record._reading.version == lexicon.version

    def test_a_reading_made_under_another_lexicon_or_analyzer_is_remade(self):
        """Two lexicons at the same ``version`` are still two lexicons."""
        record = _chunk(title="Rinnovo", content="Il badge aziendale si rinnova a BadgePoint.")
        query = "rinnovare il badge"
        first = ConceptLexicon([Concept("carta", "carta di credito")])
        second = ConceptLexicon([Concept("badge", "badge aziendale")])
        assert first.version == second.version
        read_chunk(record, first)
        assert SemanticReranker(second).score(query, _result(record)) == naive_score(
            second, query, record
        )
        unstemmed = replace(FULL_ANALYZER, apply_stemming=False)
        assert list(read_chunk(record, second, unstemmed).content_terms) == list(
            dict.fromkeys(unstemmed.analyze(record.content))
        )
        assert list(read_chunk(record, second).content_terms) == list(
            dict.fromkeys(FULL_ANALYZER.analyze(record.content))
        )

    def test_deleted_chunk_gives_up_its_reading(self, lexicon):
        kb = KbGenerator(KbGeneratorConfig(num_topics=6, error_families=1, seed=2)).generate()
        store = kb.store()
        system = build_uniask_system(store, lexicon, seed=2)
        topic = next(iter(kb.topics.values()))
        question = f"Come posso {topic.action.canonical} {topic.entity.canonical}?"
        hits = system.searcher.search(question)
        doomed = hits[0].record.doc_id
        # Made by the index when it wrote the chunks: this is the memo, not a new read.
        doomed_readings = [
            hit.record._reading for hit in hits if hit.record.doc_id == doomed
        ]
        assert all(reading.lexicon is lexicon for reading in doomed_readings)
        assert any(obj is doomed_readings[0] for obj in _reachable_from(system.searcher))
        del hits

        store.delete(doomed, deleted_at=system.clock.now() + 1)
        system.clock.advance(900)
        system.refresh()
        assert all(hit.record.doc_id != doomed for hit in system.searcher.search(question))
        # No cache of readings exists beside the records: a tombstoned chunk
        # gives its reading up at once, the live ones keep theirs.
        reachable = _reachable_from(system.searcher)
        assert not any(obj is reading for obj in reachable for reading in doomed_readings)
        live = sum(isinstance(obj, ChunkReading) for obj in reachable)
        assert live == len(system.index) > 0

    def test_replace_and_save_load_carry_no_reading_and_records_json_is_the_fields(
        self, tmp_path
    ):
        lexicon = ConceptLexicon([Concept("carta", "carta di credito", ("tessera",))])
        embedder = SyntheticAdaEmbedder(lexicon, dim=16, seed=1)
        index = SearchIndex(embedder=embedder, ann_backend="exact")
        records = [
            _chunk("d0#0", "Blocco carta", "Per bloccare la carta di credito chiamare."),
            _chunk("d1#0", "Bonifico estero", "Il bonifico estero si dispone dal portale."),
        ]
        bare = [replace(record) for record in records]
        index.add_chunks(records)
        assert all(record._reading is not None for record in records)

        # A copy with any field changed — or none — starts unread, and
        # equality, hashing and asdict never saw the reading.
        edited = replace(records[0], content="La tessera si blocca in filiale.")
        assert edited._reading is None and replace(records[0])._reading is None
        assert records == bare and hash(records[0]) == hash(bare[0])
        assert asdict(records[0]) == asdict(bare[0])

        # records.json holds the dataclass fields and nothing else.
        save_index(index, tmp_path / "saved")
        unread = SearchIndex(embedder=SyntheticAdaEmbedder(None, dim=16, seed=1), ann_backend="exact")
        unread.add_chunks(bare)
        assert all(record._reading is None for record in bare)
        save_index(unread, tmp_path / "unread")
        saved, unread_saved = (
            json.loads((tmp_path / name / "records.json").read_bytes())
            for name in ("saved", "unread")
        )
        # The two embedders differ, so only the vector file's length and
        # digest may.
        del saved["vectors"], unread_saved["vectors"]
        assert saved == unread_saved
        assert saved["records"] == [asdict(record) | {
            "keywords": [], "llm_keywords": []} for record in bare]

        # Loaded under a lexicon that has grown since the save, the records
        # are read under it: nothing stale came through the files.
        lexicon.add(Concept("bonifico", "bonifico estero", ("giro",)))
        loaded = load_index(tmp_path / "saved", embedder, ann_backend="exact")
        query = "disporre un giro"
        for internal in loaded.live_internals():
            record = loaded.record(internal)
            assert record._reading.version == lexicon.version
            assert SemanticReranker(lexicon).score(query, _result(record)) == naive_score(
                lexicon, query, record
            )


class TestRougeFromTheReading:
    def test_similarity_is_rouge_l_of_the_texts_bit_for_bit(self, kb_records):
        guardrail = RougeGuardrail()
        context = [_result(record) for record in kb_records[:12]]
        answers = [
            "Per bloccare la carta di credito chiamare il numero verde [doc1].",
            kb_records[3].content[:160],
            "",
            "Sbattere le uova con il pecorino.",
        ]
        for answer in answers:
            for _ in range(2):  # the second round compares against kept tokens
                assert guardrail.similarity(answer, context).hex() == max(
                    rouge_l_score(answer, result.record.content).fmeasure for result in context
                ).hex()

    def test_a_bare_record_is_read_on_first_use_and_tokens_survive_a_lexicon_change(self):
        lexicon = ConceptLexicon([Concept("carta", "carta di credito")])
        record = _chunk(title="Blocco", content="La carta di credito si blocca al numero verde.")
        answer = "La carta si blocca al numero verde [doc1]."
        expected = rouge_l_score(answer, record.content).fmeasure
        assert RougeGuardrail().similarity(answer, [_result(record)]) == expected
        tokens = record._reading.rouge_tokens
        SemanticReranker(lexicon).score("bloccare la carta", _result(record))
        lexicon.add(Concept("numero", "numero verde"))
        SemanticReranker(lexicon).score("bloccare la carta", _result(record))
        assert record._reading.rouge_tokens is tokens
        assert RougeGuardrail().similarity(answer, [_result(record)]) == expected


class TestTokenCountFromTheReading:
    """The backend's latency model counts a context chunk's tokens from its
    reading: the same total as ``count_tokens`` over the contents."""

    @pytest.mark.parametrize("shards", (1, 3))
    def test_the_latency_model_counts_every_context_token(self, tiny_kb, banking_lexicon, shards):
        system = create_engine(
            tiny_kb.store(), banking_lexicon,
            config=UniAskConfig(cluster=ClusterConfig(shards=shards)), seed=5,
        )
        # One simulated second per token and no jitter: the response time is the total.
        backend = create_backend(
            system, base_latency=0.0, seconds_per_kilo_token=1000.0, latency_jitter=0.0
        )
        token = backend.login("tokens")

        def check(question, context, raw_answer):
            answer = SimpleNamespace(context=context, raw_answer=raw_answer)
            expected = count_tokens(question) + count_tokens(raw_answer) + sum(
                count_tokens(chunk.record.content) for chunk in context
            )
            for _ in range(2):  # counted, then from the reading
                assert backend._model_response_time(question, answer) == expected

        questions = [generated.key_sentence for generated in tiny_kb.documents[:6]]
        for question in questions:
            answer = backend.serve(token, question).answer
            assert answer.context
            check(question, answer.context, answer.raw_answer)
            for chunk in answer.context:
                assert chunk.record._reading.token_count == count_tokens(chunk.record.content)

        chunk = answer.context[0]
        edited = replace(chunk, record=replace(chunk.record, content=chunk.record.content + " Vedi ERR-9999."))
        assert edited.record._reading is None  # an edited record starts unread
        check(question, [edited, *answer.context[1:]], answer.raw_answer)
        assert edited.record._reading.token_count > chunk.record._reading.token_count

        unread_chunk(chunk.record, FULL_ANALYZER)
        assert chunk.record._reading is None
        check(question, answer.context, answer.raw_answer)


def _reachable_from(root: object) -> list[object]:
    seen: dict[int, object] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


_SCORE_MATRIX_SCRIPT = """
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset
from repro.corpus.vocabulary import build_banking_lexicon
from repro.embeddings.concepts import concept_overlap
from repro.htmlproc.chunking import HtmlParagraphChunker
from repro.htmlproc.parser import parse_html
from repro.search.reranker import SemanticReranker
from repro.search.results import RetrievedChunk
from repro.search.schema import ChunkRecord

kb = KbGenerator(KbGeneratorConfig(num_topics=30, error_families=2, seed=7)).generate()
lexicon = build_banking_lexicon()
records = []
for generated in kb.documents:
    parsed = parse_html(generated.document.html)
    for chunk in HtmlParagraphChunker().chunk_document(parsed):
        records.append(ChunkRecord(f"{generated.doc_id}#{chunk.index}", generated.doc_id,
                                   parsed.title, chunk.text))
records = records[:60]
questions = [q.text for q in generate_human_dataset(kb, HumanDatasetConfig(num_questions=40, seed=5))]
reranker = SemanticReranker(lexicon)
print(repr([
    [(reranker.score(q, RetrievedChunk(r, 0.0)), concept_overlap(lexicon, q, r.content).score)
     for r in records]
    for q in questions
]))
"""


def test_scores_are_the_same_floats_under_any_string_hash_seed():
    """A set-intersection dot product summed in hash order moved the last ulp."""
    matrices = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", _SCORE_MATRIX_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        matrices.append(done.stdout)
    assert len(matrices[0]) > 40 * 60 * 10
    assert matrices[0] == matrices[1]


#: Tokenizer passes a warm ask makes over its question (three full-text
#: fields, the embedder, the reranker's fingerprint and term set, the LLM's
#: fingerprint and identifiers, and spare) and over its answer.
QUESTION_PASSES = 10
ANSWER_PASSES = 3


def test_the_llm_tokenizes_a_context_passage_on_its_first_read_only(
    small_kb, lexicon, human_queries, keyword_queries, monkeypatch
):
    """The character gate: what an ask tokenizes, and who tokenizes it.

    The LLM stand-in keeps what it read of each context passage, so a warm
    ask tokenizes no passage; a fresh stand-in reads each once for meaning,
    and once more for identifiers only when the question carries one.  The
    reranker and the guardrails tokenize the question and the answer, never
    a chunk.  (Before readings an ask tokenized its four context chunks 3.4
    times; before the stand-in kept its reads, once per ask.)
    """
    from repro.llm.simulated import SimulatedChatLLM, _identifier_tokens
    from repro.text.tokenizer import sentence_split

    system = build_uniask_system(small_kb.store(), lexicon, seed=3)
    backend = create_backend(system)
    token = backend.login("work-count")
    asked = list(
        dict.fromkeys(
            [q.text for q in human_queries][:20] + [q.text for q in keyword_queries[0]][:20]
        )
    )
    assert any(_identifier_tokens(question) for question in asked)
    for question in asked:  # warm: ROUGE tokens are kept from a chunk's first context
        backend.serve(token, question)

    scope = ["ask"]
    tokenized: list[tuple[str, str]] = []
    guarded: list[str] = []
    original_tokenize = tokenizer_module.word_tokenize
    original_rerank = SemanticReranker.rerank
    original_run = GuardrailPipeline.run

    def counting_tokenize(text):
        tokenized.append((scope[-1], text))
        return original_tokenize(text)

    def scoped_rerank(self, query, results, ctx=None):
        scope.append("rerank")
        try:
            return original_rerank(self, query, results, ctx=ctx)
        finally:
            scope.pop()

    def scoped_run(self, question, answer, context, ctx=None):
        scope.append("guardrails")
        guarded.append(answer)
        try:
            return original_run(self, question, answer, context, ctx=ctx)
        finally:
            scope.pop()

    # ``word_tokenize`` is imported by name: wrap it wherever it landed.
    patched = 0
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "word_tokenize", None) is original_tokenize:
            monkeypatch.setattr(module, "word_tokenize", counting_tokenize)
            patched += 1
    assert patched >= 3  # the tokenizer itself, the analyzer, the LLM stand-in
    monkeypatch.setattr(SemanticReranker, "rerank", scoped_rerank)
    monkeypatch.setattr(GuardrailPipeline, "run", scoped_run)

    for cold in (False, True):
        for question in asked:
            if cold:
                monkeypatch.setattr(system.engine, "_llm", SimulatedChatLLM(lexicon, seed=3))
            tokenized.clear()
            guarded.clear()
            answer = backend.serve(token, question).answer
            assert answer.context and guarded
            context_chars = sum(len(c.record.title) + len(c.record.content) for c in answer.context)
            reads = (2 if _identifier_tokens(question) else 1) if cold else 0
            total = sum(len(text) for _, text in tokenized)
            assert total <= (
                QUESTION_PASSES * len(question) + ANSWER_PASSES * len(guarded[0])
                + reads * context_chars
            ), (cold, question)
            if cold:
                assert total >= context_chars  # the fresh stand-in's one read was counted
            else:
                passages = {c.record.title for c in answer.context} | {
                    text for c in answer.context for text in sentence_split(c.record.content)
                }
                assert not passages & {text for _, text in tokenized}, question
            for where, text in tokenized:
                if where == "rerank":
                    assert text.lower() == question.lower()
                elif where == "guardrails":
                    assert text == guarded[0]
