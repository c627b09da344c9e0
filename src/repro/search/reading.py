"""A chunk's reading: what the answer path derives from its text, made once.

The reranker scores 50 candidates per request and the ROUGE guardrail
compares the answer with each context chunk; both need facts about the
chunk that change only when its text does.  :func:`read_chunk` derives them
— :meth:`SearchIndex.add_chunk <repro.search.index.SearchIndex.add_chunk>`
calls it when the chunk is written — and memoises the result *on the
record*, so the reading travels wherever the record does (shard merge,
retrieval cache, :class:`~repro.search.results.RetrievedChunk`) and dies
with it.  It is not a dataclass field (``ChunkRecord._reading``): ``==``,
``hash``, ``dataclasses.asdict`` and ``dataclasses.replace`` never see it,
so an edited copy of a record starts unread.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable

from repro.embeddings.concepts import ConceptFingerprint, ConceptLexicon
from repro.search.schema import ChunkRecord
from repro.text.analyzer import FULL_ANALYZER, ItalianAnalyzer
from repro.text.similarity import rouge_tokens
from repro.text.tokenizer import count_tokens


@dataclass(slots=True, eq=False)
class ChunkReading:
    """What scoring needs of one chunk version.

    The meaning half (fingerprints and distinct terms) is current for the
    ``lexicon`` at ``version`` and the ``analyzer`` it was read under;
    ``rouge_tokens`` and ``token_count`` depend on the content alone and are
    filled on first use, because only the few chunks that reach an LLM
    context need them.
    """

    lexicon: ConceptLexicon | None = None  # None: no meaning read yet
    version: int = -1
    analyzer: ItalianAnalyzer = FULL_ANALYZER
    title_fingerprint: ConceptFingerprint | None = None
    content_fingerprint: ConceptFingerprint | None = None
    content_terms: dict[str, None] | None = None  # keys: distinct, first-seen order
    rouge_tokens: list[str] | None = None
    token_count: int | None = None


def read_chunk(
    record: ChunkRecord,
    lexicon: ConceptLexicon | None = None,
    analyzer: ItalianAnalyzer = FULL_ANALYZER,
    content_terms: Iterable[str] | None = None,
) -> ChunkReading:
    """The reading of *record*, its meaning half current for *lexicon*.

    Built on first use and again when stale — the lexicon grew
    (``lexicon.version`` moved) or another lexicon or analyzer reads the
    record — so a caller never scores from a stale reading.  With no
    *lexicon* the reading is returned as it stands (the ROUGE tokens need
    none).  *content_terms* hands over the analysed terms of
    ``record.content`` when the caller already has them (the index has just
    counted them into its postings), sparing the tokenizer pass.
    """
    reading = record._reading
    if reading is None:
        # Past the frozen dataclass's __setattr__, as a plain attribute:
        # going through ``record.__dict__`` would materialise the dict and
        # make every later ``record.<field>`` load four times slower.
        reading = ChunkReading()
        object.__setattr__(record, "_reading", reading)
    if lexicon is None or (
        reading.lexicon is lexicon
        and reading.version == lexicon.version
        and (reading.analyzer is analyzer or reading.analyzer == analyzer)
    ):
        return reading
    if content_terms is None:
        content_terms = analyzer.analyze(record.content)
    reading.title_fingerprint = lexicon.fingerprint(record.title)
    reading.content_fingerprint = lexicon.fingerprint(record.content)
    # The distinct terms as the keys of a dict: an insertion-ordered set at
    # 18-38 bytes a term where a set's hash table takes 35-100, probed by the
    # few query terms (``query_terms & terms.keys()``).  Interned, so chunks
    # share the strings.
    reading.content_terms = dict.fromkeys(map(sys.intern, content_terms))
    reading.analyzer = analyzer
    reading.version = lexicon.version
    reading.lexicon = lexicon
    return reading


def unread_chunk(record: ChunkRecord, analyzer: ItalianAnalyzer) -> Iterable[str] | None:
    """Drop *record*'s reading; its distinct content terms if read under *analyzer*.

    For the index when it tombstones a chunk: nothing scores a dead chunk,
    so its reading need not wait for the vacuum that drops the record, and
    the terms are what the tombstone would otherwise re-analyze the content
    for (they do not depend on the lexicon, so a reading the lexicon has
    outgrown still answers).  None when there is nothing to hand over.
    """
    reading = record._reading
    if reading is None:
        return None
    object.__delattr__(record, "_reading")
    if reading.lexicon is None or reading.analyzer != analyzer:
        return None
    return reading.content_terms


def rouge_tokens_of(record: ChunkRecord) -> list[str]:
    """The ROUGE-L token list of *record*'s content, kept on its reading."""
    reading = read_chunk(record)
    if reading.rouge_tokens is None:
        reading.rouge_tokens = rouge_tokens(record.content)
    return reading.rouge_tokens


def token_count_of(record: ChunkRecord) -> int:
    """``count_tokens(record.content)``, kept on its reading."""
    reading = read_chunk(record)
    if reading.token_count is None:
        reading.token_count = count_tokens(record.content)
    return reading.token_count
