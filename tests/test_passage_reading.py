"""The stand-in's passage table in array form (``repro.llm.simulated``).

A table entry keeps each sentence as a ``(start, end)`` span into the
passage's content, not as a string, and every part's concept weights in
two packed arrays.  These tests hold the spans to the splitter whose
sentences they stand for and an entry to its byte budget; ``tests/test_llm_simulated.py`` holds every
answer and every relevance float to the two-pass reference reader.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.vocabulary import build_banking_lexicon
from repro.llm.prompts import ContextDocument, build_answer_prompt
from repro.llm.simulated import SimulatedChatLLM
from repro.text.tokenizer import sentence_split

READER = SimulatedChatLLM(build_banking_lexicon())


def _spans(content: str) -> list[tuple[int, int]]:
    """The ``(start, end)`` spans a table entry keeps for *content*."""
    passage = READER._read_passage("", content, False)
    flat = passage.ints[: 2 * passage.sentences].tolist()
    return list(zip(flat[0::2], flat[1::2]))


def _sentences(content: str) -> list[str]:
    """The sentences a table entry's spans give back."""
    return [content[start:end] for start, end in _spans(content)]


HOSTILE = (
    "",
    " \t ",
    "\n\n\n",
    "  Prima frase. Seconda frase.  ",
    "\n\nRiga uno\n\n\nRiga due\n",
    "Davvero?! Sì!!! 3 volte... Ancora?? E poi.",
    "!?!? A !? b ?! C",
    "\t Titolo \n  corpo con spazi  \n\t",
    "Fine.\n",
    ". . .",
    "a. b. C. d",
    "Frase\r\nseguente.\x0b Altra\x1c riga",
    "È fatto.  À posto. Ö 7 giorni.  Oltre",
    "Ripetuto. Ripetuto. Ripetuto.",
)


@pytest.mark.parametrize("text", HOSTILE)
def test_spans_reproduce_the_splitter_on_hostile_texts(text):
    spans = _spans(text)
    assert _sentences(text) == sentence_split(text)
    assert all(a < b <= c for (a, b), (c, _) in zip(spans, spans[1:]))


def test_spans_reproduce_the_splitter_on_the_corpus(system):
    index = system.index
    records = [index.record(internal) for internal in index.live_internals()]
    assert len(records) > 100
    for record in records:
        for text in (record.title, record.content):
            assert _sentences(text) == sentence_split(text)


@given(
    st.lists(
        st.sampled_from(
            ["Frase", "uno", "Due", "7", "È", ".", "!", "?", " ", "  ", "\n", "\n\n", "\t", " ", "a"]
        ),
        max_size=30,
    ).map("".join)
)
@settings(max_examples=300, deadline=None)
def test_spans_reproduce_the_splitter_on_generated_texts(text):
    spans = _spans(text)
    assert _sentences(text) == sentence_split(text)
    assert all(a < b <= c for (a, b), (c, _) in zip(spans, spans[1:]))


#: Bytes one table entry may hold, its ``(title, content)`` key included,
#: before and after an identifier question fills its identifier sets.  The
#: sentence strings, concept-stream lists and fingerprint dict the table kept
#: before took 6.7 and 8.5 KB an entry on this corpus; the arrays take 3.0 and
#: 4.7.
BUDGETS = (
    ("Come posso bloccare la carta di credito?", 3_600),
    ("Cosa indica ERR-1003 su CreditFlow?", 5_400),
)


@pytest.mark.parametrize("question, budget", BUDGETS)
def test_a_table_entry_stays_within_its_byte_budget(system, question, budget):
    """``tracemalloc`` over a stand-in answering from every chunk of the
    small corpus, four a prompt: what clearing the table gives back, per
    entry; after an identifier question, with every identifier set filled."""
    index = system.index
    records = [index.record(internal) for internal in index.live_internals()]
    prompts = [
        build_answer_prompt(
            question,
            [
                ContextDocument(f"doc{n}", record.title, record.content)
                for n, record in enumerate(records[first : first + 4], start=1)
            ],
        )
        for first in range(0, len(records), 4)
    ]
    llm = SimulatedChatLLM(system.lexicon, seed=3)
    gc.collect()
    tracemalloc.start()
    try:
        for prompt in prompts:
            llm.complete(prompt)
        entries = len(llm._passages)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        llm._passages.clear()
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert entries == len({(record.title, record.content) for record in records})
    assert held / entries <= budget
