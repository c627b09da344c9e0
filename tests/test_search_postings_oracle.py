"""CSR postings kernels against the dict-built reference, term by term.

A :class:`~repro.search.kernels.KernelPostings` holds one ``term -> row``
dict, one ``starts`` list and four arrays per field and segment;
:func:`~repro.search.segment.seal_buffer` builds it from the write buffer
and :func:`~repro.search.segment.merge_segments` folds victims as array
passes.  The reference (:mod:`tests.reference_kernels`) is the two-arrays-
per-term layout with its thaw-and-refreeze merge.  Every kernel either path
makes must hold the same members, lengths and terms, and per term the same
slots and ``tfs`` bits — over random texts and live masks, all-dead
victims, terms that only dead documents held, and empty buffers.

Rows are numbered in order of first appearance, never by iterating a set,
so a merged segment's arrays do not depend on the string hash seed; CI
runs this file under two ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search import segment
from repro.search.inverted import InvertedIndex
from repro.search.kernels import KernelPostings
from repro.search.segment import SegmentedTextStore, merge_segments, seal_buffer
from repro.text.analyzer import FULL_ANALYZER
from tests.reference_kernels import (
    ReferenceKernelPostings,
    assert_kernel_equals,
    reference_merge,
)

SRC = Path(__file__).resolve().parents[1] / "src"
FIELDS = ("title", "content")
WORDS = ("carta", "bonifico", "prelievo", "conto", "estero", "limite", "blocco", "mutuo", "rata")


def reference_postings(texts: dict[int, str]):
    """``(doc_lengths, postings)`` of *texts*, analyzed here, not by the index."""
    lengths: dict[int, int] = {}
    postings: dict[str, dict[int, int]] = {}
    for doc, text in texts.items():
        terms = FULL_ANALYZER.analyze(text)
        lengths[doc] = len(terms)
        for term, tf in Counter(terms).items():
            postings.setdefault(term, {})[doc] = tf
    return lengths, postings


def reference_build(docs: dict[int, dict[str, str]], name: str) -> ReferenceKernelPostings:
    return ReferenceKernelPostings.build(
        *reference_postings({doc: texts[name] for doc, texts in docs.items()})
    )


def buffers_of(docs: dict[int, dict[str, str]], backwards: bool = False):
    """Write buffers holding *docs*, added in id order or *backwards*."""
    buffers = {name: InvertedIndex(FULL_ANALYZER) for name in FIELDS}
    for doc, texts in sorted(docs.items(), reverse=backwards):
        for name, buffer in buffers.items():
            buffer.add(doc, texts[name])
    return buffers


def tombstone(sealed, doc: int, texts: dict[str, str]) -> None:
    assert sealed.tombstone(doc, {name: FULL_ANALYZER.analyze(texts[name]) for name in FIELDS})


def first_appearance(kernels, held) -> list[str]:
    """Terms in order of first appearance over *kernels*, those in *held*."""
    order = dict.fromkeys(chain.from_iterable(kernel.rows for kernel in kernels))
    return [term for term in order if term in held]


_text = st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join)
#: (title, content, stays live) per document; a segment of none is an empty buffer.
_segments = st.lists(
    st.lists(st.tuples(_text, _text, st.booleans()), max_size=6), min_size=1, max_size=4
)


@settings(max_examples=150, deadline=None)
@given(_segments)
def test_seal_and_merge_equal_the_reference(segments):
    sealed, references, next_doc = [], [], 0
    for number, members in enumerate(segments):
        docs = {}
        for title, content, _ in members:
            docs[next_doc] = {"title": title, "content": content}
            next_doc += 1
        buffers = buffers_of(docs, backwards=number % 2 == 1)
        made = seal_buffer(number, buffers)
        if not docs:
            assert made is None
            continue
        expected = {name: reference_build(docs, name) for name in FIELDS}
        for name in FIELDS:
            kernel = made.fields[name].kernel
            assert_kernel_equals(kernel, expected[name])
            assert list(kernel.rows) == [t for t, p in buffers[name]._postings.items() if p]
            assert kernel.doc_ids is made.doc_ids  # one id array per segment
        for doc, (_, _, live) in zip(docs, members):
            if not live:
                tombstone(made, doc, docs[doc])
        sealed.append(made)
        references.append(expected)

    merged = merge_segments(len(segments), sealed)
    for name in FIELDS:
        expected = reference_merge(
            [(reference[name], victim.live) for reference, victim in zip(references, sealed)]
        )
        if expected is None:
            assert merged is None
            continue
        kernel = merged.fields[name].kernel
        assert_kernel_equals(kernel, expected)
        victims = [victim.fields[name].kernel for victim in sealed]
        assert list(kernel.rows) == first_appearance(victims, expected.terms())
        assert merged.fields[name].live_total_length == kernel.total_length
    if merged is not None:
        assert merged.live.all() and merged.live_count == merged.doc_ids.size


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _text, _text),
        st.tuples(st.just("add"), _text, _text),
        st.tuples(st.just("remove"), st.integers(0, 30)),
        st.just(("flush",)),
        st.just(("maintain",)),
        st.just(("compact",)),
    ),
    min_size=5,
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(_ops)
def test_every_segment_of_a_store_walk_equals_a_fresh_reference_build(ops):
    """Seals, clocked merges and compactions over random writes: each sealed
    segment equals the reference built from its members' texts."""
    policy = dict(FLUSH_THRESHOLD=3, MAX_SEGMENTS=2, MERGE_FACTOR=2, MERGE_INTERVAL=0.0)
    store = SegmentedTextStore(FIELDS, FULL_ANALYZER)
    texts: dict[int, dict[str, str]] = {}
    live: set[int] = set()
    with mock.patch.multiple(segment, **policy):
        for step, op in enumerate(ops):
            if op[0] == "add":
                doc = len(texts)
                texts[doc] = {"title": op[1], "content": op[2]}
                store.add(doc, texts[doc])
                live.add(doc)
            elif op[0] == "remove" and op[1] in live:
                assert store.remove(op[1], texts[op[1]])
                live.discard(op[1])
            elif op[0] == "flush":
                store.flush()
            elif op[0] == "maintain":
                store.run_maintenance(float(step))
            elif op[0] == "compact":
                store.compact_all()
            for sealed in store.segments:
                members = {int(doc): texts[int(doc)] for doc in sealed.doc_ids}
                for name in FIELDS:
                    assert_kernel_equals(sealed.fields[name].kernel, reference_build(members, name))
            assert store.doc_count() == len(live)
    if ops[-1][0] == "compact" and live:
        [only] = store.segments
        assert only.doc_ids.tolist() == sorted(live) and only.live.all()


class TestEdges:
    def _sealed(self, number: int, docs: dict[int, dict[str, str]]):
        return seal_buffer(number, buffers_of(docs))

    def test_an_empty_buffer_seals_nothing(self):
        assert seal_buffer(0, buffers_of({})) is None
        assert seal_buffer(0, {}) is None

    def test_all_dead_victims_merge_to_nothing(self):
        docs = {0: {"title": "carta", "content": "bonifico estero"}}
        victim = self._sealed(0, docs)
        tombstone(victim, 0, docs[0])
        assert merge_segments(1, [victim]) is None
        assert merge_segments(1, []) is None

    def test_an_all_dead_victim_contributes_nothing(self):
        dead_docs = {0: {"title": "mutuo", "content": "mutuo rata"}}
        live_docs = {1: {"title": "carta", "content": "carta conto"}}
        dead, alive = self._sealed(0, dead_docs), self._sealed(1, live_docs)
        tombstone(dead, 0, dead_docs[0])
        merged = merge_segments(2, [dead, alive])
        assert merged.doc_ids.tolist() == [1]
        for name in FIELDS:
            assert_kernel_equals(merged.fields[name].kernel, reference_build(live_docs, name))

    def test_a_term_only_dead_documents_held_vanishes(self):
        docs = {
            0: {"title": "carta", "content": "carta prelievo"},
            1: {"title": "carta", "content": "carta limite"},
            2: {"title": "carta blocco", "content": "carta"},
        }
        victim = self._sealed(0, docs)
        tombstone(victim, 1, docs[1])
        tombstone(victim, 2, docs[2])
        merged = merge_segments(1, [victim])
        content, title = merged.fields["content"].kernel, merged.fields["title"].kernel
        limite, blocco = FULL_ANALYZER.analyze("limite blocco")
        assert limite not in content.rows and blocco not in title.rows
        assert content.document_frequency(limite) == 0 and content.term_arrays(limite) is None
        assert len(content.starts) == len(content.rows) + 1
        for name in FIELDS:
            assert_kernel_equals(merged.fields[name].kernel, reference_build({0: docs[0]}, name))


def _arrays(kernel) -> list[np.ndarray]:
    """Every numpy array a kernel holds, directly or in a dict or list."""
    held = []
    for slot in type(kernel).__slots__:
        value = getattr(kernel, slot)
        if not isinstance(value, (dict, list)):
            value = [value]
        values = value.values() if isinstance(value, dict) else value
        held.extend(item for item in values if isinstance(item, np.ndarray))
    return held


@pytest.mark.parametrize("vocabulary", [1, 12, 400])
def test_a_kernel_holds_four_arrays_whatever_its_vocabulary(vocabulary):
    postings = {
        f"t{term}": {doc: 1 + (term + doc) % 3 for doc in range(8) if (term + doc) % 2}
        for term in range(vocabulary)
    }
    kernel = KernelPostings.build({doc: 5 for doc in range(8)}, postings)
    assert len(kernel.rows) == vocabulary
    arrays = _arrays(kernel)
    assert len(arrays) == 4 and len({id(array) for array in arrays}) == 4
    assert kernel.slots.dtype == np.int32 and kernel.tfs.dtype == np.float64
    assert all(type(start) is int for start in kernel.starts)
    assert all(type(row) is int for row in kernel.rows.values())
    assert kernel.slots.size == kernel.tfs.size == kernel.starts[-1] == vocabulary * 4


#: Seals three buffers of shuffled words, tombstones a third of each, merges
#: them and prints the merged kernels' terms, offsets and array bytes.
_MERGED_ARRAYS_SCRIPT = """
import hashlib, random
from repro.search.inverted import InvertedIndex
from repro.search.segment import merge_segments, seal_buffer
from repro.text.analyzer import FULL_ANALYZER

rng = random.Random(5)
words = ["carta", "bonifico", "prelievo", "conto", "estero", "limite", "blocco",
         "mutuo", "rata", "saldo", "filiale", "token", "password", "deposito"]
victims = []
for number in range(3):
    buffers = {name: InvertedIndex(FULL_ANALYZER) for name in ("title", "content")}
    texts = {}
    for doc in range(number * 10, number * 10 + 10):
        texts[doc] = {name: " ".join(rng.choices(words, k=rng.randint(1, 12))) for name in buffers}
        for name, buffer in buffers.items():
            buffer.add(doc, texts[doc][name])
    sealed = seal_buffer(number, buffers)
    for doc in rng.sample(sorted(texts), 3):
        terms = {name: FULL_ANALYZER.analyze(text) for name, text in texts[doc].items()}
        sealed.tombstone(doc, terms)
    victims.append(sealed)
merged = merge_segments(3, victims)
for name, field in merged.fields.items():
    kernel = field.kernel
    parts = (kernel.doc_ids, kernel.lengths, kernel.slots, kernel.tfs)
    arrays = b"".join(part.tobytes() for part in parts)
    print(name, list(kernel.rows), kernel.starts, hashlib.sha256(arrays).hexdigest())
"""


def test_merged_arrays_are_the_same_bytes_under_any_string_hash_seed():
    digests = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", _MERGED_ARRAYS_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.append(done.stdout)
    assert digests[0].count("\n") == 2
    assert digests[0] == digests[1]
