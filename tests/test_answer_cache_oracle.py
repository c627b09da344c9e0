"""Answer cache and coalescer oracle (ROADMAP item 8a): the served answer
under cache policies, corpus writes, TTLs and flight windows.

A Hypothesis state machine drives a cache-on, coalescing-on backend over a
17-page corpus.  Requests go out under every cache policy (``default``,
``bypass``, ``refresh``); pages are put, edited and deleted and ``refresh()`` indexes them; the clock jumps within a
flight window, past it (before each request), and past the answer TTL.  The model remembers every
content object the cache stored — with the index generation and the instant
it was stored at — and every envelope it has handed out.  Then:

* no hit is served from an epoch older than the last invalidating write,
  nor from an entry older than the TTL;
* a hit's content is an object the cache stored, the same object with the
  same fields as when it was stored;
* a coalesced request joined a live flight of a ``default`` request;
* every request has its own envelope, and a later request never changes an
  earlier one's.

Modelled on ``tests/test_router_chaos_oracle.py``.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.api import AskOptions, AskRequest, CacheConfig, create_backend, create_engine
from repro.cache import answer_cache
from repro.core.answer import AnswerContent, UniAskAnswer
from repro.core.config import UniAskConfig
from repro.core.engine import CACHEABLE_OUTCOMES
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.corpus.vocabulary import build_banking_lexicon

KB = KbGenerator(KbGeneratorConfig(num_topics=4, error_families=1, seed=19)).generate()
LEXICON = build_banking_lexicon()
TTL = 3600.0
QUESTIONS = (
    "come sbloccare la carta di credito",
    "Come sbloccare la carta di credito?",
    "bonifico estero commissioni",
    "commissioni del bonifico estero",
    "limiti prelievo bancomat",
)
CONTENT = tuple(field.name for field in dataclasses.fields(AnswerContent))
ENVELOPE = tuple(field.name for field in dataclasses.fields(UniAskAnswer) if field.name != "content")


def fields_of(obj, names) -> tuple:
    return tuple(getattr(obj, name) for name in names)


class AnswerCacheOracle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.ttl = mock.patch.object(answer_cache, "ANSWER_TTL_SECONDS", TTL)
        self.ttl.start()
        config = UniAskConfig(cache=CacheConfig(enabled=True))
        self.system = create_engine(KB.store(), LEXICON, config=config, seed=19)
        self.backend = create_backend(self.system)
        self.token = self.backend.login("oracle")
        #: id(content) -> (content, generation, stored_at, fields) of every store.
        self.stored: dict[int, tuple] = {}
        #: question -> (envelope, flight end) of the last request that opened a flight.
        self.leaders: dict[str, tuple] = {}
        #: every envelope handed out, with its fields when it was handed out.
        self.served: list[tuple[object, tuple]] = []
        self.pages = 0

    def teardown(self) -> None:
        self.ttl.stop()

    # -- requests -------------------------------------------------------------

    @rule(
        question=st.sampled_from(QUESTIONS),
        policy=st.sampled_from(("default", "default", "bypass", "refresh")),
        wait=st.sampled_from((0.0, 0.5, 5.0, 5.0)),
    )
    def serve(self, question, policy, wait):
        self.system.clock.advance(wait)
        self._serve(question, policy)

    @rule(question=st.sampled_from(QUESTIONS))
    def burst(self, question):
        """Two arrivals at one instant: the second joins the first's flight."""
        for _ in range(2):
            self._serve(question, "default")

    def _serve(self, question, policy):
        now, generation = self.system.clock.now(), self.system.index.generation
        flights = self.backend.single_flight.stats.flights
        record = self.backend.serve(self.token, AskRequest(question, AskOptions(cache=policy)))
        answer, content = record.answer, record.answer.content
        assert answer.question == question
        assert all(answer is not earlier for earlier, _ in self.served)

        if answer.cache_hit in ("exact", "semantic"):
            assert policy == "default"
            assert id(content) in self.stored, "a hit returned content the cache never stored"
            stored, epoch, stored_at, snapshot = self.stored[id(content)]
            assert stored is content and fields_of(content, CONTENT) == snapshot
            assert epoch == generation, "a hit outlived an invalidating write"
            assert now - stored_at < TTL
        elif answer.cache_hit == "coalesced":
            assert policy == "default"
            leader, completes_at = self.leaders[question]
            assert leader.cache_hit == ""
            assert content is leader.content and now < completes_at
        else:
            opened = self.backend.single_flight.stats.flights - flights
            assert opened == (policy == "default")
            if opened:
                self.leaders[question] = (answer, record.served_at)
            if policy != "bypass" and content.outcome in CACHEABLE_OUTCOMES:
                self.stored[id(content)] = (content, generation, now, fields_of(content, CONTENT))
        self.served.append((answer, fields_of(answer, ENVELOPE)))

    # -- writes ---------------------------------------------------------------

    def _write(self, change) -> None:
        """Apply *change* at a fresh instant, then let refresh() index it."""
        clock = self.system.clock
        clock.advance(1.0)
        change(self.system.store, clock.now())
        clock.advance(self.system.ingestion.poll_interval)
        self.system.refresh()

    def _live(self, pick: int) -> str:
        live = sorted(document.doc_id for document in self.system.store.all_documents())
        return live[pick % len(live)]

    @rule(pick=st.integers(0, 63))
    def put_page(self, pick):
        template = self.system.store.get(self._live(pick))
        self.pages += 1
        doc_id = f"oracle/new-{self.pages}"
        html = template.html.replace("</body>", "<p>Nuova pagina della redazione.</p></body>")

        def put(store, now):
            store.put(dataclasses.replace(template, doc_id=doc_id, html=html, modified_at=now))

        self._write(put)

    @rule(pick=st.integers(0, 63))
    def update_page(self, pick):
        doc_id = self._live(pick)

        def update(store, now):
            store.update_html(doc_id, store.get(doc_id).html + "<p>Nota aggiunta.</p>", now)

        self._write(update)

    @rule(pick=st.integers(0, 63))
    def delete_page(self, pick):
        if len(self.system.store.all_documents()) > 8:
            doc_id = self._live(pick)
            self._write(lambda store, now: store.delete(doc_id, now))

    # -- time -----------------------------------------------------------------

    @rule()
    def outlive_the_ttl(self):
        self.system.clock.advance(TTL)

    # -- invariants -----------------------------------------------------------

    @invariant()
    def earlier_envelopes_are_untouched(self):
        for answer, snapshot in self.served:
            assert fields_of(answer, ENVELOPE) == snapshot

    @invariant()
    def stored_content_never_changes(self):
        for content, _, _, snapshot in self.stored.values():
            assert fields_of(content, CONTENT) == snapshot


AnswerCacheOracle.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestAnswerCacheOracle = AnswerCacheOracle.TestCase
