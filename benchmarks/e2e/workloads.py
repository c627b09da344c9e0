"""The four benchmark workloads: deployments, generated inputs, drivers, checks.

Everything here goes through public calls only — ``create_engine`` /
``create_backend``, ``BackendService.login`` / ``serve``,
``KnowledgeBaseStore.put`` / ``update_html`` / ``delete`` and
``UniAskSystem.refresh`` — from one thread, closed loop, one client.

A run is **work-bounded**: ``--seconds`` fixes how many operations the
measured phase holds (``ops_per_second × seconds``, sized so the phase takes
about that long in reference time on the commit that defined the benchmark),
so the same ``(seed, seconds)`` always serves the same requests and the
answer digest, quality metrics and work counts repeat exactly.  A
time-bounded loop would serve more requests on a faster machine state, and
on ``ask_zipf_cached`` the hit share — hence ``ask_qps`` — depends on how
far into the stream the run gets.
"""

from __future__ import annotations

import hashlib
import random
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from probe import Normaliser
from tracing import NO_OP, Tracer

from repro.api import (
    AskRequest,
    CacheConfig,
    ClusterConfig,
    UniAskConfig,
    create_backend,
    create_engine,
)
from repro.core.answer import OUTCOME_GENERATION_ERROR
from repro.corpus.generator import KbGenerator, KbGeneratorConfig, SyntheticKb
from repro.corpus.queries import (
    HumanDatasetConfig,
    KeywordDatasetConfig,
    LabeledQuery,
    generate_human_dataset,
    generate_keyword_dataset,
)
from repro.corpus.vocabulary import build_banking_lexicon
from repro.eval.metrics import hit_rate_at
from repro.obs.incident import IncidentConfig


@dataclass(frozen=True)
class Size:
    """How big a run is, apart from ``--seconds``.

    ``FULL`` is the benchmark.  The corpus is ~250 documents, not the
    paper's 59 308: index build costs 10–17 ms per document (≈ 90 % inside
    the pure-Python ``HnswIndex.add``), a run must repeat set-up to report a
    steady ``setup_s``, and ~90 runs share one hour.  Ask latency barely
    depends on corpus size today (retrieval legs are < 10 % of a request).
    """

    num_topics: int
    error_families: int
    codes_per_family: int
    setups: int
    warmup_asks: int
    min_beyond: int  # samples required beyond a reported percentile


FULL = Size(num_topics=100, error_families=8, codes_per_family=6, setups=3, warmup_asks=5, min_beyond=10)
SMOKE = Size(num_topics=40, error_families=2, codes_per_family=4, setups=1, warmup_asks=2, min_beyond=1)

#: One ``ingest_live`` round: writes, one timed ``refresh()``, freshness
#: probes, then reads against the index the writes left behind.
ROUND_UPDATES = 16
ROUND_PUTS = 2
ROUND_DELETES = 2
ROUND_ASKS = 14
ROUND_MUTATIONS = ROUND_UPDATES + ROUND_PUTS + ROUND_DELETES

#: Distinct queries behind the Zipf stream: 60 % keyword, 40 % human.
ZIPF_POOL_KEYWORD = 120
ZIPF_POOL_HUMAN = 80

_CONSONANTS = "bcdfghjklmnpqrstvwxz"


def marker_token(number: int) -> str:
    """A unique, purely alphabetic token no stemmer or stop list touches."""
    letters = []
    for _ in range(5):
        number, digit = divmod(number, len(_CONSONANTS))
        letters.append(_CONSONANTS[digit])
    return "zq" + "".join(letters)


# -- inputs -------------------------------------------------------------------


def human_questions(kb: SyntheticKb, seed: int, count: int) -> list[LabeledQuery]:
    """*count* human questions with distinct texts, in generation order."""
    generated = generate_human_dataset(
        kb, HumanDatasetConfig(num_questions=count + count // 2 + 20, seed=seed)
    )
    seen: set[str] = set()
    distinct = []
    for query in generated:
        if query.text not in seen:
            seen.add(query.text)
            distinct.append(query)
    if len(distinct) < count:
        raise RuntimeError(f"only {len(distinct)} distinct human questions, need {count}")
    return distinct[:count]


def zipf_requests(kb: SyntheticKb, seed: int, count: int) -> list[LabeledQuery]:
    """*count* requests drawn Zipf(s=1) from a seed-shuffled query pool.

    The paper's log traffic is short, heavily repeated keyword searches;
    the pool mixes them with paraphrase questions so the semantic tier has
    near-duplicates to find.  Both kinds are shuffled by the seed and then
    interleaved three keyword queries to two questions down the popularity
    ranking: a hit costs more on a long question (the cache key analyzes
    it), and the five most popular queries carry ~40 % of the traffic, so a
    free shuffle would make the median hit latency depend on which kind the
    seed happened to put on top.
    """
    keyword, _ = generate_keyword_dataset(
        kb, KeywordDatasetConfig(num_queries=ZIPF_POOL_KEYWORD, log_searches=5000, seed=seed)
    )
    human = human_questions(kb, seed, ZIPF_POOL_HUMAN)
    rng = random.Random(seed)
    rng.shuffle(keyword)
    rng.shuffle(human)
    pool: list[LabeledQuery] = []
    while keyword or human:
        pool.extend(keyword[:3])
        pool.extend(human[:2])
        del keyword[:3], human[:2]
    weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
    return rng.choices(pool, weights=weights, k=count)


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One traffic mix over one deployment.

    Attributes:
        name / why: as listed in ``BENCHMARK.json``.
        ops_per_second: driver operations per second of ``--seconds``
            (asks, or rounds for ``ingest_live``).
        build_config: the deployment's :class:`UniAskConfig`.
        backend_kwargs: extra ``create_backend`` arguments.
        clock_step: simulated seconds the harness advances before each ask
            (TTL, LRU and the incident windows act on the simulated clock).
        question_seed_offset: added to the seed of the question generator.
        make_requests: ``(kb, seed, count) -> requests`` for ask workloads.
        rounds: True when an operation is an ``ingest_live`` round.
        replayable: the traced phase may replay the untraced phase's
            requests (serving leaves no state that changes a later answer).
    """

    name: str
    why: str
    ops_per_second: float
    build_config: Callable[[], UniAskConfig]
    backend_kwargs: dict = field(default_factory=dict)
    clock_step: float = 0.0
    question_seed_offset: int = 0
    make_requests: Callable[[SyntheticKb, int, int], list[LabeledQuery]] = human_questions
    rounds: bool = False
    replayable: bool = True

    def ops(self, seconds: float) -> int:
        """Operations in a measured phase of *seconds*."""
        return max(2, round(self.ops_per_second * seconds))


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="ask_human",
            why="Distinct paraphrase questions, defaults: every stage runs on every request, so reranker, analyzer, guardrail and LLM cost show here most strongly.",
            ops_per_second=22.0,
            build_config=UniAskConfig,
        ),
        Workload(
            name="ask_zipf_cached",
            why="Zipf-repeated log queries with the answer cache on: most requests are hits whose only cost is backend, cache and bookkeeping overhead.",
            ops_per_second=80.0,
            build_config=lambda: UniAskConfig(cache=CacheConfig(enabled=True)),
            clock_step=1.0,
            make_requests=zipf_requests,
            replayable=False,
        ),
        Workload(
            name="ask_cluster_obs",
            why="Four shards, two replicas, every observability surface on: scatter-gather over small per-shard indexes plus tracing, profiling, capacity and incident overhead.",
            ops_per_second=22.0,
            build_config=lambda: UniAskConfig(
                cluster=ClusterConfig(shards=4, replicas=2),
                incident=IncidentConfig(enabled=True),
            ),
            backend_kwargs={"tracing": True, "profiling": True, "capacity": True},
            clock_step=1.0,
            question_seed_offset=1,
        ),
        Workload(
            name="ingest_live",
            why="Rounds of page edits, new pages and deletions applied by refresh() with reads in between: the write path, and reads over growing segments and tombstones.",
            ops_per_second=1.5,
            build_config=UniAskConfig,
            rounds=True,
            replayable=False,
        ),
    )
}


# -- set-up -------------------------------------------------------------------


@dataclass
class Deployment:
    """A built system with a logged-in client."""

    system: object
    backend: object
    token: str
    documents: int


def generate_kb(seed: int, size: Size) -> SyntheticKb:
    """The seed's knowledge base."""
    return KbGenerator(
        KbGeneratorConfig(
            num_topics=size.num_topics,
            error_families=size.error_families,
            codes_per_family=size.codes_per_family,
            seed=seed,
        )
    ).generate()


def set_up(
    workload: Workload,
    seed: int,
    size: Size,
    timer: Normaliser,
    label: str,
    warmup: list[LabeledQuery],
) -> Deployment:
    """Build the deployment from nothing, timed under ``<label>.build`` (the
    bulk index build) and ``<label>.other`` (everything else).

    This is what an operator pays per cold start as well: ``load_index``
    re-inserts every vector, so it rebuilds the same graphs.
    """
    build, other = f"{label}.build", f"{label}.other"
    with timer.timed(other):
        kb = generate_kb(seed, size)
        store = kb.store()
        system = create_engine(
            store, build_banking_lexicon(), config=workload.build_config(),
            seed=seed, ingest_now=False,
        )
    with timer.timed(build):
        system.ingestion.run_due_polls()
    # One document per timed block, so the probe can run between documents.
    while True:
        with timer.timed(build):
            more = system.indexing.process_one()
        if not more:
            break
    with timer.timed(build):
        system.indexing.run_maintenance()
    if len(system.queue) or system.index.document_count != len(store):
        raise RuntimeError(
            f"set-up left {len(system.queue)} queued messages and "
            f"{system.index.document_count} of {len(store)} documents indexed"
        )
    with timer.timed(other):
        backend = create_backend(system, **workload.backend_kwargs)
        token = backend.login("bench-user")
    for query in warmup:
        with timer.timed(other):
            backend.serve(token, AskRequest.of(query.text))
    return Deployment(system=system, backend=backend, token=token, documents=len(store))


# -- driving ------------------------------------------------------------------


@dataclass
class AskSample:
    """What one ``serve`` call returned, and how long it took."""

    op: int  # index of its duration in the normaliser
    phase: str
    question: str
    outcome: str = ""
    cache_hit: str = ""
    top_docs: tuple[str, ...] = ()
    cited: tuple[str, ...] = ()
    hit_at_4: float | None = None  # None: the question has no relevant docs
    guardrail_fired: bool = False
    work: dict | None = None


@dataclass
class RefreshSample:
    """One timed ``refresh()`` and the store mutations it applied."""

    op: int
    phase: str
    mutations: int


class Session:
    """Drives one deployment and keeps every sample, check and failure."""

    def __init__(self, workload: Workload, deployment: Deployment, timer: Normaliser, seed: int) -> None:
        self.workload = workload
        self.deployment = deployment
        self.timer = timer
        self.seed = seed
        self.phase = "measured"
        self.tracer: Tracer | None = None
        self.asks: list[AskSample] = []
        self.refreshes: list[RefreshSample] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._first_text: dict[str, str] = {}
        self._markers = 0

    # -- checks -------------------------------------------------------------

    def _check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @contextmanager
    def _operation(self, label: str) -> Iterator[None]:
        """Time the block as one operation; its spans carry its timer index."""
        if self.tracer is not None:
            self.tracer.op = len(self.timer)
        try:
            with self.timer.timed(label):
                yield
        finally:
            if self.tracer is not None:
                self.tracer.op = NO_OP

    # -- asks ---------------------------------------------------------------

    def ask(self, query: LabeledQuery) -> None:
        """Serve one question, timed, and check what came back."""
        deployment = self.deployment
        if self.workload.clock_step:
            deployment.system.clock.advance(self.workload.clock_step)
        # Under the tracer, profiling makes ``answer.work`` carry the
        # deterministic counts.
        request = AskRequest.of(query.text, profile=self.tracer is not None)
        sample = AskSample(op=len(self.timer), phase=self.phase, question=query.text)
        record = None
        error = ""
        try:
            with self._operation("ask"):
                record = deployment.backend.serve(deployment.token, request)
        except Exception:  # noqa: BLE001 - a failed request is a counted outcome, not a crash
            error = traceback.format_exc(limit=3)
        self.asks.append(sample)
        if record is None:
            self._check(False, f"serve raised on {query.text!r}: {error}")
            return

        answer = record.answer
        sample.outcome = answer.outcome
        sample.cache_hit = answer.cache_hit
        sample.top_docs = tuple(chunk.doc_id for chunk in answer.documents[:10])
        sample.cited = tuple(citation.doc_id for citation in answer.citations)
        sample.guardrail_fired = answer.guardrail_fired
        sample.work = answer.work
        if query.relevant_docs:
            context_docs = [chunk.doc_id for chunk in answer.context]
            sample.hit_at_4 = hit_rate_at(context_docs, query.relevant_docs, 4)

        problem = ""
        if answer.outcome == OUTCOME_GENERATION_ERROR:
            problem = "generation_error"
        elif answer.partial_results:
            problem = "partial_results"
        elif answer.cache_hit == "exact" and self._first_text.get(query.text, answer.answer_text) != answer.answer_text:
            problem = "exact hit returned a different text than the question's own miss"
        if not answer.cache_hit:
            self._first_text[query.text] = answer.answer_text
        self._check(not problem, f"{problem} on {query.text!r}")

    def drive_asks(self, requests: list[LabeledQuery]) -> None:
        for query in requests:
            self.ask(query)

    # -- ingest rounds ------------------------------------------------------

    def ingest_round(self, number: int, reads: list[LabeledQuery]) -> None:
        """Writes, a timed refresh, freshness probes, then reads."""
        system = self.deployment.system
        store, clock = system.store, system.clock
        rng = random.Random(self.seed * 100_003 + number)
        # The poller publishes documents modified strictly after its last
        # poll, so writes must carry a later stamp than that poll.
        clock.advance(1.0)
        now = clock.now()
        live = sorted(doc.doc_id for doc in store.all_documents())
        chosen = rng.sample(live, ROUND_UPDATES + ROUND_DELETES + ROUND_PUTS)
        updated = chosen[:ROUND_UPDATES]
        deleted = chosen[ROUND_UPDATES:ROUND_UPDATES + ROUND_DELETES]
        templates = chosen[ROUND_UPDATES + ROUND_DELETES:]

        update_markers = {}
        for doc_id in updated:
            marker = self._next_marker()
            update_markers[doc_id] = marker
            store.update_html(doc_id, _with_paragraph(store.get(doc_id).html, marker), now)
        put_markers = {}
        for position, template_id in enumerate(templates):
            marker = self._next_marker()
            template = store.get(template_id)
            doc_id = f"bench/round-{number:03d}/new-{position}"
            put_markers[doc_id] = marker
            store.put(replace(
                template, doc_id=doc_id, html=_with_paragraph(template.html, marker), modified_at=now
            ))
        deleted_titles = {doc_id: _title_of(store.get(doc_id).html) for doc_id in deleted}
        for doc_id in deleted:
            store.delete(doc_id, now)

        clock.advance(system.ingestion.poll_interval)
        sample = RefreshSample(op=len(self.timer), phase=self.phase, mutations=ROUND_MUTATIONS)
        error = ""
        try:
            with self._operation("refresh"):
                system.refresh()
        except Exception:  # noqa: BLE001 - a failed refresh is a counted outcome, not a crash
            error = traceback.format_exc(limit=3)
        self.refreshes.append(sample)
        self._check(not error, f"refresh raised in round {number}: {error}")

        # Freshness: one updated page, one new page, one deleted page.
        search = system.searcher.search_degraded
        probe_update = updated[rng.randrange(len(updated))]
        top = search(update_markers[probe_update])
        self._check(
            bool(top) and top[0].doc_id == probe_update,
            f"round {number}: edited page {probe_update} is not first for its marker",
        )
        probe_put = sorted(put_markers)[rng.randrange(len(put_markers))]
        self._check(
            any(chunk.doc_id == probe_put for chunk in search(put_markers[probe_put])),
            f"round {number}: new page {probe_put} is not retrievable by its marker",
        )
        probe_delete = deleted[rng.randrange(len(deleted))]
        self._check(
            all(chunk.doc_id != probe_delete for chunk in search(deleted_titles[probe_delete])),
            f"round {number}: deleted page {probe_delete} still appears in results",
        )
        self.drive_asks(reads)

    def _next_marker(self) -> str:
        self._markers += 1
        return marker_token(self.seed * 7919 + self._markers)

    # -- summaries ----------------------------------------------------------

    def answers_digest(self, phase: str | None = None) -> str:
        """sha256 over what every request returned, in order."""
        digest = hashlib.sha256()
        for sample in self.asks:
            if phase is None or sample.phase == phase:
                digest.update(repr((
                    sample.question, sample.outcome, sample.cache_hit, sample.top_docs, sample.cited
                )).encode("utf-8"))
        return digest.hexdigest()


def _with_paragraph(html: str, marker: str) -> str:
    """*html* (as the corpus generator renders it) with one more paragraph."""
    paragraph = f"    <p>Nota operativa {marker}: verificare la pratica con il referente.</p>\n"
    return html.replace("  </body>", paragraph + "  </body>")


def _title_of(html: str) -> str:
    return html[html.index("<title>") + len("<title>"):html.index("</title>")]
