"""System factory: wire a complete UniAsk deployment in one call.

Builds every component of Figure 1 around a knowledge-base store — the
embedder, the search index, the ingestion → queue → indexing pipeline, the
reranker, the simulated LLM, the guardrails and the engine — with one seed
and one configuration.  Benchmarks and examples construct systems only
through this factory so that every experiment runs the same wiring as the
"production" path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.orchestrator import Orchestrator
from repro.autoscale.autoscaler import Autoscaler
from repro.autoscale.hedging import AdaptiveHedgeBudget
from repro.cache.answer_cache import AnswerCache
from repro.cluster.router import ClusterSearcher
from repro.cluster.sharded_index import ShardedSearchIndex
from repro.core.config import UniAskConfig
from repro.core.engine import UniAskEngine
from repro.embeddings.cache import CachingEmbedder
from repro.embeddings.concepts import ConceptLexicon
from repro.embeddings.model import SyntheticAdaEmbedder
from repro.guardrails.pipeline import GuardrailPipeline
from repro.guardrails.rouge import RougeGuardrail
from repro.guardrails.citation import CitationGuardrail
from repro.guardrails.clarification import ClarificationGuardrail
from repro.llm.content_filter import ContentFilter
from repro.llm.simulated import SimulatedChatLLM
from repro.obs.incident import BlackBoxRecorder
from repro.obs.telemetry import Telemetry
from repro.pipeline.clock import SimulatedClock
from repro.pipeline.enrichment import MetadataEnricher
from repro.pipeline.indexing import IndexingService
from repro.pipeline.ingestion import IngestionService
from repro.pipeline.queue import MessageQueue
from repro.pipeline.store import KnowledgeBaseStore
from repro.search.hybrid import HybridSemanticSearch
from repro.search.index import SearchIndex
from repro.search.reranker import SemanticReranker
from repro.search.schema import uniask_schema


@dataclass
class UniAskSystem:
    """A fully wired deployment with handles to every component.

    ``index`` is a :class:`SearchIndex` in single-index deployments and a
    :class:`~repro.cluster.sharded_index.ShardedSearchIndex` when
    ``config.cluster.shards > 1`` (both expose the same write surface);
    ``cluster`` holds the scatter-gather router in the sharded case and is
    None otherwise.
    """

    engine: UniAskEngine
    searcher: HybridSemanticSearch | ClusterSearcher
    index: SearchIndex | ShardedSearchIndex
    store: KnowledgeBaseStore
    clock: SimulatedClock
    queue: MessageQueue
    ingestion: IngestionService
    indexing: IndexingService
    llm: SimulatedChatLLM
    embedder: CachingEmbedder
    lexicon: ConceptLexicon
    cluster: ClusterSearcher | None = None
    config: UniAskConfig = field(default_factory=UniAskConfig)
    telemetry: Telemetry = field(default_factory=Telemetry)
    answer_cache: AnswerCache | None = None
    orchestrator: Orchestrator | None = None
    autoscaler: Autoscaler | None = None
    recorder: BlackBoxRecorder | None = None

    def refresh(self) -> None:
        """One operational cycle: run due ingestion polls, drain the queue.

        Agents-enabled deployments also re-extract the structured table
        catalog, so the mini query engine sees corpus writes at the same
        cadence the search index does.
        """
        self.ingestion.run_due_polls()
        self.indexing.drain()
        if self.orchestrator is not None:
            self.orchestrator.refresh_catalog(self.store)


def build_uniask_system(
    store: KnowledgeBaseStore,
    lexicon: ConceptLexicon,
    config: UniAskConfig | None = None,
    seed: int = 42,
    embedding_dim: int = 256,
    ann_backend: str = "hnsw",
    keyword_variant: str = "none",
    ingest_now: bool = True,
    language: str = "it",
    analyzer=None,
) -> UniAskSystem:
    """Assemble a complete UniAsk system over *store*.

    Args:
        store: the knowledge base to serve.
        lexicon: concept lexicon shared by embedder, reranker and LLM.
        config: engine configuration (paper defaults when omitted).
        seed: master seed for embedder, HNSW and LLM.
        embedding_dim: width of the synthetic embeddings.
        ann_backend: ``"hnsw"`` (production) or ``"exact"``.
        keyword_variant: ``"none"``, ``"kt"`` or ``"ktc"`` — LLM keyword
            index enrichment (Table 4 variants).
        ingest_now: run the initial ingestion + indexing immediately.
        language: answer language of the simulated LLM ("it" or "en") —
            the "adapt to other languages" future work.
        analyzer: language-pack analyzer for the full-text index, reranker
            and embedder (None → Italian); must match *lexicon*'s language.
    """
    config = config or UniAskConfig()
    clock = SimulatedClock()
    queue = MessageQueue()
    telemetry = Telemetry(config.telemetry, clock=clock)
    registry = telemetry.registry

    # Constructed only when enabled, like the orchestrator and autoscaler:
    # the recorder registers its event counter on construction, and every
    # feed site below no-ops on a None recorder, so an incident-off
    # deployment stays byte-identical on every surface.
    recorder = None
    if config.incident.enabled:
        recorder = BlackBoxRecorder(clock=clock, registry=registry)

    from repro.text.analyzer import ItalianAnalyzer

    if analyzer is None:
        form_analyzer = None  # embedder/lexicon default (Italian, unstemmed)
        index_analyzer = None  # index default (Italian, full chain)
    else:
        form_analyzer = ItalianAnalyzer(
            remove_stopwords=True,
            apply_stemming=False,
            stopword_set=analyzer.stopword_set,
            stem_fn=analyzer.stem_fn,
        )
        index_analyzer = analyzer

    embedder = CachingEmbedder(
        SyntheticAdaEmbedder(lexicon, dim=embedding_dim, seed=seed, analyzer=form_analyzer)
    )
    schema = uniask_schema(include_llm_keywords=keyword_variant != "none")
    clustered = config.cluster.shards > 1
    if clustered:
        index = ShardedSearchIndex(
            embedder=embedder, schema=schema, num_shards=config.cluster.shards,
            ann_backend=ann_backend, seed=seed, analyzer=index_analyzer, registry=registry,
        )
    else:
        index = SearchIndex(
            embedder=embedder, schema=schema, ann_backend=ann_backend, seed=seed,
            analyzer=index_analyzer, registry=registry,
        )

    llm = SimulatedChatLLM(lexicon, seed=seed, language=language, registry=registry)
    enricher = MetadataEnricher(llm, keyword_variant=keyword_variant)
    ingestion = IngestionService(store, queue, clock)
    indexing = IndexingService(store, queue, index, enricher=enricher, clock=clock)

    reranker = SemanticReranker(lexicon, analyzer=index_analyzer)
    # The hedge budget exists only on autoscale-enabled clusters: off, the
    # router keeps its unconditional hedging and byte-identical behaviour.
    hedge_budget = None
    if clustered and config.autoscale.enabled:
        hedge_budget = AdaptiveHedgeBudget()
    if clustered:
        searcher = ClusterSearcher(
            index,
            reranker=reranker,
            config=config.retrieval,
            cluster_config=config.cluster,
            clock=clock,
            registry=registry,
            cache=config.cache.enabled,
            hedge_budget=hedge_budget,
            recorder=recorder,
        )
    else:
        searcher = HybridSemanticSearch(
            index, reranker=reranker, config=config.retrieval, registry=registry
        )
    if recorder is not None:
        # Instance attribute on the deployment's top-level index only;
        # per-shard members keep the class default None, so a clustered
        # maintenance pass records its merged totals exactly once.
        index.recorder = recorder

    answer_cache = None
    if config.cache.enabled:
        answer_cache = AnswerCache(clock=clock, analyzer=index_analyzer, registry=registry)

    guardrails = GuardrailPipeline(
        [CitationGuardrail(), RougeGuardrail(config.rouge_threshold), ClarificationGuardrail()],
        registry=registry,
    )
    orchestrator = None
    if config.agents.enabled:
        # Constructed only when enabled: the Orchestrator registers the
        # route counter on construction, so an agents-off deployment's
        # metrics exposition stays byte-identical to the pre-agents one.
        from repro.agents.structured import StructuredCatalog

        orchestrator = Orchestrator(
            catalog=StructuredCatalog.from_store(store),
            clock=clock,
            registry=registry,
        )
    autoscaler = None
    if clustered and config.autoscale.enabled:
        # Constructed only when enabled, like the orchestrator: the
        # Autoscaler registers its gauges and counters on construction,
        # so an autoscale-off deployment's metrics exposition stays
        # byte-identical.
        autoscaler = Autoscaler(
            searcher,
            clock,
            registry=registry,
            hedge_budget=hedge_budget,
            recorder=recorder,
        )
    engine = UniAskEngine(
        searcher=searcher,
        llm=llm,
        guardrails=guardrails,
        content_filter=ContentFilter(),
        config=config,
        telemetry=telemetry,
        answer_cache=answer_cache,
        orchestrator=orchestrator,
    )

    system = UniAskSystem(
        engine=engine,
        searcher=searcher,
        index=index,
        store=store,
        clock=clock,
        queue=queue,
        ingestion=ingestion,
        indexing=indexing,
        llm=llm,
        embedder=embedder,
        lexicon=lexicon,
        cluster=searcher if clustered else None,
        config=config,
        telemetry=telemetry,
        answer_cache=answer_cache,
        orchestrator=orchestrator,
        autoscaler=autoscaler,
        recorder=recorder,
    )
    if ingest_now:
        system.refresh()
    return system
