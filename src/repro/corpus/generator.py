"""Synthetic knowledge-base generator.

Produces an Italian banking KB with the statistics the paper reports for
the real one (Section 4):

* **short documents** — a handful of paragraphs, ~250 words on average;
* **topical structure** — each document describes one *topic*, an
  (action, entity) pair carried out through an internal *system*;
* **near-duplicate content** — procedure topics come in 1–3 variants
  (customer segments) sharing almost all of their text, and error documents
  come in families that are "almost identical content except for specific
  error or procedure codes";
* **domain jargon** — internal application names appear prominently;
* **editor metadata** — domain, section, topic tags and keywords, exactly
  the fields the indexing service maps to filterable index fields.

Documents are HTML, ready for the real ingestion flow (parser → chunker →
enrichment → index).  Everything is generated from a seeded RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.corpus.vocabulary import BankingVocabulary, build_banking_vocabulary
from repro.embeddings.concepts import Concept
from repro.pipeline.store import KbDocument, KnowledgeBaseStore

# Customer-segment variants for near-duplicate procedure documents.
_SEGMENTS = ("clienti privati", "clienti business", "clienti private banking")

# Generic filler vocabulary shared by all documents: these words create the
# realistic lexical overlap between unrelated documents that makes exact
# matching noisy and BM25 non-trivial.
_FILLER_SENTENCES = (
    "La procedura è valida per tutte le filiali del territorio nazionale.",
    "L'operazione deve essere completata entro la giornata contabile.",
    "In caso di dubbi contattare il referente operativo di filiale.",
    "La documentazione deve essere conservata nel fascicolo del cliente.",
    "Il controllo di secondo livello viene svolto dall'ufficio centrale.",
    "Eventuali anomalie vanno segnalate tempestivamente al responsabile.",
    "La funzione è disponibile dal lunedì al venerdì in orario di sportello.",
    "Prima di procedere verificare l'identità del cliente allo sportello.",
    "Il modulo firmato va scansionato e allegato alla pratica.",
    "Le autorizzazioni richieste dipendono dal profilo abilitativo dell'operatore.",
)

_PREREQ_TEMPLATES = (
    "Per {action} {entity} è necessario disporre delle abilitazioni operative sul profilo.",
    "Prima di {action} {entity} verificare che la posizione del cliente sia aggiornata in anagrafe.",
    "L'operatore deve avere completato il corso abilitante per {action} {entity}.",
)

_CLOSING_TEMPLATES = (
    "Al termine dell'operazione il sistema {system} produce la ricevuta da consegnare al cliente.",
    "La conferma dell'avvenuta operazione è visibile in {system} nella sezione esiti.",
    "L'esito viene notificato automaticamente tramite {system} entro pochi minuti.",
)


@dataclass(frozen=True)
class Topic:
    """One procedure topic: an action applied to an entity via a system."""

    topic_id: str
    action: Concept
    entity: Concept
    system: Concept
    domain: str
    section: str


@dataclass(frozen=True)
class GeneratedDocument:
    """A KB document plus the generation ground truth."""

    document: KbDocument
    topic_id: str
    key_sentence: str
    error_code: str = ""

    @property
    def doc_id(self) -> str:
        """Shortcut to the underlying document id."""
        return self.document.doc_id


@dataclass(frozen=True)
class KbGeneratorConfig:
    """Sizing and randomness knobs of the generator.

    The defaults give a few hundred documents — large enough for the
    retrieval dynamics to be realistic, small enough for a fast test suite.
    The benchmarks scale ``num_topics`` up.
    """

    #: Topic count; at most the vocabulary's (action, entity) pairs
    #: (:attr:`KbGenerator.topic_limit`, 1 386 with the stock lists).
    num_topics: int = 220
    max_variants_per_topic: int = 3
    error_families: int = 14
    codes_per_family: int = 8
    seed: int = 1234
    base_time: float = 0.0


@dataclass
class SyntheticKb:
    """The generated corpus: documents, topics, and lookup structures."""

    vocabulary: BankingVocabulary
    topics: dict[str, Topic] = field(default_factory=dict)
    documents: list[GeneratedDocument] = field(default_factory=list)
    docs_by_topic: dict[str, list[str]] = field(default_factory=dict)
    docs_by_entity: dict[str, list[str]] = field(default_factory=dict)
    docs_by_system: dict[str, list[str]] = field(default_factory=dict)
    doc_by_error_code: dict[str, str] = field(default_factory=dict)

    def store(self) -> KnowledgeBaseStore:
        """Load every document into a fresh :class:`KnowledgeBaseStore`."""
        store = KnowledgeBaseStore()
        for generated in self.documents:
            store.put(generated.document)
        return store

    def document(self, doc_id: str) -> GeneratedDocument:
        """Find a generated document by id."""
        for generated in self.documents:
            if generated.doc_id == doc_id:
                return generated
        raise KeyError(doc_id)


class KbGenerator:
    """Deterministic generator of :class:`SyntheticKb` corpora."""

    def __init__(self, config: KbGeneratorConfig | None = None) -> None:
        self.config = config or KbGeneratorConfig()
        self._rng = random.Random(self.config.seed)
        self._vocabulary = build_banking_vocabulary()
        if self.config.num_topics > self.topic_limit:
            raise ValueError(
                f"num_topics={self.config.num_topics} exceeds the {self.topic_limit} "
                "(action, entity) pairs of the vocabulary"
            )

    @property
    def topic_limit(self) -> int:
        """The most topics the vocabulary can build: one per (action, entity) pair."""
        return len(self._vocabulary.actions) * len(self._vocabulary.entities)

    def generate(self) -> SyntheticKb:
        """Generate the full corpus (procedure topics + error families)."""
        kb = SyntheticKb(vocabulary=self._vocabulary)
        self._generate_procedure_documents(kb)
        self._generate_error_documents(kb)
        return kb

    # -- procedure documents ------------------------------------------------

    def _generate_procedure_documents(self, kb: SyntheticKb) -> None:
        rng = self._rng
        vocabulary = self._vocabulary
        pairs = [
            (action, entity) for entity in vocabulary.entities for action in vocabulary.actions
        ]
        rng.shuffle(pairs)
        pairs = pairs[: self.config.num_topics]

        for number, (action, entity) in enumerate(pairs):
            system = vocabulary.systems[rng.randrange(len(vocabulary.systems))]
            topic = Topic(
                topic_id=f"topic-{number:04d}",
                action=action,
                entity=entity,
                system=system,
                domain=entity.domain,
                section=f"sezione-{entity.domain}",
            )
            kb.topics[topic.topic_id] = topic

            variants = 1 + rng.randrange(self.config.max_variants_per_topic)
            key_sentence = self._key_sentence(topic)
            for variant in range(variants):
                generated = self._procedure_document(topic, variant, key_sentence, rng)
                self._register(kb, generated, topic)

    def _key_sentence(self, topic: Topic) -> str:
        return (
            f"Per {topic.action.canonical} {topic.entity.canonical} occorre accedere a "
            f"{topic.system.canonical}, selezionare la funzione dedicata e confermare "
            f"l'operazione con le proprie credenziali."
        )

    def _procedure_document(
        self, topic: Topic, variant: int, key_sentence: str, rng: random.Random
    ) -> GeneratedDocument:
        segment = _SEGMENTS[variant % len(_SEGMENTS)]
        action = topic.action.canonical
        entity = topic.entity.canonical
        system = topic.system.canonical

        title = f"{action.capitalize()} {entity} tramite {system}"
        if variant > 0:
            title += f" ({segment})"

        # Cross-references to sibling procedures: real KB pages point at the
        # other operations on the same product, which injects competing
        # action terms into every document (a major source of retrieval
        # confusion in the real system).
        vocabulary = self._vocabulary
        other_actions = [
            a.canonical for a in vocabulary.actions if a.concept_id != topic.action.concept_id
        ]
        rng.shuffle(other_actions)
        cross_reference = (
            f"Per {other_actions[0]}, {other_actions[1]}, {other_actions[2]} o "
            f"{other_actions[3]} {entity} consultare le pagine dedicate; la presente "
            f"guida riguarda esclusivamente come {action} {entity}."
        )

        paragraphs = [
            f"Questa pagina descrive la procedura per {action} {entity} "
            f"tramite l'applicativo {system}, riservata ai {segment}.",
            # Ubiquitous help-page boilerplate: generic verbs that appear in
            # nearly every page are what makes vague questions match *many*
            # documents in the legacy exact-match engine.
            "Questa guida aiuta a gestire la pratica del cliente e a procedere "
            "con l'operazione richiesta in modo corretto.",
            _PREREQ_TEMPLATES[rng.randrange(len(_PREREQ_TEMPLATES))].format(
                action=action, entity=entity
            ),
            key_sentence,
            f"All'interno di {system} aprire la sezione '{entity}' e compilare i campi "
            f"richiesti; il sistema propone in automatico i dati anagrafici del cliente.",
            cross_reference,
            _CLOSING_TEMPLATES[rng.randrange(len(_CLOSING_TEMPLATES))].format(system=system),
        ]
        # 1-3 shared filler paragraphs create realistic cross-document overlap.
        for _ in range(1 + rng.randrange(3)):
            paragraphs.append(_FILLER_SENTENCES[rng.randrange(len(_FILLER_SENTENCES))])
        rng.shuffle(paragraphs[3:])

        doc_id = f"kb/{topic.topic_id}/v{variant}"
        html = _render_html(title, paragraphs)
        document = KbDocument(
            doc_id=doc_id,
            html=html,
            domain=topic.domain,
            section=topic.section,
            topic=topic.entity.concept_id,
            keywords=(topic.entity.canonical, topic.action.canonical, system),
            modified_at=self.config.base_time,
        )
        return GeneratedDocument(document=document, topic_id=topic.topic_id, key_sentence=key_sentence)

    # -- error documents -------------------------------------------------------

    def _generate_error_documents(self, kb: SyntheticKb) -> None:
        rng = self._rng
        vocabulary = self._vocabulary
        for family in range(self.config.error_families):
            system = vocabulary.systems[family % len(vocabulary.systems)]
            entity = vocabulary.entities[rng.randrange(len(vocabulary.entities))]
            base_code = 1000 + family * 100
            family_cause = (
                f"L'errore si verifica quando la sessione di {system.canonical} scade durante "
                f"un'operazione su {entity.canonical}."
            )
            for offset in range(self.config.codes_per_family):
                code = f"ERR-{base_code + offset}"
                key_sentence = (
                    f"Per risolvere l'errore {code} chiudere la sessione di {system.canonical}, "
                    f"attendere due minuti e ripetere l'operazione su {entity.canonical}."
                )
                title = f"Errore {code} in {system.canonical}"
                paragraphs = [
                    f"Il codice {code} è un errore applicativo di {system.canonical}.",
                    family_cause,
                    key_sentence,
                    "Se il problema persiste aprire un ticket informatico al supporto tecnico "
                    "indicando il codice errore e l'orario dell'operazione.",
                    _FILLER_SENTENCES[rng.randrange(len(_FILLER_SENTENCES))],
                ]
                doc_id = f"kb/errors/{code}"
                document = KbDocument(
                    doc_id=doc_id,
                    html=_render_html(title, paragraphs),
                    domain="technical_topics",
                    section="sezione-errori",
                    topic=f"errori_{system.concept_id}",
                    keywords=(code, system.canonical),
                    modified_at=self.config.base_time,
                )
                generated = GeneratedDocument(
                    document=document,
                    topic_id=f"error-{code}",
                    key_sentence=key_sentence,
                    error_code=code,
                )
                kb.documents.append(generated)
                kb.docs_by_topic.setdefault(generated.topic_id, []).append(doc_id)
                kb.docs_by_system.setdefault(system.concept_id, []).append(doc_id)
                kb.doc_by_error_code[code] = doc_id

    # -- shared ------------------------------------------------------------------

    def _register(self, kb: SyntheticKb, generated: GeneratedDocument, topic: Topic) -> None:
        kb.documents.append(generated)
        kb.docs_by_topic.setdefault(topic.topic_id, []).append(generated.doc_id)
        kb.docs_by_entity.setdefault(topic.entity.concept_id, []).append(generated.doc_id)
        kb.docs_by_system.setdefault(topic.system.concept_id, []).append(generated.doc_id)


def _render_html(title: str, paragraphs: list[str]) -> str:
    body = "\n".join(f"    <p>{paragraph}</p>" for paragraph in paragraphs)
    return (
        "<html>\n"
        f"  <head><title>{title}</title></head>\n"
        "  <body>\n"
        f"    <h1>{title}</h1>\n"
        f"{body}\n"
        "  </body>\n"
        "</html>\n"
    )
