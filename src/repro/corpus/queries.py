"""Query dataset generation.

Builds the synthetic equivalents of the paper's evaluation datasets
(Sections 7–8), with ground truth attached at generation time:

* **human dataset** — natural-language questions authored "by experts":
  each question targets one topic and phrases it with a mix of canonical
  terms and synonyms/jargon paraphrases (the mix is configurable; its
  default is calibrated so the legacy exact-match engine answers roughly
  the reported ~19% of them).  Ground truth: the topic's near-duplicate
  documents and the topic's key sentence as reference answer.
* **keyword dataset** — keyword-style queries sampled from a simulated
  one-year log of the previous system.
* **corner cases** — out-of-scope and risk-sensitive questions (Section 8).
* **error-code queries**, **special cases** (case variations, missing
  words, duplicates) and the composed **UAT dataset** of 210 questions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.corpus.generator import SyntheticKb, Topic
from repro.corpus.log import QueryLog, simulate_query_log
from repro.text.similarity import jaccard

#: Query kinds.
KIND_HUMAN = "human"
KIND_KEYWORD = "keyword"
KIND_OUT_OF_SCOPE = "out_of_scope"
KIND_ERROR_CODE = "error_code"
KIND_SPECIAL = "special"
KIND_UNANSWERABLE = "unanswerable"


@dataclass(frozen=True)
class LabeledQuery:
    """One evaluation query with its ground truth.

    Attributes:
        query_id: unique identifier within its dataset.
        text: the query string as a user would type it.
        kind: one of the ``KIND_*`` constants.
        relevant_docs: ids of the ground-truth relevant documents (empty
            for out-of-scope questions).
        answer: reference natural-language answer (human questions only).
        topic_id: generating topic, for error analysis.
    """

    query_id: str
    text: str
    kind: str
    relevant_docs: frozenset[str] = frozenset()
    answer: str = ""
    topic_id: str = ""


# Question scaffolds.  ``{a}`` = action surface form, ``{e}`` = entity
# surface form.  Scaffolds marked "plain" add no content words beyond the
# action/entity, so the legacy engine can match them when canonical forms
# are used; the others add words that may or may not occur in documents.
_PLAIN_TEMPLATES = (
    "Come posso {a} {e}?",
    "{a} {e}: come si fa?",
    "Devo {a} {e}, come devo fare?",
)
_RICH_TEMPLATES = (
    "Quali sono i passaggi operativi per {a} {e} per un cliente?",
    "Dove trovo le istruzioni per {a} {e} in filiale?",
    "È previsto un iter autorizzativo per {a} {e}?",
    "Un collega mi chiede come {a} {e}: qual è la prassi corretta?",
    "Qual è la procedura per {a} {e}?",
)

_OUT_OF_SCOPE_QUESTIONS = (
    "Che tempo farà domani a Milano?",
    "Chi ha vinto il campionato di calcio quest'anno?",
    "Puoi consigliarmi un ristorante vicino all'ufficio?",
    "Qual è la ricetta della carbonara?",
    "Quanto costa un biglietto del treno per Roma?",
    "Raccontami una barzelletta divertente.",
    "Qual è la capitale dell'Australia?",
    "Come si allena una maratona?",
    "Consigli per investire i miei risparmi personali in criptovalute?",
    "Scrivi una poesia sull'autunno.",
    "Qual è il senso della vita?",
    "Come posso convincere il mio capo a darmi un aumento?",
)


#: Generic verbs users substitute for the precise action when they do not
#: know the official name of the operation.
_GENERIC_VERBS = ("gestire", "sistemare", "procedere con", "occuparmi di")

#: Vague objects users substitute for the entity in action-only questions.
_VAGUE_OBJECTS = ("la pratica del cliente", "questa operazione", "la richiesta ricevuta")

#: Trailing situational details real users append to their questions.  The
#: detail words occur in *some* KB pages (they come from the shared filler
#: vocabulary) but usually not in the page that answers the question — so a
#: conjunctive exact-match engine gets dragged onto the wrong documents.
_DETAIL_SUFFIXES = (
    " Il responsabile della filiale deve verificare?",
    " Il modulo firmato va allegato alla pratica?",
    " La documentazione va conservata nel fascicolo?",
    " Le anomalie vanno segnalate al referente?",
    " Il controllo di secondo livello viene svolto in filiale?",
)


@dataclass(frozen=True)
class HumanDatasetConfig:
    """Knobs of the human-question generator.

    Questions are drawn from four realistic *modes*, mirroring the failure
    analysis of Section 8:

    * ``specific`` — the question names both the action and the entity
      (possibly via synonyms);
    * ``vague_action`` — the entity is named but the action is a generic
      verb ("gestire", "sistemare"), so sibling procedures compete;
    * ``action_only`` — the action is named but the object is vague
      ("la pratica del cliente"), so every entity competes;
    * ``oblique`` — the question leans on working context and names a
      *different* entity than the one actually needed, the hardest case.

    ``p_canonical_action`` / ``p_canonical_entity`` control how often the
    question uses the documents' own canonical term instead of a synonym;
    their product bounds how often a pure exact-match engine can succeed.
    """

    num_questions: int = 2700
    p_canonical_action: float = 0.60
    p_canonical_entity: float = 0.45
    p_plain_template: float = 0.55
    p_vague_action: float = 0.22
    p_action_only: float = 0.10
    p_oblique: float = 0.13
    p_extra_detail: float = 0.45
    p_inappropriate: float = 0.005
    seed: int = 2024


def generate_human_dataset(kb: SyntheticKb, config: HumanDatasetConfig | None = None) -> list[LabeledQuery]:
    """Author natural-language questions with ground-truth docs and answers."""
    config = config or HumanDatasetConfig()
    rng = random.Random(config.seed)
    topics = [t for t in kb.topics.values()]
    if not topics:
        raise ValueError("the knowledge base has no topics")

    entities = kb.vocabulary.entities
    queries: list[LabeledQuery] = []
    for number in range(config.num_questions):
        topic = topics[rng.randrange(len(topics))]
        action_form = _pick_form(topic.action, config.p_canonical_action, rng)
        entity_form = _pick_form(topic.entity, config.p_canonical_entity, rng)

        roll = rng.random()
        if roll < config.p_oblique:
            distractor = entities[rng.randrange(len(entities))]
            text = (
                f"Sto seguendo {distractor.canonical} per un cliente: come posso "
                f"{action_form} anche l'altro prodotto che ha in essere?"
            )
        elif roll < config.p_oblique + config.p_action_only:
            vague_object = _VAGUE_OBJECTS[rng.randrange(len(_VAGUE_OBJECTS))]
            text = f"Come posso {action_form} {vague_object}?"
        elif roll < config.p_oblique + config.p_action_only + config.p_vague_action:
            generic = _GENERIC_VERBS[rng.randrange(len(_GENERIC_VERBS))]
            text = f"Devo {generic} {entity_form} per un cliente, come devo procedere?"
        else:
            if rng.random() < config.p_plain_template:
                template = _PLAIN_TEMPLATES[rng.randrange(len(_PLAIN_TEMPLATES))]
            else:
                template = _RICH_TEMPLATES[rng.randrange(len(_RICH_TEMPLATES))]
            text = template.format(a=action_form, e=entity_form)
        if rng.random() < config.p_extra_detail:
            text += _DETAIL_SUFFIXES[rng.randrange(len(_DETAIL_SUFFIXES))]
        if rng.random() < config.p_inappropriate:
            # A handful of real questions vent frustration in terms the
            # content filter screens (the paper's 0.5% filtered share).
            text = f"Questo stupido applicativo non funziona mai: {text}"
        relevant = frozenset(kb.docs_by_topic.get(topic.topic_id, ()))
        key_sentence = _topic_key_sentence(kb, topic)
        queries.append(
            LabeledQuery(
                query_id=f"human-{number:05d}",
                text=text,
                kind=KIND_HUMAN,
                relevant_docs=relevant,
                answer=key_sentence,
                topic_id=topic.topic_id,
            )
        )
    return queries


def _pick_form(concept, p_canonical: float, rng: random.Random) -> str:
    if not concept.synonyms or rng.random() < p_canonical:
        return concept.canonical
    return concept.synonyms[rng.randrange(len(concept.synonyms))]


def _topic_key_sentence(kb: SyntheticKb, topic: Topic) -> str:
    doc_ids = kb.docs_by_topic.get(topic.topic_id, [])
    if not doc_ids:
        return ""
    return kb.document(doc_ids[0]).key_sentence


# -- keyword dataset -----------------------------------------------------------


@dataclass(frozen=True)
class KeywordDatasetConfig:
    """Knobs of the keyword-query generator."""

    num_queries: int = 800
    log_searches: int = 20_000
    max_relevant: int = 4
    seed: int = 4242


def keyword_query_pool(kb: SyntheticKb) -> list[tuple[str, frozenset[str]]]:
    """All keyword queries employees of the old system would type.

    Three families, in decreasing popularity: bare entity terms, internal
    system names, and "entity action" two-term queries.  Each query carries
    the ground-truth documents a domain expert would link.
    """
    pool: list[tuple[str, frozenset[str]]] = []
    for entity_id, doc_ids in sorted(kb.docs_by_entity.items()):
        entity = kb.vocabulary.lexicon.get(entity_id)
        pool.append((entity.canonical, frozenset(doc_ids[:4])))
    for system_id, doc_ids in sorted(kb.docs_by_system.items()):
        system = kb.vocabulary.lexicon.get(system_id)
        pool.append((system.canonical, frozenset(doc_ids[:4])))
    for topic in kb.topics.values():
        doc_ids = kb.docs_by_topic.get(topic.topic_id, [])
        if doc_ids:
            pool.append(
                (f"{topic.entity.canonical} {topic.action.canonical}", frozenset(doc_ids))
            )
    return pool


def generate_keyword_dataset(
    kb: SyntheticKb, config: KeywordDatasetConfig | None = None
) -> tuple[list[LabeledQuery], QueryLog]:
    """Sample keyword queries from a simulated year-long log.

    Returns the labeled dataset and the log it was sampled from (the log is
    reused by the UAT composition).
    """
    config = config or KeywordDatasetConfig()
    rng = random.Random(config.seed)
    pool = keyword_query_pool(kb)
    truth = {text: docs for text, docs in pool}
    log = simulate_query_log(
        [text for text, _ in pool], total_searches=config.log_searches, seed=config.seed
    )
    sampled = log.sample_frequent(config.num_queries, rng)
    queries = [
        LabeledQuery(
            query_id=f"keyword-{number:05d}",
            text=text,
            kind=KIND_KEYWORD,
            relevant_docs=frozenset(list(truth[text])[: config.max_relevant]),
        )
        for number, text in enumerate(sampled)
    ]
    return queries, log


# -- corner cases, error codes, special cases ---------------------------------


def generate_unanswerable_queries(
    kb: SyntheticKb, count: int = 50, seed: int = 66
) -> list[LabeledQuery]:
    """Banking enquiries the knowledge base cannot answer.

    Built from (action, entity) pairs that exist in the vocabulary but have
    **no page** in the KB — the enquiries behind the tickets no search
    system can prevent (the KB itself is incomplete; the paper's feedback
    loop exists to find and fill exactly these gaps).
    """
    rng = random.Random(seed)
    covered = {(t.action.concept_id, t.entity.concept_id) for t in kb.topics.values()}
    vocabulary = kb.vocabulary
    missing = [
        (action, entity)
        for entity in vocabulary.entities
        for action in vocabulary.actions
        if (action.concept_id, entity.concept_id) not in covered
    ]
    rng.shuffle(missing)
    queries = []
    for number, (action, entity) in enumerate(missing[:count]):
        queries.append(
            LabeledQuery(
                query_id=f"unans-{number:04d}",
                text=f"Come posso {action.canonical} {entity.canonical}?",
                kind=KIND_UNANSWERABLE,
            )
        )
    return queries


def generate_out_of_scope_queries(count: int = 10, seed: int = 77) -> list[LabeledQuery]:
    """Out-of-scope corner cases used to test guardrail triggering."""
    rng = random.Random(seed)
    questions = list(_OUT_OF_SCOPE_QUESTIONS)
    rng.shuffle(questions)
    picked = (questions * ((count // len(questions)) + 1))[:count]
    return [
        LabeledQuery(query_id=f"oos-{number:03d}", text=text, kind=KIND_OUT_OF_SCOPE)
        for number, text in enumerate(picked)
    ]


def generate_error_code_queries(kb: SyntheticKb, count: int = 20, seed: int = 88) -> list[LabeledQuery]:
    """Error-code lookups randomly picked from the SMEs' list (Section 8)."""
    rng = random.Random(seed)
    codes = sorted(kb.doc_by_error_code)
    rng.shuffle(codes)
    queries = []
    for number, code in enumerate(codes[:count]):
        text = code if number % 2 == 0 else f"errore {code}"
        queries.append(
            LabeledQuery(
                query_id=f"errq-{number:03d}",
                text=text,
                kind=KIND_ERROR_CODE,
                relevant_docs=frozenset({kb.doc_by_error_code[code]}),
            )
        )
    return queries


def generate_special_cases(base: list[LabeledQuery], count: int = 10, seed: int = 55) -> list[LabeledQuery]:
    """Lower/upper case, missing-word and duplicate variants of real queries."""
    if not base:
        return []
    rng = random.Random(seed)
    variants: list[LabeledQuery] = []
    mutations = ("upper", "lower", "missing", "duplicate")
    for number in range(count):
        source = base[rng.randrange(len(base))]
        mutation = mutations[number % len(mutations)]
        if mutation == "upper":
            text = source.text.upper()
        elif mutation == "lower":
            text = source.text.lower()
        elif mutation == "missing":
            words = source.text.split()
            if len(words) > 2:
                words.pop(rng.randrange(len(words)))
            text = " ".join(words)
        else:
            text = source.text
        variants.append(
            replace(
                source,
                query_id=f"special-{number:03d}",
                text=text,
                kind=KIND_SPECIAL,
            )
        )
    return variants


# -- UAT composition (Section 8) ------------------------------------------------


@dataclass(frozen=True)
class UatDataset:
    """The 210-question User Acceptance Test dataset, by component."""

    log_similar_human: list[LabeledQuery] = field(default_factory=list)
    sme_chosen: list[LabeledQuery] = field(default_factory=list)
    frequent_keywords: list[LabeledQuery] = field(default_factory=list)
    out_of_scope: list[LabeledQuery] = field(default_factory=list)
    error_codes: list[LabeledQuery] = field(default_factory=list)
    special_cases: list[LabeledQuery] = field(default_factory=list)

    @property
    def all_queries(self) -> list[LabeledQuery]:
        """Every UAT query, in the paper's listing order."""
        return (
            self.log_similar_human
            + self.sme_chosen
            + self.frequent_keywords
            + self.out_of_scope
            + self.error_codes
            + self.special_cases
        )


def build_uat_dataset(
    kb: SyntheticKb,
    human_dataset: list[LabeledQuery],
    keyword_validation: list[LabeledQuery],
    log: QueryLog,
    seed: int = 3030,
) -> UatDataset:
    """Compose the UAT dataset per the paper's recipe.

    70 human questions most similar (Jaccard on non-stop terms) to frequent
    log queries; 50 SME-chosen natural-language questions; the 50 most
    frequent keyword queries of the validation set; 10 out-of-scope
    questions; 20 error-code queries; 10 special cases.
    """
    rng = random.Random(seed)

    frequent = log.most_frequent(100)
    scored = [
        (max((jaccard(query.text, log_query) for log_query in frequent), default=0.0), query)
        for query in human_dataset
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1].query_id))
    log_similar = [query for _, query in scored[:70]]

    remaining = [query for query in human_dataset if query not in log_similar]
    rng.shuffle(remaining)
    sme_chosen = remaining[:50]

    frequency_rank = {text: rank for rank, text in enumerate(log.most_frequent(10_000))}
    keywords_sorted = sorted(
        keyword_validation, key=lambda q: frequency_rank.get(q.text, len(frequency_rank))
    )
    frequent_keywords = keywords_sorted[:50]

    out_of_scope = generate_out_of_scope_queries(10, seed=seed)
    error_codes = generate_error_code_queries(kb, 20, seed=seed)
    special = generate_special_cases(log_similar + frequent_keywords, 10, seed=seed)

    return UatDataset(
        log_similar_human=log_similar,
        sme_chosen=sme_chosen,
        frequent_keywords=frequent_keywords,
        out_of_scope=out_of_scope,
        error_codes=error_codes,
        special_cases=special,
    )
