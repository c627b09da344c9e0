"""Scenario: knowledge-base operations — live edits, polling, freshness.

The KB is edited daily by hundreds of employees; UniAsk keeps its index
fresh by polling modifications every 15 minutes (Section 3).  This example
drives the full ingestion → queue → indexing flow through a day of edits:
a page is created, answered from, corrected by its editor, and finally
retired — and shows the operational counters (embedding cache, queue
stats, tombstones and vacuum) an operator would watch.

Run:  python examples/knowledge_base_ops.py
"""

from __future__ import annotations

from repro import (
    AskRequest,
    KbGenerator,
    KbGeneratorConfig,
    build_banking_lexicon,
    build_uniask_system,
)
from repro.pipeline.store import KbDocument

PAGE = """<html>
  <head><title>Richiedere il token di sicurezza</title></head>
  <body>
    <h1>Richiedere il token di sicurezza</h1>
    <p>{body}</p>
    <p>In caso di dubbi contattare il referente operativo di filiale.</p>
  </body>
</html>"""

QUESTION = "Come posso richiedere la chiavetta OTP per un collega?"


def ask(system, filters: dict[str, str] | None = None) -> None:
    answer = system.engine.answer(AskRequest.of(QUESTION, filters=filters)).answer
    scope = f" (filters {filters})" if filters else ""
    print(f"  Q: {QUESTION}{scope}")
    print(f"  A: [{answer.outcome}] {answer.answer_text}\n")


def main() -> None:
    kb = KbGenerator(KbGeneratorConfig(num_topics=60, error_families=4, seed=99)).generate()
    store = kb.store()
    system = build_uniask_system(store, build_banking_lexicon(), seed=99)
    print(f"Initial load: {len(system.index)} chunks indexed.\n")

    print("09:00 — an editor publishes a new page about the security token:")
    store.put(
        KbDocument(
            doc_id="kb/token/new-page",
            html=PAGE.format(
                body="Per richiedere il token di sicurezza aprire una richiesta su ServiceDesk 360 "
                "indicando la matricola del dipendente."
            ),
            domain="technical_topics",
            section="sezione-technical_topics",
            topic="token",
            keywords=("token di sicurezza",),
            modified_at=system.clock.now() + 60,
        )
    )
    print("  (the page is saved, but the next polling cycle has not fired yet)")
    ask(system)

    print("09:15 — the ingestion cron fires, the indexer drains the queue:")
    system.clock.advance(15 * 60)
    system.refresh()
    ask(system)
    print("  A desk that searches only its own domain finds the new page too:")
    ask(system, filters={"domain": "technical_topics"})

    print("11:30 — the editor corrects the page (the procedure moved to FirmaWeb):")
    system.clock.advance(2 * 3600)
    store.update_html(
        "kb/token/new-page",
        PAGE.format(
            body="Per richiedere il token di sicurezza accedere a FirmaWeb e compilare il "
            "modulo digitale; la consegna avviene in filiale entro tre giorni."
        ),
        modified_at=system.clock.now() + 30,
    )
    system.clock.advance(15 * 60)
    system.refresh()
    ask(system)

    print("17:00 — the page is retired (procedure dismissed):")
    system.clock.advance(5 * 3600)
    store.delete("kb/token/new-page", deleted_at=system.clock.now() + 10)
    system.clock.advance(15 * 60)
    system.refresh()
    ask(system)

    embedder = system.embedder
    print("Operational counters over the whole day:")
    print(
        f"  embedding cache: hits {embedder.hits}, misses {embedder.misses} "
        "(the unchanged title re-embeds for free on every edit)"
    )
    print(f"  queue stats: {system.queue.stats}")
    print(f"  index tombstone ratio: {system.index.tombstone_ratio:.2%}")
    system.index.vacuum()
    print(f"  after vacuum        : {system.index.tombstone_ratio:.2%}")


if __name__ == "__main__":
    main()
