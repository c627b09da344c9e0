"""Indexing service.

Section 3: event-triggered consumer of the ingestion queue.  For every
message it fetches the document from the KB store, parses the HTML, chunks
it with the paragraph-aligned strategy (512-token chunks, Section 4),
enriches the metadata via the LLM (summary + keywords), and feeds the
search index.  A document update is one upsert
(:meth:`~repro.search.index.SearchIndex.replace_document`) that re-indexes
the chunks of the page that changed and leaves the others alone; deletes
tombstone them.

Writes land in the index's segment write buffer and are queryable the
moment :meth:`IndexingService.process_one` returns — no batch rebuild sits
between an upsert and its visibility.  After each drain the service runs
the index's background segment maintenance on the simulated clock (seals,
merges, tombstone compaction), the continuous-freshness counterpart of the
paper's nightly batch refresh.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.htmlproc.chunking import HtmlParagraphChunker
from repro.htmlproc.parser import parse_html
from repro.pipeline.clock import SimulatedClock
from repro.pipeline.enrichment import MetadataEnricher
from repro.pipeline.queue import MessageQueue, QueueMessage
from repro.pipeline.store import KbDocument, KnowledgeBaseStore
from repro.search.index import SearchIndex
from repro.search.schema import ChunkRecord


@dataclass(frozen=True)
class IndexingReport:
    """What one drain of the queue accomplished."""

    messages: int
    documents_indexed: int
    documents_deleted: int
    chunks_written: int
    maintenance_ops: int = 0


class IndexingService:
    """Queue consumer that turns KB documents into index chunks."""

    def __init__(
        self,
        store: KnowledgeBaseStore,
        queue: MessageQueue,
        index: SearchIndex,
        enricher: MetadataEnricher | None = None,
        chunker: HtmlParagraphChunker | None = None,
        clock: SimulatedClock | None = None,
    ) -> None:
        self._store = store
        self._queue = queue
        self._index = index
        self._enricher = enricher
        self._chunker = chunker or HtmlParagraphChunker()
        self._clock = clock

    def build_records(self, document: KbDocument) -> list[ChunkRecord]:
        """Parse, chunk and enrich one document into its chunk records."""
        parsed = parse_html(document.html)
        chunks = self._chunker.chunk_document(parsed)
        if not chunks:
            return []

        summary = ""
        llm_keywords: tuple[str, ...] = ()
        if self._enricher is not None:
            enrichment = self._enricher.enrich(parsed.title, parsed.text)
            summary = enrichment.summary
            llm_keywords = enrichment.keywords

        return [
            ChunkRecord(
                chunk_id=f"{document.doc_id}#{chunk.index}",
                doc_id=document.doc_id,
                title=parsed.title,
                content=chunk.text,
                summary=summary,
                domain=document.domain,
                section=document.section,
                topic=document.topic,
                keywords=document.keywords,
                llm_keywords=llm_keywords,
            )
            for chunk in chunks
        ]

    def _apply(self, message: QueueMessage) -> tuple[str | None, int]:
        """Apply one leased message to the index and acknowledge it.

        Returns what was done — ``"delete"``, ``"upsert"``, or None for an
        upsert that found no document — and how many chunks that wrote.  Any
        failure, an unknown action included, abandons the message for
        redelivery and re-raises.
        """
        written = 0
        try:
            action = message.body.get("action")
            doc_id = message.body["doc_id"]
            if action == "delete":
                self._index.delete_document(doc_id)
            elif action == "upsert":
                if doc_id in self._store:
                    records = self.build_records(self._store.get(doc_id))
                    written = len(self._index.replace_document(doc_id, records))
                else:
                    # The document may have been deleted after the message was
                    # published; a missing doc means the delete message follows.
                    action = None
            else:
                raise ValueError(f"unknown action {action!r}")
        except Exception:
            self._queue.abandon(message.message_id)
            raise
        self._queue.acknowledge(message.message_id)
        return action, written

    def process_one(self) -> bool:
        """Consume one queue message; returns False when the queue is empty."""
        message = self._queue.receive()
        if message is None:
            return False
        self._apply(message)
        return True

    def drain(self) -> IndexingReport:
        """Consume every pending message; returns an aggregate report."""
        messages = indexed = deleted = chunks_written = 0
        while (message := self._queue.receive()) is not None:
            done, written = self._apply(message)
            messages += 1
            chunks_written += written
            indexed += done == "upsert"
            deleted += done == "delete"
        maintenance_ops = self.run_maintenance()
        return IndexingReport(
            messages=messages,
            documents_indexed=indexed,
            documents_deleted=deleted,
            chunks_written=chunks_written,
            maintenance_ops=maintenance_ops,
        )

    def run_maintenance(self) -> int:
        """Segment maintenance on the simulated clock; returns ops performed.

        A no-op without a clock (the index then merges only on explicit
        ``vacuum``).
        """
        if self._clock is None:
            return 0
        return sum(self._index.run_maintenance(self._clock.now()).values())
