"""Unit tests for the ingestion/indexing pipeline substrate."""

from __future__ import annotations

import pytest

from repro.embeddings.model import SyntheticAdaEmbedder
from repro.pipeline.clock import SimulatedClock
from repro.pipeline.indexing import IndexingService
from repro.pipeline.ingestion import DEFAULT_POLL_INTERVAL, IngestionService
from repro.pipeline.queue import MessageQueue
from repro.pipeline.store import KbDocument, KnowledgeBaseStore
from repro.search.index import SearchIndex


def _doc(doc_id: str, body: str, modified_at: float = 0.0) -> KbDocument:
    html = f"<html><head><title>{doc_id}</title></head><body><p>{body}</p></body></html>"
    return KbDocument(doc_id=doc_id, html=html, domain="technical_topics", modified_at=modified_at)


class TestSimulatedClock:
    def test_advance(self):
        clock = SimulatedClock()
        assert clock.now() == 0.0
        clock.advance(5.0)
        assert clock.now() == 5.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)

    def test_advance_to(self):
        clock = SimulatedClock(start=10.0)
        clock.advance_to(5.0)  # no-op
        assert clock.now() == 10.0
        clock.advance_to(20.0)
        assert clock.now() == 20.0


class TestMessageQueue:
    def test_fifo_order(self):
        queue = MessageQueue()
        queue.publish({"n": 1})
        queue.publish({"n": 2})
        assert queue.receive().body["n"] == 1
        assert queue.receive().body["n"] == 2

    def test_empty_receive(self):
        assert MessageQueue().receive() is None

    def test_acknowledge_completes(self):
        queue = MessageQueue()
        queue.publish({})
        message = queue.receive()
        queue.acknowledge(message.message_id)
        assert queue.in_flight == 0

    def test_abandon_redelivers_with_count(self):
        queue = MessageQueue()
        queue.publish({"x": 1})
        message = queue.receive()
        queue.abandon(message.message_id)
        redelivered = queue.receive()
        assert redelivered.body == {"x": 1}
        assert redelivered.delivery_count == 2

    def test_double_ack_rejected(self):
        queue = MessageQueue()
        queue.publish({})
        message = queue.receive()
        queue.acknowledge(message.message_id)
        with pytest.raises(KeyError):
            queue.acknowledge(message.message_id)

    def test_stats(self):
        queue = MessageQueue()
        queue.publish({})
        message = queue.receive()
        queue.abandon(message.message_id)
        queue.acknowledge(queue.receive().message_id)
        assert queue.stats.enqueued == 1
        assert queue.stats.delivered == 2
        assert queue.stats.redelivered == 1
        assert queue.stats.acknowledged == 1


class TestKnowledgeBaseStore:
    def test_put_get(self):
        store = KnowledgeBaseStore()
        store.put(_doc("a", "testo"))
        assert store.get("a").doc_id == "a"
        assert "a" in store

    def test_modified_since(self):
        store = KnowledgeBaseStore()
        store.put(_doc("old", "x", modified_at=10.0))
        store.put(_doc("new", "y", modified_at=100.0))
        assert [d.doc_id for d in store.modified_since(50.0)] == ["new"]

    def test_update_html_bumps_modified(self):
        store = KnowledgeBaseStore()
        store.put(_doc("a", "v1", modified_at=0.0))
        store.update_html("a", "<p>v2</p>", modified_at=99.0)
        assert store.get("a").modified_at == 99.0

    def test_delete_tracked(self):
        store = KnowledgeBaseStore()
        store.put(_doc("a", "x"))
        store.delete("a", deleted_at=5.0)
        assert "a" not in store
        assert store.deleted_since(1.0) == ["a"]

    def test_reput_clears_deletion(self):
        store = KnowledgeBaseStore()
        store.put(_doc("a", "x"))
        store.delete("a", deleted_at=5.0)
        store.put(_doc("a", "di nuovo", modified_at=6.0))
        assert store.deleted_since(0.0) == []


class TestIngestionService:
    def _wiring(self):
        store = KnowledgeBaseStore()
        queue = MessageQueue()
        clock = SimulatedClock()
        service = IngestionService(store, queue, clock)
        return store, queue, clock, service

    def test_initial_poll_sees_everything(self):
        store, queue, clock, service = self._wiring()
        store.put(_doc("a", "x"))
        store.put(_doc("b", "y"))
        report = service.poll_now()
        assert report.upserts == 2
        assert len(queue) == 2

    def test_subsequent_poll_only_changes(self):
        store, queue, clock, service = self._wiring()
        store.put(_doc("a", "x", modified_at=0.0))
        service.poll_now()
        while queue.receive():
            pass
        clock.advance(DEFAULT_POLL_INTERVAL)
        store.update_html("a", "<p>v2</p>", modified_at=clock.now())
        store.put(_doc("b", "nuovo", modified_at=clock.now()))
        report = service.poll_now()
        assert report.upserts == 2

    def test_deletions_published(self):
        store, queue, clock, service = self._wiring()
        store.put(_doc("a", "x"))
        service.poll_now()
        clock.advance(DEFAULT_POLL_INTERVAL)
        store.delete("a", deleted_at=clock.now())
        report = service.poll_now()
        assert report.deletes == 1

    def test_cron_schedule(self):
        store, queue, clock, service = self._wiring()
        assert service.poll_due()
        service.run_due_polls()
        assert not service.poll_due()
        clock.advance(DEFAULT_POLL_INTERVAL)
        assert service.poll_due()

    def test_catchup_runs_every_missed_tick(self):
        store, queue, clock, service = self._wiring()
        clock.advance(3 * DEFAULT_POLL_INTERVAL)
        reports = service.run_due_polls()
        assert len(reports) == 4  # t=0 plus three missed intervals

    def test_invalid_interval(self):
        store, queue, clock, _ = self._wiring()
        with pytest.raises(ValueError):
            IngestionService(store, queue, clock, poll_interval=0)


class TestIndexingService:
    def _wiring(self):
        store = KnowledgeBaseStore()
        queue = MessageQueue()
        index = SearchIndex(embedder=SyntheticAdaEmbedder(None, dim=16, seed=1), seed=1)
        service = IndexingService(store, queue, index)
        return store, queue, index, service

    def test_upsert_message_indexes_document(self):
        store, queue, index, service = self._wiring()
        store.put(_doc("a", "contenuto di prova"))
        queue.publish({"action": "upsert", "doc_id": "a"})
        report = service.drain()
        assert report.documents_indexed == 1
        assert len(index) == 1

    def test_update_replaces_chunks(self):
        store, queue, index, service = self._wiring()
        store.put(_doc("a", "versione uno"))
        queue.publish({"action": "upsert", "doc_id": "a"})
        service.drain()
        store.put(_doc("a", "versione due"))
        queue.publish({"action": "upsert", "doc_id": "a"})
        service.drain()
        assert len(index) == 1
        content = index.record(index.live_internals()[0]).content
        assert "due" in content

    def test_chunks_written_counts_what_the_drain_wrote(self):
        """It used to be the growth of ``len(index)``, so a drain of edits —
        the dominant write — reported 0."""
        store, queue, index, service = self._wiring()
        doc_ids = [f"d{n}" for n in range(16)]

        def publish_all():
            for doc_id in doc_ids:
                queue.publish({"action": "upsert", "doc_id": doc_id})
            return service.drain()

        for doc_id in doc_ids:
            store.put(_doc(doc_id, "versione uno"))
        assert publish_all().chunks_written == 16  # new pages
        for doc_id in doc_ids:
            store.put(_doc(doc_id, "versione due"))
        report = publish_all()
        assert (report.documents_indexed, report.chunks_written) == (16, 16)  # edits
        report = publish_all()
        assert (report.documents_indexed, report.chunks_written) == (16, 0)  # untouched re-polls
        queue.publish({"action": "delete", "doc_id": "d0"})
        report = service.drain()
        assert (report.documents_deleted, report.chunks_written) == (1, 0)
        assert len(index) == 15

    def test_an_edit_costs_the_title_field_nothing(self, monkeypatch):
        """An edited body leaves the title alone: its vector is neither
        embedded nor inserted again, and the title graph grows no dead node
        (every edit used to cost two embeds and two inserts)."""
        store, queue, index, service = self._wiring()
        doc_ids = [f"d{n}" for n in range(16)]
        for doc_id in doc_ids:
            store.put(_doc(doc_id, "versione uno"))
            queue.publish({"action": "upsert", "doc_id": doc_id})
        service.drain()
        embedded = []
        embed = index.embedder.embed
        monkeypatch.setattr(
            index.embedder, "embed", lambda text: embedded.append(text) or embed(text)
        )
        for doc_id in doc_ids:
            store.put(_doc(doc_id, "versione due"))
            queue.publish({"action": "upsert", "doc_id": doc_id})
        service.drain()
        assert embedded == ["versione due"] * 16
        assert len(index._vectors["title"]) == 16
        assert len(index._vectors["content"]) == 32  # a changed vector is a new node

    def test_delete_message(self):
        store, queue, index, service = self._wiring()
        store.put(_doc("a", "x"))
        queue.publish({"action": "upsert", "doc_id": "a"})
        service.drain()
        queue.publish({"action": "delete", "doc_id": "a"})
        report = service.drain()
        assert report.documents_deleted == 1
        assert len(index) == 0

    def test_upsert_for_since_deleted_doc_skipped(self):
        store, queue, index, service = self._wiring()
        queue.publish({"action": "upsert", "doc_id": "ghost"})
        report = service.drain()
        assert report.documents_indexed == 0

    def test_process_one(self):
        store, queue, index, service = self._wiring()
        assert service.process_one() is False
        store.put(_doc("a", "x"))
        queue.publish({"action": "upsert", "doc_id": "a"})
        assert service.process_one() is True
        assert queue.in_flight == 0

    def test_bad_message_abandoned(self):
        store, queue, index, service = self._wiring()
        queue.publish({"action": "explode", "doc_id": "a"})
        with pytest.raises(ValueError):
            service.process_one()
        assert len(queue) == 1  # message back in the queue

    def test_drain_rejects_what_process_one_rejects(self):
        """An unknown action used to make ``drain()`` silently re-index the
        document (generation +2) where ``process_one()`` raised."""
        store, queue, index, service = self._wiring()
        store.put(_doc("a", "x"))
        queue.publish({"action": "upsert", "doc_id": "a"})
        service.drain()
        generation = index.generation
        queue.publish({"action": "purge", "doc_id": "a"})
        with pytest.raises(ValueError, match="unknown action 'purge'"):
            service.drain()
        assert (len(queue), queue.in_flight) == (1, 0)  # abandoned, not lost
        assert index.generation == generation  # nothing was re-indexed

    def test_metadata_mapped_to_chunks(self):
        store, queue, index, service = self._wiring()
        store.put(
            KbDocument(
                doc_id="a",
                html="<html><head><title>T</title></head><body><p>testo</p></body></html>",
                domain="governance",
                section="sez",
                topic="reclamo",
                keywords=("reclamo",),
            )
        )
        queue.publish({"action": "upsert", "doc_id": "a"})
        service.drain()
        record = index.record(index.live_internals()[0])
        assert record.domain == "governance"
        assert record.keywords == ("reclamo",)
        assert record.title == "T"
