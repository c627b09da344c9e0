"""Save/load roundtrip tests for sharded deployments."""

from __future__ import annotations

import json

import pytest

from repro.cluster import ClusterSearcher, ShardedSearchIndex, load_cluster, save_cluster
from repro.embeddings.model import SyntheticAdaEmbedder
from repro.obs.trace import RequestContext
from repro.search.hybrid import HybridSearchConfig
from repro.search.schema import ChunkRecord

QUERIES = (
    "bonifico per l'estero",
    "carta di credito bloccata",
    "quadratura di cassa serale",
)


def _record(doc: str, content: str) -> ChunkRecord:
    return ChunkRecord(
        chunk_id=f"{doc}#0",
        doc_id=doc,
        title=f"Titolo {doc}",
        content=content,
        domain="governance",
        keywords=("tag1", "tag2"),
    )


def _corpus(n: int = 12) -> list[ChunkRecord]:
    themes = (
        "contenuto sul bonifico estero",
        "contenuto sulla carta di credito",
        "contenuto sulla quadratura di cassa",
        "contenuto sul mutuo ipotecario",
    )
    return [
        _record(f"kb-doc-{i:03d}", f"{themes[i % len(themes)]} variante {i}")
        for i in range(n)
    ]


@pytest.fixture()
def embedder() -> SyntheticAdaEmbedder:
    return SyntheticAdaEmbedder(None, dim=32, seed=9)


@pytest.fixture()
def populated(embedder) -> ShardedSearchIndex:
    index = ShardedSearchIndex(embedder=embedder, num_shards=3, ann_backend="exact", seed=9)
    index.add_chunks(_corpus())
    return index


def _reload(populated, directory, embedder, ann_backend="exact"):
    save_cluster(populated, directory)
    return load_cluster(directory, embedder, ann_backend=ann_backend, seed=9)


def _searcher(index: ShardedSearchIndex) -> ClusterSearcher:
    return ClusterSearcher(index, config=HybridSearchConfig(use_reranker=False))


class TestClusterRoundtrip:
    def test_roundtrip_preserves_shards_and_records(self, populated, embedder, tmp_path):
        loaded = _reload(populated, tmp_path / "cluster", embedder)
        assert len(loaded) == len(populated)
        assert loaded.shard_ids == populated.shard_ids
        for shard_id in populated.shard_ids:
            original = populated.shard_index(shard_id)
            restored = loaded.shard_index(shard_id)
            assert {original.record(i).chunk_id for i in original.live_internals()} == {
                restored.record(i).chunk_id for i in restored.live_internals()
            }

    def test_search_results_identical_after_reload(self, populated, embedder, tmp_path):
        loaded = _reload(populated, tmp_path / "cluster", embedder)
        before, after = _searcher(populated), _searcher(loaded)
        for query in QUERIES:
            a = before.search(query)
            b = after.search(query)
            assert [r.record.chunk_id for r in a] == [r.record.chunk_id for r in b]
            assert [r.score for r in a] == [r.score for r in b]

    def test_ordinals_survive_the_roundtrip(self, populated, embedder, tmp_path):
        loaded = _reload(populated, tmp_path / "cluster", embedder)
        assert loaded.live_ordinals() == populated.live_ordinals()
        assert loaded.next_ordinal == populated.next_ordinal

    def test_save_drops_tombstones(self, populated, embedder, tmp_path):
        victim = "kb-doc-001"
        shard_id = populated.planner.assign(victim)
        populated.delete_document(victim)
        loaded = _reload(populated, tmp_path / "cluster", embedder)
        assert len(loaded) == len(populated)  # __len__ counts live chunks only
        restored = loaded.shard_index(shard_id)
        assert restored.tombstone_ratio == 0.0
        assert all(
            restored.record(i).doc_id != victim for i in restored.live_internals()
        )
        assert f"{victim}#0" not in loaded.live_ordinals()

    def test_new_writes_after_reload_route_and_order_correctly(
        self, populated, embedder, tmp_path
    ):
        loaded = _reload(populated, tmp_path / "cluster", embedder)
        record = _record("kb-doc-999", "contenuto nuovo sul fido di conto")
        loaded.add_chunk(record)
        expected_shard = loaded.planner.assign("kb-doc-999")
        shard = loaded.shard_index(expected_shard)
        assert any(
            shard.record(i).chunk_id == record.chunk_id for i in shard.live_internals()
        )
        # Insertion ordinals keep growing monotonically past the reload.
        assert loaded.ordinal(record.chunk_id) == populated.next_ordinal

    def test_hnsw_backend_roundtrip(self, embedder, tmp_path):
        index = ShardedSearchIndex(embedder=embedder, num_shards=2, ann_backend="hnsw", seed=9)
        index.add_chunks(_corpus(8))
        loaded = _reload(index, tmp_path / "cluster", embedder, ann_backend="hnsw")
        results = _searcher(loaded).search("bonifico estero")
        assert results
        assert len(loaded) == 8

    def test_unsupported_manifest_version_rejected(self, populated, embedder, tmp_path):
        directory = save_cluster(populated, tmp_path / "cluster")
        manifest = json.loads((directory / "cluster.json").read_text())
        for version in (1, 99):  # 1 recorded a ring that could change; no reader
            manifest["version"] = version
            (directory / "cluster.json").write_text(json.dumps(manifest))
            with pytest.raises(ValueError, match=f"unsupported cluster format version: {version}"):
                load_cluster(directory, embedder, seed=9)

    def test_a_language_pack_survives_the_roundtrip(self, embedder, tmp_path):
        from repro.text.english import english_analyzer

        index = ShardedSearchIndex(
            embedder=embedder, num_shards=2, ann_backend="exact", seed=9,
            analyzer=english_analyzer(),
        )
        index.add_chunks(
            [_record(f"doc-{i}", f"the policies about cards at branch {i}") for i in range(6)]
        )
        save_cluster(index, tmp_path / "cluster")
        with pytest.raises(ValueError, match="english_stem"):
            load_cluster(tmp_path / "cluster", embedder, ann_backend="exact", seed=9)
        loaded = load_cluster(
            tmp_path / "cluster", embedder, ann_backend="exact", seed=9,
            analyzer=english_analyzer(),
        )
        for query in ("policy", "the", "card"):
            assert _searcher(loaded).search(query) == _searcher(index).search(query)
        # The stemmed term matches, the English stop word has no text leg.
        explain = RequestContext(explain=True)
        hits = _searcher(loaded).search("policy", ctx=explain)
        assert all("rrf_text" in hit.components for hit in hits)
        hits = _searcher(loaded).search("the", ctx=explain)
        assert not any("rrf_text" in hit.components for hit in hits)

    def test_load_never_reembeds(self, populated, tmp_path):
        save_cluster(populated, tmp_path / "cluster")
        fresh = SyntheticAdaEmbedder(None, dim=32, seed=9)
        load_cluster(tmp_path / "cluster", fresh, ann_backend="exact", seed=9)
        assert fresh.calls == 0


def _edit_manifest(directory, edit) -> None:
    path = directory / "cluster.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


#: damage → (manifest edit, what the ValueError must say)
DAMAGE = {
    "half-the-ordinals-gone": (
        lambda m: [m["ordinals"].pop(chunk) for chunk in sorted(m["ordinals"])[::2]],
        "6 live chunks without an ordinal",
    ),
    "ordinal-for-no-chunk": (
        lambda m: m["ordinals"].update({"kb-doc-777#0": 777}),
        "1 ordinals for no live chunk",
    ),
    "no-ordinals": (lambda m: m.pop("ordinals"), "'ordinals' must be a dict"),
    "no-next-ordinal": (lambda m: m.pop("next_ordinal"), "'next_ordinal' must be a int"),
    "no-shards": (lambda m: m.pop("shards"), "'shards' must be a int"),
    "shards-a-string": (lambda m: m.update(shards="3"), "'shards' must be a int"),
    "zero-shards": (lambda m: m.update(shards=0), "'shards' must be >= 1, found 0"),
    "ordinal-a-string": (
        lambda m: m["ordinals"].update({"kb-doc-000#0": "0"}),
        "'ordinals' holds a non-integer",
    ),
    "shard-without-directory": (
        lambda m: m.update(shards=8),
        "shard 3 has no shard-003 directory",
    ),
    "next-ordinal-too-small": (lambda m: m.update(next_ordinal=3), "next_ordinal must exceed"),
    "two-chunks-one-ordinal": (
        lambda m: m["ordinals"].update({"kb-doc-001#0": m["ordinals"]["kb-doc-000#0"]}),
        "chunks 'kb-doc-000#0' and 'kb-doc-001#0' share ordinal 0",
    ),
    # Both on shard 2 (tests/test_cluster_planner.py pins the placement).
    "ordinals-against-the-shard-order": (
        lambda m: m["ordinals"].update({"kb-doc-000#0": 3, "kb-doc-003#0": 0}),
        "shard 2 holds 'kb-doc-000#0' before 'kb-doc-003#0', but their ordinals are 3 and 0",
    ),
}


class TestDamagedManifest:
    """A manifest that parses but lies must not load: half its ordinals
    deleted used to load fine and left those chunks sorting last on ties; a
    shared ordinal or two ordinals against the order a shard holds its
    chunks in would make a shard's cut disagree with the router's merge."""

    @pytest.mark.parametrize("edit, problem", DAMAGE.values(), ids=DAMAGE.keys())
    def test_each_damage_is_a_named_value_error(self, populated, embedder, tmp_path, edit, problem):
        directory = save_cluster(populated, tmp_path / "cluster")
        _edit_manifest(directory, edit)
        with pytest.raises(ValueError, match=problem):
            load_cluster(directory, embedder, ann_backend="exact", seed=9)

    @pytest.mark.parametrize(
        "source, problem",
        [
            ("shard-001", "shard-001/records.json row 1 field 'chunk_id': .* is row 0's"),
            ("shard-000", "1 ordinals for no live chunk"),
        ],
        ids=["within-a-shard", "across-shards"],
    )
    def test_a_record_overwritten_by_another_is_refused(
        self, populated, embedder, tmp_path, source, problem
    ):
        """``load_index`` refuses a shard whose records share a ``chunk_id``
        and names the shard; a record overwritten by another shard's leaves
        its own ordinal without a live chunk."""
        directory = save_cluster(populated, tmp_path / "cluster")
        path = directory / "shard-001" / "records.json"
        manifest = json.loads(path.read_text())
        other = json.loads((directory / source / "records.json").read_text())
        manifest["records"][1 if source == "shard-001" else 0] = other["records"][0]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=problem):
            load_cluster(directory, embedder, ann_backend="exact", seed=9)

    def test_a_shard_directory_gone_missing_is_named(self, populated, embedder, tmp_path):
        directory = save_cluster(populated, tmp_path / "cluster")
        (directory / "shard-001").rename(directory / "elsewhere")
        with pytest.raises(ValueError, match="shard 1 has no shard-001 directory"):
            load_cluster(directory, embedder, ann_backend="exact", seed=9)

    def test_a_truncated_manifest_never_loads(self, populated, embedder, tmp_path):
        directory = save_cluster(populated, tmp_path / "cluster")
        text = (directory / "cluster.json").read_text()
        for quarter in range(4):
            (directory / "cluster.json").write_text(text[: len(text) * quarter // 4])
            with pytest.raises(ValueError):
                load_cluster(directory, embedder, ann_backend="exact", seed=9)

    def test_manifest_is_written_last_and_whole(self, populated, embedder, tmp_path, monkeypatch):
        """A save interrupted in a shard leaves no manifest (first save) or
        the previous, still loadable, one — never one describing shards
        that are not on disk."""
        import repro.cluster.persistence as persistence

        directory = tmp_path / "cluster"
        real_save_index = persistence.save_index

        def failing_on_the_last_shard(index, target):
            if target.name == f"shard-{populated.shard_ids[-1]:03d}":
                raise OSError("disk full")
            return real_save_index(index, target)

        monkeypatch.setattr(persistence, "save_index", failing_on_the_last_shard)
        with pytest.raises(OSError):
            save_cluster(populated, directory)
        assert not (directory / "cluster.json").exists()
        monkeypatch.undo()
        save_cluster(populated, directory)
        assert sorted(path.name for path in directory.iterdir()) == [
            "cluster.json", "shard-000", "shard-001", "shard-002",
        ]
        assert load_cluster(directory, embedder, ann_backend="exact", seed=9).live_ordinals() == (
            populated.live_ordinals()
        )
