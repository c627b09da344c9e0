"""Save/load roundtrip tests for sharded deployments."""

from __future__ import annotations

import json

import pytest

from repro.cluster import ClusterSearcher, ShardedSearchIndex, load_cluster, save_cluster
from repro.embeddings.model import SyntheticAdaEmbedder
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

    def test_manifest_restores_planner_topology(self, populated, embedder, tmp_path):
        new_shard = populated.add_shard()
        populated.planner.pin("kb-doc-000", new_shard)
        loaded = _reload(populated, tmp_path / "cluster", embedder)
        assert loaded.shard_ids == populated.shard_ids
        assert loaded.planner.vnodes == populated.planner.vnodes
        assert loaded.planner.pins == {"kb-doc-000": new_shard}
        docs = [f"kb-doc-{i:03d}" for i in range(40)]
        assert [loaded.planner.assign(d) for d in docs] == [
            populated.planner.assign(d) for d in docs
        ]

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
        manifest["version"] = 99
        (directory / "cluster.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
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
        assert all("rrf_text" in hit.components for hit in _searcher(loaded).search("policy"))
        assert not any("rrf_text" in hit.components for hit in _searcher(loaded).search("the"))
        # A shard added after the load analyses with the same chain.
        loaded.add_shard()
        index.add_shard()
        assert _searcher(loaded).search("policy") == _searcher(index).search("policy")

    def test_load_never_reembeds(self, populated, tmp_path):
        save_cluster(populated, tmp_path / "cluster")
        fresh = SyntheticAdaEmbedder(None, dim=32, seed=9)
        load_cluster(tmp_path / "cluster", fresh, ann_backend="exact", seed=9)
        assert fresh.calls == 0


class TestChunksMoveWithTheirVectors:
    """A placement change moves a chunk's stored vectors with it: nothing is
    re-embedded, so a cluster loaded beside an embedder of another seed still
    holds the vectors it was saved with after ``rebalance_shard`` /
    ``add_shard`` / ``remove_shard``."""

    @pytest.mark.parametrize("ann_backend", ("exact", "hnsw"))
    def test_topology_changes_never_embed(self, embedder, ann_backend, tmp_path):
        index = ShardedSearchIndex(embedder=embedder, num_shards=3, ann_backend=ann_backend, seed=9)
        index.add_chunks(_corpus())
        save_cluster(index, tmp_path / "cluster")
        other = SyntheticAdaEmbedder(None, dim=32, seed=10)
        loaded = load_cluster(tmp_path / "cluster", other, ann_backend=ann_backend, seed=9)

        def stored() -> dict[tuple[str, str], bytes]:
            return {
                (shard.record(internal).chunk_id, name): shard.chunk_vector(internal, name).tobytes()
                for shard in map(loaded.shard_index, loaded.shard_ids)
                for internal in shard.live_internals()
                for name in ("title", "content")
            }

        before = stored()
        assert len(before) == 24
        assert before[("kb-doc-000#0", "content")] == embedder.embed(_corpus()[0].content).tobytes()
        sizes = {shard_id: len(loaded.shard_index(shard_id)) for shard_id in loaded.shard_ids}
        moved = loaded.rebalance_shard(max(sizes, key=sizes.get), min(sizes, key=sizes.get), 0.5)
        assert moved > 0 and stored() == before
        loaded.remove_shard(loaded.add_shard() - 1)
        assert stored() == before
        assert other.calls == 0


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
    "no-vnodes": (lambda m: m.pop("vnodes"), "'vnodes' must be a int"),
    "no-ordinals": (lambda m: m.pop("ordinals"), "'ordinals' must be a dict"),
    "no-next-ordinal": (lambda m: m.pop("next_ordinal"), "'next_ordinal' must be a int"),
    "no-shard-ids": (lambda m: m.pop("shard_ids"), "'shard_ids' must be a list"),
    "vnodes-a-string": (lambda m: m.update(vnodes="64"), "'vnodes' must be a int"),
    "shard-ids-a-string": (lambda m: m.update(shard_ids="0,1,2"), "'shard_ids' must be a list"),
    "pin-to-null": (lambda m: m.update(pins={"kb-doc-000": None}), "'pins' holds a non-integer"),
    "ordinal-a-string": (
        lambda m: m["ordinals"].update({"kb-doc-000#0": "0"}),
        "'ordinals' holds a non-integer",
    ),
    "shard-without-directory": (
        lambda m: m["shard_ids"].append(7),
        "shard 7 has no shard-007 directory",
    ),
    "next-ordinal-too-small": (lambda m: m.update(next_ordinal=3), "next_ordinal must exceed"),
}


class TestDamagedManifest:
    """A manifest that parses but lies must not load: half its ordinals
    deleted used to load fine and left those chunks sorting last on ties."""

    @pytest.mark.parametrize("edit, problem", DAMAGE.values(), ids=DAMAGE.keys())
    def test_each_damage_is_a_named_value_error(self, populated, embedder, tmp_path, edit, problem):
        directory = save_cluster(populated, tmp_path / "cluster")
        _edit_manifest(directory, edit)
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
