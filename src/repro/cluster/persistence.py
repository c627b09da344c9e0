"""Cluster persistence.

A sharded deployment restarts from disk exactly like the single-index one
(:mod:`repro.search.persistence`): each shard is saved with ``save_index``
into its own sub-directory, and a ``cluster.json`` manifest records the
topology (shard ids, virtual-node count, pins) plus the global insertion
ordinals that make merged rankings reproduce single-index tie order after
a reload.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cluster.planner import ShardPlanner
from repro.cluster.sharded_index import ShardedSearchIndex
from repro.embeddings.model import EmbeddingModel
from repro.search.persistence import load_index, replace_file, save_index
from repro.text.analyzer import ItalianAnalyzer

_FORMAT_VERSION = 1

_MANIFEST = "cluster.json"

#: Every manifest key and the JSON type it must have; members are integers.
_MANIFEST_TYPES = {
    "vnodes": int,
    "shard_ids": list,
    "pins": dict,
    "next_ordinal": int,
    "ordinals": dict,
}


def _shard_directory(directory: Path, shard_id: int) -> Path:
    return directory / f"shard-{shard_id:03d}"


def save_cluster(index: ShardedSearchIndex, directory: str | Path) -> Path:
    """Persist every shard of *index* plus the cluster manifest.

    Returns the directory path.  Tombstoned chunks are not persisted
    (``save_index`` acts as an implicit per-shard vacuum), so only live
    chunks' ordinals enter the manifest.  The shards are written first and
    the manifest last, through a temporary file renamed into place: an
    interrupted save never leaves a manifest describing shards that are
    not (yet) on disk.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    planner = index.planner
    for shard_id in planner.shard_ids:
        save_index(index.shard_index(shard_id), _shard_directory(directory, shard_id))
    manifest = {
        "version": _FORMAT_VERSION,
        "vnodes": planner.vnodes,
        "shard_ids": list(planner.shard_ids),
        "pins": planner.pins,
        "next_ordinal": index.next_ordinal,
        "ordinals": index.live_ordinals(),
    }
    replace_file(directory / _MANIFEST, json.dumps(manifest, ensure_ascii=False).encode())
    return directory


def _read_manifest(directory: Path) -> dict:
    """The manifest of *directory*, checked; ``ValueError`` names what is wrong.

    A manifest that parses but lies must not load: a chunk without its
    ordinal would silently sort last on score ties instead of failing.
    """
    manifest = json.loads((directory / _MANIFEST).read_text())
    if not isinstance(manifest, dict):
        raise ValueError("cluster manifest is not a JSON object")
    if manifest.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported cluster format version: {manifest.get('version')}")
    manifest.setdefault("pins", {})
    for key, kind in _MANIFEST_TYPES.items():
        value = manifest.get(key)
        if not isinstance(value, kind):
            raise ValueError(f"cluster manifest {key!r} must be a {kind.__name__}, found {value!r}")
        members = (value,) if kind is int else value if kind is list else value.values()
        if not all(type(member) is int for member in members):
            raise ValueError(f"cluster manifest {key!r} holds a non-integer")
    for shard_id in manifest["shard_ids"]:
        shard_directory = _shard_directory(directory, shard_id)
        if not shard_directory.is_dir():
            raise ValueError(f"shard {shard_id} has no {shard_directory.name} directory")
    return manifest


def load_cluster(
    directory: str | Path,
    embedder: EmbeddingModel,
    ann_backend: str = "hnsw",
    seed: int = 42,
    analyzer: ItalianAnalyzer | None = None,
) -> ShardedSearchIndex:
    """Load a persisted sharded index from *directory*.

    As with :func:`repro.search.persistence.load_index`, the persisted
    chunk vectors are inserted as-is — loading never re-embeds, each
    shard's bulk load ends sealed rather than buffered, and *analyzer*
    must be the chain the shards were saved with.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    planner = ShardPlanner(
        shard_ids=manifest["shard_ids"], vnodes=manifest["vnodes"], pins=manifest["pins"]
    )
    shard_indexes = {
        shard_id: load_index(
            _shard_directory(directory, shard_id),
            embedder=embedder,
            ann_backend=ann_backend,
            seed=seed,
            analyzer=analyzer,
        )
        for shard_id in planner.shard_ids
    }
    schema = next(iter(shard_indexes.values())).schema
    index = ShardedSearchIndex(
        embedder=embedder,
        schema=schema,
        ann_backend=ann_backend,
        seed=seed,
        analyzer=analyzer,
        planner=planner,
        shard_indexes=shard_indexes,
    )
    ordinals = manifest["ordinals"]
    live = index.live_ordinals().keys()
    if live != ordinals.keys():
        unordered, orphaned = sorted(live - ordinals.keys()), sorted(ordinals.keys() - live)
        raise ValueError(
            f"cluster manifest ordinals do not match the shards' live chunks: "
            f"{len(unordered)} live chunks without an ordinal {unordered[:3]}, "
            f"{len(orphaned)} ordinals for no live chunk {orphaned[:3]}"
        )
    index.restore_ordinals(ordinals, next_ordinal=manifest["next_ordinal"])
    return index
