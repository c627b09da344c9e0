"""Cluster persistence.

A sharded deployment restarts from disk exactly like the single-index one
(:mod:`repro.search.persistence`): each shard is saved with ``save_index``
into its own sub-directory, and a ``cluster.json`` manifest records the
shard count (the placement ring is a function of it) plus the global
insertion ordinals the router merges shard rankings by.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cluster.sharded_index import ShardedSearchIndex
from repro.embeddings.model import EmbeddingModel
from repro.search.persistence import load_index, replace_file, save_index
from repro.text.analyzer import ItalianAnalyzer

_FORMAT_VERSION = 2

_MANIFEST = "cluster.json"

#: Every manifest key and the JSON type it must have; members are integers.
_MANIFEST_TYPES = {
    "shards": int,
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

    for shard_id in index.shard_ids:
        save_index(index.shard_index(shard_id), _shard_directory(directory, shard_id))
    manifest = {
        "version": _FORMAT_VERSION,
        "shards": index.num_shards,
        "next_ordinal": index.next_ordinal,
        "ordinals": index.live_ordinals(),
    }
    replace_file(directory / _MANIFEST, json.dumps(manifest, ensure_ascii=False).encode())
    return directory


def _read_manifest(directory: Path) -> dict:
    """The manifest of *directory*, checked; ``ValueError`` names what is wrong.

    A manifest that parses but lies must not load: a chunk without its
    ordinal would have no place in the router's merge.
    """
    manifest = json.loads((directory / _MANIFEST).read_text())
    if not isinstance(manifest, dict):
        raise ValueError("cluster manifest is not a JSON object")
    if manifest.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported cluster format version: {manifest.get('version')}")
    for key, kind in _MANIFEST_TYPES.items():
        value = manifest.get(key)
        if not isinstance(value, kind):
            raise ValueError(f"cluster manifest {key!r} must be a {kind.__name__}, found {value!r}")
        members = (value,) if kind is int else value.values()
        if not all(type(member) is int for member in members):
            raise ValueError(f"cluster manifest {key!r} holds a non-integer")
    if manifest["shards"] < 1:
        raise ValueError(f"cluster manifest 'shards' must be >= 1, found {manifest['shards']}")
    for shard_id in range(manifest["shards"]):
        shard_directory = _shard_directory(directory, shard_id)
        if not shard_directory.is_dir():
            raise ValueError(f"shard {shard_id} has no {shard_directory.name} directory")
    return manifest


def _check_ordinals(index: ShardedSearchIndex, ordinals: dict[str, int], next_ordinal: int) -> None:
    """``ValueError`` unless *ordinals* give each live chunk of *index* its
    own ordinal, below *next_ordinal* and ascending with internal id in
    every shard — the order the shard cuts its ties in."""
    shards: dict[int, list[str]] = {}
    for shard_id in index.shard_ids:
        shard = index.shard_index(shard_id)
        shards[shard_id] = [shard.record(internal).chunk_id for internal in shard.live_internals()]
    live = {chunk_id for chunk_ids in shards.values() for chunk_id in chunk_ids}
    if live != ordinals.keys():
        unordered, orphaned = sorted(live - ordinals.keys()), sorted(ordinals.keys() - live)
        raise ValueError(
            f"cluster manifest ordinals do not match the shards' live chunks: "
            f"{len(unordered)} live chunks without an ordinal {unordered[:3]}, "
            f"{len(orphaned)} ordinals for no live chunk {orphaned[:3]}"
        )
    owners: dict[int, str] = {}
    for chunk_id, ordinal in ordinals.items():
        owner = owners.setdefault(ordinal, chunk_id)
        if owner != chunk_id:
            raise ValueError(f"chunks {owner!r} and {chunk_id!r} share ordinal {ordinal}")
    if ordinals and next_ordinal <= max(ordinals.values()):
        raise ValueError("next_ordinal must exceed every restored ordinal")
    for shard_id, chunk_ids in shards.items():
        for before, after in zip(chunk_ids, chunk_ids[1:]):
            if ordinals[before] > ordinals[after]:
                raise ValueError(
                    f"shard {shard_id} holds {before!r} before {after!r}, "
                    f"but their ordinals are {ordinals[before]} and {ordinals[after]}"
                )


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
    shard_indexes = {
        shard_id: load_index(
            _shard_directory(directory, shard_id),
            embedder=embedder,
            ann_backend=ann_backend,
            seed=seed,
            analyzer=analyzer,
        )
        for shard_id in range(manifest["shards"])
    }
    schema = next(iter(shard_indexes.values())).schema
    index = ShardedSearchIndex(
        embedder=embedder,
        schema=schema,
        ann_backend=ann_backend,
        seed=seed,
        analyzer=analyzer,
        shard_indexes=shard_indexes,
    )
    _check_ordinals(index, manifest["ordinals"], manifest["next_ordinal"])
    index.restore_ordinals(manifest["ordinals"], next_ordinal=manifest["next_ordinal"])
    return index
