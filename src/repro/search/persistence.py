"""Index persistence.

A production deployment does not rebuild its index on restart: records and
embeddings are persisted and reloaded.  This module saves a
:class:`~repro.search.index.SearchIndex` to a directory —

* ``vectors.npz``  — one embedding matrix per vector field, row-aligned
  with the records;
* ``records.json`` — every live chunk record plus the schema, the
  embedding width, the analyzer's fingerprint and ``vectors.npz``'s byte
  length and sha256;

— each through a temporary name renamed into place, ``records.json`` last,
so an interrupted save leaves the old pair or a pair whose digest does not
match — and loads it back without re-embedding anything (the ANN graphs are
rebuilt deterministically from the stored vectors).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from repro.embeddings.model import EmbeddingModel
from repro.search.index import SearchIndex
from repro.search.schema import ChunkRecord, FieldDefinition, IndexSchema
from repro.text.analyzer import FULL_ANALYZER, ItalianAnalyzer

_FORMAT_VERSION = 2


def replace_file(path: Path, data: bytes) -> None:
    """Write *data* to *path* through a temporary name renamed into place."""
    temporary = path.with_name(path.name + ".tmp")
    temporary.write_bytes(data)
    os.replace(temporary, path)


def save_index(index: SearchIndex, directory: str | Path) -> Path:
    """Persist all live chunks of *index* into *directory*.

    Returns the directory path.  Tombstoned chunks are not persisted, so a
    save acts as an implicit vacuum.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    internals = sorted(index.live_internals())
    records = [dataclasses.asdict(index.record(internal)) for internal in internals]

    vector_fields = index.schema.vector_fields
    matrices: dict[str, np.ndarray] = {}
    for field_name in vector_fields:
        rows = [index.chunk_vector(internal, field_name) for internal in internals]
        matrices[field_name] = np.stack(rows) if rows else np.zeros((0, index.embedder.dim))

    archive = io.BytesIO()
    np.savez_compressed(archive, **matrices)
    vectors = archive.getvalue()
    manifest = {
        "version": _FORMAT_VERSION,
        "embedding_dim": index.embedder.dim,
        "analyzer": index.analyzer.fingerprint(),
        "schema": [dataclasses.asdict(field) for field in index.schema.fields],
        "vectors": {"bytes": len(vectors), "sha256": hashlib.sha256(vectors).hexdigest()},
        "records": records,
    }
    replace_file(directory / "vectors.npz", vectors)
    replace_file(directory / "records.json", json.dumps(manifest, ensure_ascii=False).encode())
    return directory


def _read_vectors(
    path: Path, fields: tuple[str, ...], manifest: dict, dim: int
) -> dict[str, np.ndarray]:
    """The matrices of *path*, checked; ``ValueError`` names what is wrong.

    A vector file that does not hold exactly one finite ``(rows, dim)``
    matrix per vector field of the *manifest*'s records must not load: a
    missing field would be re-embedded behind the caller's back and a
    surplus row ignored.  Nor must one of another byte length or sha256
    than the manifest's: vectors of another save, or with a bit flipped
    inside an archive that still unzips.
    """
    rows = len(manifest["records"])
    # Imported where numpy itself first needs them: a process that only
    # builds and serves never pays for the zip machinery.
    import zipfile
    import zlib

    data = path.read_bytes()
    try:
        with np.load(io.BytesIO(data)) as archive:
            matrices = {name: archive[name] for name in archive.files}
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as error:
        raise ValueError(f"{path.name} is damaged: {error}") from error
    if sorted(matrices) != sorted(fields):
        raise ValueError(
            f"{path.name} holds the fields {sorted(matrices)}, "
            f"the schema's vector fields are {sorted(fields)}"
        )
    for name, matrix in matrices.items():
        if matrix.shape != (rows, dim) or not np.issubdtype(matrix.dtype, np.floating):
            raise ValueError(
                f"{path.name} field {name!r} is {matrix.dtype}{matrix.shape}, "
                f"expected one float row of width {dim} for each of the {rows} records"
            )
        damaged = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
        if len(damaged):
            raise ValueError(
                f"{path.name} field {name!r} holds {len(damaged)} non-finite rows "
                f"{damaged[:3].tolist()}"
            )
    digest = hashlib.sha256(data).hexdigest()
    written = manifest.get("vectors", {})
    described = (written.get("bytes"), written.get("sha256"))
    if (len(data), digest) != described:
        raise ValueError(
            f"{path.name} is {len(data)} bytes with sha256 {digest}, "
            f"records.json describes {described[0]} bytes with sha256 {described[1]}"
        )
    return matrices


def _records(payloads: list, path: Path) -> list[ChunkRecord]:
    """The chunk records of *path*; ``ValueError`` names the row and the
    field of a missing or unknown field and of a shared ``chunk_id``."""
    fields = {field.name for field in dataclasses.fields(ChunkRecord)}
    records, first_rows = [], {}
    for row, payload in enumerate(payloads):
        odd = sorted(fields ^ payload.keys())
        if odd:
            state = "missing" if odd[0] in fields else "not a chunk record field"
            raise ValueError(f"{path} row {row} field {odd[0]!r}: {state}")
        chunk_id = payload["chunk_id"]
        first = first_rows.setdefault(chunk_id, row)
        if first != row:
            raise ValueError(f"{path} row {row} field 'chunk_id': {chunk_id!r} is row {first}'s")
        tuples = {key: tuple(payload[key]) for key in ("keywords", "llm_keywords")}
        records.append(ChunkRecord(**{**payload, **tuples}))
    return records


def load_index(
    directory: str | Path,
    embedder: EmbeddingModel,
    ann_backend: str = "hnsw",
    seed: int = 42,
    analyzer: ItalianAnalyzer | None = None,
) -> SearchIndex:
    """Load a persisted index from *directory*, never re-embedding: the
    stored vectors are inserted as-is and the *embedder*, of the saved
    width, serves later writes and queries.

    Everything is checked before the first insert.  ``ValueError`` names a
    ``records.json`` without a key it needs, a record with a missing or
    unknown field or a shared ``chunk_id``, a ``vectors.npz`` that is not
    the records' vectors (:func:`_read_vectors`) and an *analyzer* (None →
    the Italian default, as is a manifest without a fingerprint) other than
    the chain the index was saved with.  The bulk load ends with a buffer
    seal (:meth:`~repro.search.index.SearchIndex.flush`), so a loaded
    segmented index serves from sealed kernels.
    """
    directory = Path(directory)
    path = directory / "records.json"
    manifest = json.loads(path.read_text())
    if manifest.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported index format version: {manifest.get('version')}")
    for key in ("embedding_dim", "schema", "records"):
        if key not in manifest:
            raise ValueError(f"{path} field {key!r}: missing")
    if manifest["embedding_dim"] != embedder.dim:
        raise ValueError(
            f"embedder dim {embedder.dim} does not match saved dim {manifest['embedding_dim']}"
        )
    analyzer = analyzer if analyzer is not None else FULL_ANALYZER
    saved_chain = manifest.get("analyzer", FULL_ANALYZER.fingerprint())
    if saved_chain != analyzer.fingerprint():
        raise ValueError(
            f"the index was saved with the analyzer {saved_chain}, "
            f"it is being loaded with {analyzer.fingerprint()}"
        )

    schema = IndexSchema(tuple(FieldDefinition(**field) for field in manifest["schema"]))
    matrices = _read_vectors(directory / "vectors.npz", schema.vector_fields, manifest, embedder.dim)
    records = _records(manifest["records"], path)
    index = SearchIndex(
        embedder=embedder, schema=schema, ann_backend=ann_backend, seed=seed, analyzer=analyzer
    )
    for row, record in enumerate(records):
        index.add_chunk(record, vectors={name: matrices[name][row] for name in matrices})
    index.flush()
    return index
