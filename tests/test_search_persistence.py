"""Unit tests for index save/load."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.ann.hnsw import SCAN_BEAMS, HnswIndex
from repro.api.builders import create_engine
from repro.corpus.generator import KbGenerator, KbGeneratorConfig
from repro.embeddings.model import SyntheticAdaEmbedder
from repro.search.fulltext import FullTextSearch
from repro.search.index import SearchIndex
from repro.search.persistence import load_index, save_index
from repro.search.schema import ChunkRecord
from repro.text.analyzer import FULL_ANALYZER, ItalianAnalyzer
from repro.text.english import english_analyzer


def _record(doc: str, content: str) -> ChunkRecord:
    return ChunkRecord(
        chunk_id=f"{doc}#0",
        doc_id=doc,
        title=f"Titolo {doc}",
        content=content,
        domain="governance",
        keywords=("tag1", "tag2"),
    )


@pytest.fixture()
def embedder() -> SyntheticAdaEmbedder:
    return SyntheticAdaEmbedder(None, dim=32, seed=9)


@pytest.fixture()
def populated(embedder) -> SearchIndex:
    index = SearchIndex(embedder=embedder, seed=9)
    index.add_chunk(_record("a", "contenuto sul bonifico estero"))
    index.add_chunk(_record("b", "contenuto sulla carta di credito"))
    index.add_chunk(_record("c", "contenuto sulla quadratura di cassa"))
    return index


class TestPersistence:
    def test_roundtrip_preserves_records(self, populated, embedder, tmp_path):
        save_index(populated, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", embedder, seed=9)
        assert len(loaded) == 3
        originals = {populated.record(i).chunk_id for i in populated.live_internals()}
        restored = {loaded.record(i).chunk_id for i in loaded.live_internals()}
        assert originals == restored

    def test_roundtrip_preserves_tuple_fields(self, populated, embedder, tmp_path):
        save_index(populated, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", embedder, seed=9)
        record = loaded.record(loaded.live_internals()[0])
        assert record.keywords == ("tag1", "tag2")

    def test_search_results_identical_after_reload(self, populated, embedder, tmp_path):
        save_index(populated, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", embedder, seed=9)
        query = embedder.embed("il bonifico per l'estero")
        before = [populated.record(i).doc_id for i, _ in populated.vector_search("content", query, 3)]
        after = [loaded.record(i).doc_id for i, _ in loaded.vector_search("content", query, 3)]
        assert before == after

    def test_fulltext_works_after_reload(self, populated, embedder, tmp_path):
        save_index(populated, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", embedder, seed=9)
        results = FullTextSearch(loaded).search("quadratura cassa").fetch()
        assert results and results[0].doc_id == "c"

    def test_save_drops_tombstones(self, populated, embedder, tmp_path):
        populated.delete_document("b")
        save_index(populated, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", embedder, seed=9)
        assert len(loaded) == 2
        assert loaded.tombstone_ratio == 0.0

    def test_load_never_reembeds(self, populated, tmp_path):
        save_index(populated, tmp_path / "idx")
        fresh = SyntheticAdaEmbedder(None, dim=32, seed=9)
        load_index(tmp_path / "idx", fresh, seed=9)
        assert fresh.calls == 0

    def test_dim_mismatch_rejected(self, populated, tmp_path):
        save_index(populated, tmp_path / "idx")
        wrong = SyntheticAdaEmbedder(None, dim=64, seed=9)
        with pytest.raises(ValueError):
            load_index(tmp_path / "idx", wrong)

    def test_loaded_index_accepts_new_writes(self, populated, embedder, tmp_path):
        save_index(populated, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", embedder, seed=9)
        loaded.add_chunk(_record("d", "contenuto nuovo sul mutuo ipotecario"))
        assert len(loaded) == 4
        query = embedder.embed("mutuo ipotecario")
        hits = loaded.vector_search("content", query, 1)
        assert loaded.record(hits[0][0]).doc_id == "d"

    def test_vectors_actually_stored(self, populated, tmp_path):
        path = save_index(populated, tmp_path / "idx")
        with np.load(path / "vectors.npz") as archive:
            assert set(archive.files) == {"title", "content"}
            assert archive["content"].shape == (3, 32)


class TestNoLinkBelowTheBound:
    def test_a_harness_size_build_and_load_run_no_algorithm_4(
        self, lexicon, monkeypatch, tmp_path
    ):
        """At the benchmark's corpus size (100 topics, 8 error families of 6
        codes) every graph holds fewer rows than half of ``SCAN_BEAMS``
        beams of the serving ``ef_search`` 80, so a search scans it and no
        add links it: ``create_engine`` and ``load_index`` make no Algorithm 4
        distance evaluation, and the loaded index answers as the built one."""
        judged = []
        heuristic = HnswIndex._select_neighbors_heuristic
        monkeypatch.setattr(
            HnswIndex,
            "_select_neighbors_heuristic",
            lambda *args: judged.append(args[2]) or heuristic(*args),
        )
        kb = KbGenerator(
            KbGeneratorConfig(num_topics=100, error_families=8, codes_per_family=6, seed=11)
        ).generate()
        system = create_engine(kb.store(), lexicon, seed=11)
        graphs = system.index._vectors
        assert 0 < 2 * max(len(graph) for graph in graphs.values()) <= SCAN_BEAMS * 80
        loaded = load_index(save_index(system.index, tmp_path / "idx"), system.embedder, seed=11)
        assert judged == []
        assert all(graph._linked == 0 for graph in (*graphs.values(), *loaded._vectors.values()))
        query = system.embedder.embed("come bloccare la carta di credito")
        for name in graphs:
            built = system.index.vector_search(name, query, 15)
            assert loaded.vector_search(name, query, 15) == built and len(built) == 15
        assert judged == []


def _twelve(embedder, ann_backend: str) -> SearchIndex:
    index = SearchIndex(embedder=embedder, ann_backend=ann_backend, seed=9)
    themes = ("bonifico estero", "carta di credito", "quadratura di cassa", "mutuo ipotecario")
    for i in range(12):
        index.add_chunk(_record(f"doc-{i:02d}", f"contenuto su {themes[i % 4]} variante {i}"))
    return index


def _matrices(directory) -> dict[str, np.ndarray]:
    with np.load(directory / "vectors.npz") as archive:
        return {name: archive[name] for name in archive.files}


def _with(matrix: np.ndarray, row: int, value: float) -> np.ndarray:
    damaged = matrix.copy()
    damaged[row, 7] = value
    return damaged


@pytest.mark.parametrize("ann_backend", ("hnsw", "exact"))
class TestStoredVectorsAreRead:
    """The vectors on disk and in the graphs are the ones that serve: saving,
    vacuuming and re-saving read them back out of the ANN index, whatever the
    embedder the index currently writes with would make of the text."""

    def test_save_and_vacuum_never_embed(self, embedder, ann_backend, tmp_path):
        index = _twelve(embedder, ann_backend)
        index.delete_document("doc-03")
        calls = embedder.calls
        save_index(index, tmp_path / "before")
        assert index.vacuum(0.0)
        save_index(index, tmp_path / "after")
        assert embedder.calls == calls
        before, after = _matrices(tmp_path / "before"), _matrices(tmp_path / "after")
        assert all(np.array_equal(before[name], after[name]) for name in ("title", "content"))

    def test_vectors_survive_an_embedder_of_another_seed(self, embedder, ann_backend, tmp_path):
        save_index(_twelve(embedder, ann_backend), tmp_path / "first")
        other = SyntheticAdaEmbedder(None, dim=32, seed=10)
        loaded = load_index(tmp_path / "first", other, ann_backend=ann_backend, seed=9)
        save_index(loaded, tmp_path / "second")
        first, second = _matrices(tmp_path / "first"), _matrices(tmp_path / "second")
        assert all(np.array_equal(first[name], second[name]) for name in ("title", "content"))

        loaded.delete_document("doc-07")
        query = embedder.embed("il bonifico per l'estero")
        served = {name: loaded.vector_search(name, query, 5) for name in ("title", "content")}
        assert loaded.vacuum(0.0)
        for name, before in served.items():
            after = loaded.vector_search(name, query, 5)
            # The exact backend's matrix product may round differently over a
            # matrix that lost a row; ids and order may not move.
            assert [i for i, _ in after] == [i for i, _ in before]
            assert [d for _, d in after] == pytest.approx([d for _, d in before], abs=1e-12)
        assert other.calls == 0


class TestDamagedVectors:
    """A vector file that is not exactly the records' vectors is a
    ``ValueError`` that says what is wrong — never an index that re-embedded
    the gap, dropped the surplus or took a NaN into its graphs."""

    @pytest.fixture()
    def saved(self, embedder, tmp_path):
        return save_index(_twelve(embedder, "hnsw"), tmp_path / "idx")

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda m: {"title": m["title"]}, "holds the fields"),
            (lambda m: {**m, "summary": m["title"]}, "holds the fields"),
            (lambda m: {**m, "content": m["content"][:-1]}, "'content' is float64\\(11, 32\\)"),
            (lambda m: {**m, "title": np.vstack([m["title"], m["title"][:2]])}, "\\(14, 32\\)"),
            (lambda m: {**m, "title": m["title"][:, :31]}, "\\(12, 31\\)"),
            (lambda m: {**m, "title": m["title"].astype(np.int64)}, "int64"),
            (lambda m: {**m, "content": _with(m["content"], 4, np.nan)}, "non-finite rows \\[4\\]"),
            (lambda m: {**m, "content": _with(m["content"], 0, -np.inf)}, "non-finite rows \\[0\\]"),
        ],
        ids=["missing-field", "surplus-field", "short", "long", "narrow", "integers", "nan", "inf"],
    )
    def test_damaged_matrices_are_named(self, saved, embedder, damage, message):
        np.savez_compressed(saved / "vectors.npz", **damage(_matrices(saved)))
        calls = embedder.calls
        with pytest.raises(ValueError, match=message):
            load_index(saved, embedder, seed=9)
        assert embedder.calls == calls

    @pytest.mark.parametrize("file_name", ("vectors.npz", "records.json"))
    @pytest.mark.parametrize("quarter", (0, 1, 2, 3))
    def test_truncated_files_do_not_load(self, saved, embedder, file_name, quarter):
        whole = (saved / file_name).read_bytes()
        (saved / file_name).write_bytes(whole[: len(whole) * quarter // 4])
        with pytest.raises(ValueError):
            load_index(saved, embedder, seed=9)

    def test_intact_files_still_load(self, saved, embedder):
        assert len(load_index(saved, embedder, seed=9)) == 12

    def test_a_bit_flip_inside_an_archive_that_still_unzips(self, saved, embedder):
        """The last bit of one value: the archive unzips, the shape and the
        finiteness hold, and only the digest ``records.json`` carries tells."""
        matrices = _matrices(saved)
        flipped = matrices["content"].copy()
        flipped.view(np.uint64)[5, 3] ^= 1
        np.savez_compressed(saved / "vectors.npz", **{**matrices, "content": flipped})
        with pytest.raises(ValueError, match="vectors.npz is .* bytes with sha256"):
            load_index(saved, embedder, seed=9)


def _edit_manifest(damage, directory) -> None:
    manifest = json.loads((directory / "records.json").read_text())
    damage(manifest)
    (directory / "records.json").write_text(json.dumps(manifest))


class TestDamagedRecords:
    """A ``records.json`` that is not whole distinct chunk records is a
    ``ValueError`` naming the file, the row and the field, raised before the
    first insert.  A shared ``chunk_id`` used to load with one record gone
    and a tombstone and dead graph node from the first moment; an odd field
    escaped as ``TypeError`` and a missing key as ``KeyError``."""

    @pytest.fixture()
    def saved(self, embedder, tmp_path):
        return save_index(_twelve(embedder, "hnsw"), tmp_path / "idx")

    @pytest.mark.parametrize(
        "damage, message",
        [
            (
                lambda m: m["records"].__setitem__(1, m["records"][0]),
                "records.json row 1 field 'chunk_id': 'doc-00#0' is row 0's",
            ),
            (
                lambda m: m["records"][11].__setitem__("chunk_id", m["records"][4]["chunk_id"]),
                "row 11 field 'chunk_id': 'doc-04#0' is row 4's",
            ),
            (lambda m: m["records"][3].pop("content"), "row 3 field 'content': missing"),
            (
                lambda m: m["records"][5].__setitem__("colour", "blu"),
                "row 5 field 'colour': not a chunk record field",
            ),
            (lambda m: m.pop("schema"), "records.json field 'schema': missing"),
            (lambda m: m.pop("embedding_dim"), "records.json field 'embedding_dim': missing"),
            (lambda m: m.pop("records"), "records.json field 'records': missing"),
        ],
        ids=["shared-id", "shared-id-later", "missing-field", "unknown-field",
             "no-schema", "no-embedding-dim", "no-records"],
    )
    def test_damaged_records_are_named(self, saved, embedder, monkeypatch, damage, message):
        _edit_manifest(damage, saved)
        inserts = []
        monkeypatch.setattr(SearchIndex, "add_chunk", lambda *args, **kwargs: inserts.append(1))
        with pytest.raises(ValueError, match=message):
            load_index(saved, embedder, seed=9)
        assert not inserts


class TestInterruptedSave:
    """A re-save interrupted anywhere leaves the previous save whole or a
    pair that refuses to load — never new records beside old vectors, which
    the row count alone cannot tell apart."""

    @pytest.mark.parametrize("crash", ("while-archiving", "between-the-files"))
    def test_an_interrupted_save_never_loads_a_mixed_pair(
        self, embedder, tmp_path, monkeypatch, crash
    ):
        directory = save_index(_twelve(embedder, "hnsw"), tmp_path / "idx")
        before = {name: (directory / name).read_bytes() for name in ("records.json", "vectors.npz")}
        other = SearchIndex(embedder=embedder, seed=9)
        for i in range(12):
            other.add_chunk(_record(f"new-{i:02d}", f"altro contenuto numero {i}"))

        def disk_full(*args, **kwargs):
            raise OSError("disk full")

        replace = os.replace
        replaced = []

        def second_replace_fails(source, target):
            replaced.append(target)
            if len(replaced) == 2:
                disk_full()
            replace(source, target)

        with monkeypatch.context() as patch:
            if crash == "while-archiving":
                patch.setattr(np, "savez_compressed", disk_full)
            else:
                patch.setattr(os, "replace", second_replace_fails)
            with pytest.raises(OSError, match="disk full"):
                save_index(other, directory)

        if crash == "while-archiving":
            assert {name: (directory / name).read_bytes() for name in before} == before
            assert len(load_index(directory, embedder, seed=9)) == 12
        else:
            with pytest.raises(ValueError, match="vectors.npz .* records.json describes"):
                load_index(directory, embedder, seed=9)



class TestAnalyzerRoundTrip:
    """A persisted index comes back with the chain it was built with.

    The manifest used to record nothing about ``index.analyzer`` and
    ``load_index`` could not be handed one, so an index built with a
    language pack was re-analysed with the Italian default: ``policy``
    found nothing and ``the`` found every chunk.
    """

    WORDS = ("policy", "policies", "the", "card", "branches", "office", "savings", "a")

    @staticmethod
    def _built(embedder) -> SearchIndex:
        index = SearchIndex(embedder=embedder, seed=9, analyzer=english_analyzer())
        index.add_chunk(_record("a", "the policies about cards at the branches"))
        index.add_chunk(_record("b", "the opening hours of the office"))
        index.flush()
        return index

    @staticmethod
    def _answers(index: SearchIndex) -> dict:
        content = index.inverted_index("content")
        return {
            word: (
                [
                    (hit.record.chunk_id, hit.score)
                    for hit in FullTextSearch(index).search(word).fetch()
                ],
                content.document_frequencies(content.analyze_query(word)),
            )
            for word in TestAnalyzerRoundTrip.WORDS
        }

    def test_loaded_index_answers_term_for_term(self, embedder, tmp_path):
        built = self._built(embedder)
        save_index(built, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", embedder, seed=9, analyzer=english_analyzer())
        answers = self._answers(built)
        assert [chunk for chunk, _ in answers["policy"][0]] == ["a#0"]
        assert answers["the"] == ([], [])
        assert self._answers(loaded) == answers
        # A sealed-segment tombstone re-derives its ledger terms with the
        # index's analyzer, and a later write is analysed by it too.
        for index in (built, loaded):
            index.delete_document("a")
            index.add_chunk(_record("c", "the savings policies of the branches"))
        assert self._answers(loaded) == self._answers(built)
        assert [chunk for chunk, _ in self._answers(loaded)["policy"][0]] == ["c#0"]

    def test_a_load_with_another_chain_names_both(self, embedder, populated, tmp_path):
        save_index(self._built(embedder), tmp_path / "english")
        with pytest.raises(ValueError, match=r"english_stem.*repro\.text\.stemmer\.stem"):
            load_index(tmp_path / "english", embedder, seed=9)
        save_index(populated, tmp_path / "italian")
        with pytest.raises(ValueError, match=r"repro\.text\.stemmer\.stem.*english_stem"):
            load_index(tmp_path / "italian", embedder, seed=9, analyzer=english_analyzer())

    def test_a_manifest_without_the_entry_is_the_italian_default(
        self, embedder, populated, tmp_path
    ):
        save_index(populated, tmp_path / "idx")
        path = tmp_path / "idx" / "records.json"
        manifest = json.loads(path.read_text())
        del manifest["analyzer"]
        path.write_text(json.dumps(manifest))
        assert len(load_index(tmp_path / "idx", embedder, seed=9)) == 3
        with pytest.raises(ValueError, match="english_stem"):
            load_index(tmp_path / "idx", embedder, seed=9, analyzer=english_analyzer())

    def test_every_part_of_the_chain_moves_the_fingerprint(self):
        chains = [
            FULL_ANALYZER,
            ItalianAnalyzer(remove_stopwords=False),
            ItalianAnalyzer(apply_stemming=False),
            ItalianAnalyzer(extra_stopwords=frozenset({"banca"})),
            english_analyzer(),
        ]
        prints = [str(chain.fingerprint()) for chain in chains]
        assert len(set(prints)) == len(chains)
        assert ItalianAnalyzer().fingerprint() == FULL_ANALYZER.fingerprint()
