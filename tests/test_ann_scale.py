"""Smoke run of ``benchmarks/ann_scale.py`` at a row count that walks.

The probe is the regenerable source of ROADMAP's HNSW scale facts; this
keeps it running and its readings sane at 2 700 rows, past the 2 560 rows
(``SCAN_BEAMS`` beams of 80) below which a search scans instead of walking.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.ann.hnsw import SCAN_BEAMS

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ann_scale.py"
_SPEC = importlib.util.spec_from_file_location("ann_scale", _PATH)
ann_scale = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ann_scale)


def test_the_scale_probe_walks_and_reads_sane_values(capsys):
    rows = 2700
    assert rows > SCAN_BEAMS * ann_scale.BEAM
    readings = ann_scale.main(["--rows", str(rows), "--queries", "10", "--topics", "40"])
    printed = capsys.readouterr().out.split("\n")
    assert [line.split()[0] for line in printed if line] == list(readings)
    assert readings["rows"] == rows
    assert readings["link_s"] > 0 and readings["walk_ms"] > 0 and readings["scan_ms"] > 0
    assert readings["recall_at_10"] >= 0.9
    # float32 rows: a row of 256 values and its norm and label, with the
    # store's growth slack, stay under what float64 values alone would take.
    assert 256 * 4 < readings["row_bytes_per_row"] < 256 * 8
    assert 0 < readings["graph_bytes_per_row"] < 1024
