"""The quality gate's comparison: what it lets through and what it stops.

``benchmarks/quality_gate.py`` judges a change that moves bits against a
pinned reference.  Its tolerances are one question per seed for the harness
ratios, ``TABLE1_ABS`` for Table 1 values and no change of any sign.
"""

from __future__ import annotations

import copy
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "quality_gate.py"
_SPEC = importlib.util.spec_from_file_location("quality_gate", _PATH)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


@pytest.fixture()
def reference() -> dict:
    run = {
        "correct": True,
        "answers_digest": "d",
        "hit_at_4": 0.75,
        "judged": 200,
        "answered_share": 0.9,
        "questions": 220,
    }
    table1 = {
        "Prev": {"mrr": 0.43, "r_at_50": 0.63},
        "UniAsk": {"mrr": 0.52, "r_at_50": 0.78},
        "wins": {"mrr": 1, "hit_at_4": 1},
    }
    return {
        "seconds": 10.0,
        "tolerances": {"questions_per_seed": 1, "table1_abs": 0.005},
        "harness": {"ask_human": {"11": run}},
        "table1": {"Human": table1},
        "table2": {"Human": {"Text": {"mrr": -1}, "Vector": {"mrr": -1}}},
    }


def test_an_identical_run_passes(reference):
    assert gate.compare(reference, copy.deepcopy(reference)) == []


def test_one_question_per_seed_passes_and_two_do_not(reference):
    current = copy.deepcopy(reference)
    run = current["harness"]["ask_human"]["11"]
    run["hit_at_4"] -= 1 / 200
    run["answered_share"] += 1 / 220
    run["answers_digest"] = "moved"
    assert gate.compare(reference, current) == []
    run["hit_at_4"] -= 1 / 200
    assert gate.compare(reference, current) == ["ask_human seed 11: hit_at_4 0.750000 -> 0.740000"]


def test_table_moves_and_sign_flips_are_violations(reference):
    current = copy.deepcopy(reference)
    current["table1"]["Human"]["UniAsk"]["mrr"] += 0.004
    assert gate.compare(reference, current) == []
    current["table1"]["Human"]["UniAsk"]["mrr"] += 0.002
    current["table1"]["Human"]["wins"]["hit_at_4"] = 0
    current["table2"]["Human"]["Vector"]["mrr"] = 1
    current["harness"]["ask_human"]["11"]["correct"] = False
    assert len(gate.compare(reference, current)) == 4
