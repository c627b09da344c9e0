"""Census: ``src/repro`` does not grow past a committed line ceiling.

ROADMAP: "net-negative diffs are the expectation", target ``src/repro``
≤ 21k lines.  The sibling rule ("no new config field without deleting
one") is held by ``test_config_census.py``; this one holds the diet by
count — the same figure as
``find src/repro -name '*.py' | xargs cat | wc -l``.
"""

from __future__ import annotations

from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Total lines of ``src/repro/**/*.py`` at the last PR that moved it.
CEILING = 23926


def test_source_lines_stay_under_the_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in SOURCE.rglob("*.py"))
    assert lines <= CEILING, (
        f"src/repro is {lines} lines, the committed ceiling is {CEILING}.  Delete "
        "something first; a PR that deletes lowers CEILING in this file to its own "
        "count, so the deletion is held.  Raising it is allowed only when the "
        "growth is the point of the PR, with the reason in CHANGES.md."
    )
