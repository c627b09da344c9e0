"""Census: ``src/repro`` does not grow past a committed line ceiling, and
README's observability table names the ops routes that exist.

ROADMAP: "net-negative diffs are the expectation", target ``src/repro``
≤ 21k lines.  The sibling rule ("no new config field without deleting
one") is held by ``test_config_census.py``; this one holds the diet by
count — the same figure as
``find src/repro -name '*.py' | xargs cat | wc -l``.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.service.backend import BackendService

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"

#: Total lines of ``src/repro/**/*.py`` at the last PR that moved it.
CEILING = 19898


def test_source_lines_stay_under_the_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in SOURCE.rglob("*.py"))
    assert lines <= CEILING, (
        f"src/repro is {lines} lines, the committed ceiling is {CEILING}.  Delete "
        "something first; a PR that deletes lowers CEILING in this file to its own "
        "count, so the deletion is held.  Raising it is allowed only when the "
        "growth is the point of the PR, with the reason in CHANGES.md."
    )


def test_the_readme_ops_table_is_the_route_registry():
    """Every route the observability table names is registered, and every
    registered route is named there."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    header = "| layer | answers | ops routes | CLI |"
    rows = readme[readme.index(header):].split("\n\n", 1)[0].splitlines()[2:]
    assert rows, "the observability table has no rows"
    named = {
        route for row in rows for route in re.findall(r"`(\w+)`", row.split("|")[3])
    }
    assert named == set(BackendService.OPS_ROUTES)
