"""Census: every knob reachable from ``UniAskConfig`` has a caller that sets it.

ROADMAP: "no new config field without deleting one".  A field that no
source file, test, benchmark or example ever sets has one value in use —
it is a constant with a validation branch nobody can reach.  This test
fails when such a field appears; the fix is a module-level constant beside
the code that reads it, not an entry in the allow-list.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from repro.core.config import UniAskConfig

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")

#: Fields nobody overrides that stay configurable anyway: the paper's own
#: parameters (Sections 4-5) and deployment paths.
ALLOWED_UNSET = frozenset({"text_n", "rouge_threshold", "max_tokens", "audit_path"})


def _reachable(config_class, classes=None) -> dict[str, type]:
    """``{class name: class}`` of every config dataclass reachable from *config_class*."""
    classes = {} if classes is None else classes
    classes[config_class.__name__] = config_class
    for field in dataclasses.fields(config_class):
        if field.default_factory is not dataclasses.MISSING:
            default = field.default_factory()
            if dataclasses.is_dataclass(default):
                _reachable(type(default), classes)
    return classes


def _scalar_fields(classes: dict[str, type]) -> list[tuple[str, str]]:
    """``(owning class, field name)`` of every field that is not itself a block."""
    return [
        (name, field.name)
        for name, config_class in classes.items()
        for field in dataclasses.fields(config_class)
        if field.type not in classes
    ]


def _names_set_by_callers(classes: dict[str, type]) -> set[str]:
    """Every ``name=`` keyword of every call, plus config-class positionals."""
    names: set[str] = set()
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                names.update(kw.arg for kw in node.keywords if kw.arg)
                callee = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if node.args and callee in classes:
                    fields = dataclasses.fields(classes[callee])
                    names.update(f.name for f in fields[: len(node.args)])
    return names


def test_every_config_field_is_set_by_some_caller():
    classes = _reachable(UniAskConfig)
    set_somewhere = _names_set_by_callers(classes)
    idle = [
        f"{owner}.{name}"
        for owner, name in _scalar_fields(classes)
        if name not in set_somewhere and name not in ALLOWED_UNSET
    ]
    assert not idle, (
        "config fields no caller in src/tests/benchmarks/examples sets "
        f"(make each a constant beside the code that reads it): {idle}"
    )


def test_allow_list_names_real_fields():
    names = {name for _, name in _scalar_fields(_reachable(UniAskConfig))}
    assert ALLOWED_UNSET <= names
