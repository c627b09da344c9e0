"""Structured JSONL audit log with deterministic serialisation.

The paper's dashboard "directly queries the logs of the various
microservices" — which only works when the logs are machine-readable and
stable.  :class:`AuditLogger` is the per-deployment structured log: one
JSON object per line, canonical serialisation (sorted keys, compact
separators, no ASCII escaping), timestamps read from the injected
simulated clock — so two runs at the same seed produce byte-identical log
files.

Entries carry at minimum ``level`` (``INFO``/``WARNING``/``ERROR``),
``event`` (a stable snake_case name) and, when the logger has a clock,
``ts``.  The backend writes one ``request`` entry per served query:
request id, user, outcome, response time, ``partial``, per-stage
durations, one row per shard probe (shard, replica, latency, ok, hedged),
guardrail verdicts and whether the request's trace was retained by the
sampler.  That is the whole evidence of a run: a chaos day's served and
partial counts and the dashboard's shard health are re-derived from the
file alone.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "AuditLogger",
    "LEVEL_ERROR",
    "LEVEL_INFO",
    "LEVEL_WARNING",
    "NULL_AUDIT",
    "read_audit_log",
    "serialize_entry",
]

LEVEL_INFO = "INFO"
LEVEL_WARNING = "WARNING"
LEVEL_ERROR = "ERROR"

_LEVELS = (LEVEL_INFO, LEVEL_WARNING, LEVEL_ERROR)


def serialize_entry(entry: dict) -> str:
    """Canonical one-line JSON: sorted keys, compact, unicode preserved."""
    return json.dumps(entry, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


class AuditLogger:
    """Append-only structured log kept in memory and optionally on disk.

    Args:
        clock: anything with ``now() -> float``; when set, every entry is
            stamped with ``ts`` (simulated seconds).
        path: when set, every entry is appended to this JSONL file as it
            is logged (the file is truncated at construction).
        retention: when set, only the most recent *retention* entries are
            kept **in memory** (a ring, oldest evicted first).  The
            on-disk sink stays complete and append-only regardless — the
            file, not the ring, is the evidence; read it back with
            :func:`read_audit_log`.
    """

    enabled = True

    def __init__(
        self,
        clock=None,
        path: str | Path | None = None,
        retention: int | None = None,
    ) -> None:
        if retention is not None and retention < 1:
            raise ValueError("retention must be positive when set")
        self._clock = clock
        self._entries: deque[dict] = deque(maxlen=retention)
        self._total_logged = 0
        self._path = Path(path) if path is not None else None
        if self._path is not None:
            self._path.write_text("", encoding="utf-8")

    def log(self, level: str, event: str, **fields: object) -> dict:
        """Append one entry; returns the entry dict as stored."""
        if level not in _LEVELS:
            raise ValueError(f"level must be one of {_LEVELS}")
        entry: dict = {"level": level, "event": event}
        if self._clock is not None:
            entry["ts"] = self._clock.now()
        entry.update(fields)
        self._entries.append(entry)
        self._total_logged += 1
        if self._path is not None:
            with self._path.open("a", encoding="utf-8") as sink:
                sink.write(serialize_entry(entry) + "\n")
        return entry

    def info(self, event: str, **fields: object) -> dict:
        """Shorthand for an INFO entry."""
        return self.log(LEVEL_INFO, event, **fields)

    def warning(self, event: str, **fields: object) -> dict:
        """Shorthand for a WARNING entry."""
        return self.log(LEVEL_WARNING, event, **fields)

    @property
    def entries(self) -> list[dict]:
        """All retained entries, in log order."""
        return list(self._entries)

    @property
    def total_logged(self) -> int:
        """Entries ever logged, including any evicted from the ring."""
        return self._total_logged

    def lines(self) -> list[str]:
        """Every entry canonically serialised, in log order."""
        return [serialize_entry(entry) for entry in self._entries]

    def find(self, event: str) -> list[dict]:
        """Every entry whose ``event`` equals *event*."""
        return [entry for entry in self._entries if entry.get("event") == event]

    def dump(self, path: str | Path) -> Path:
        """Write the retained log to *path* as JSONL; returns the path."""
        target = Path(path)
        target.write_text("".join(line + "\n" for line in self.lines()), encoding="utf-8")
        return target

    def __len__(self) -> int:
        return len(self._entries)


class _NullAuditLogger(AuditLogger):
    """A disabled audit log: records nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def log(self, level: str, event: str, **fields: object) -> dict:  # type: ignore[override]
        return {}


#: Shared disabled audit log — the zero-cost default.
NULL_AUDIT = _NullAuditLogger()


def read_audit_log(source: str | Path | Iterable[str]) -> Iterator[dict]:
    """Parse a JSONL audit log from a path or an iterable of lines.

    Blank lines are skipped; malformed lines raise (an audit log is
    evidence — silently dropping entries would defeat its purpose).
    """
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = source
    for line in lines:
        line = line.strip()
        if not line:
            continue
        yield json.loads(line)
