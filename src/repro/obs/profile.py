"""Continuous profiling: an aggregate, weighted call-tree over many requests.

Per-request traces answer "where did *this* query spend its time"; the
questions that drive capacity planning and regression hunts are aggregate —
"where does the *fleet's* time go", "which stage got slower this hour",
"did pruning stop firing".  The :class:`ContinuousProfiler` folds completed
span trees (the same :class:`~repro.obs.trace.Trace` objects the sampler
already retains, so profiling adds no new instrumentation to the hot path)
into a call-tree profile keyed by **stage path** — the ``/``-joined chain
of span names from the root, e.g. ``ask/retrieval/scatter/shard_0`` — with
per-path call counts, cumulative and self time, and deterministic work
units read from ``work_*`` span attributes.

Memory is bounded by a ring of time windows on the deployment's (simulated)
clock: each recorded trace lands in the window of its record instant, and
only the most recent ``max_windows`` windows are retained — a profile is
always "the last N×window seconds", never an unbounded accumulation.

Three renderers cover the usual consumers:

* :meth:`format_top` — a text "top" table sorted by self time;
* :meth:`folded_stacks` — one ``a;b;c <value>`` line per path, directly
  consumable by flamegraph.pl / speedscope / inferno;
* :meth:`speedscope_json` — a speedscope "sampled" profile document.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.trace import Trace

__all__ = [
    "ContinuousProfiler",
    "ProfileNode",
    "WORK_ATTRIBUTE_PREFIX",
]

#: Span attributes carrying work units use this prefix (``work_<kind>``).
WORK_ATTRIBUTE_PREFIX = "work_"


@dataclass
class ProfileNode:
    """Aggregated statistics of one stage path across recorded traces.

    Attributes:
        path: the ``/``-joined span-name chain from the root.
        calls: number of spans folded into this node.
        cumulative_s: summed span durations (includes nested stages).
        self_s: cumulative time minus the time of directly nested spans.
        work: summed deterministic work units by kind, read from the
            spans' ``work_*`` attributes.
        errors: spans that closed with ``status="error"``.
    """

    path: str
    calls: int = 0
    cumulative_s: float = 0.0
    self_s: float = 0.0
    work: dict[str, int] = field(default_factory=dict)
    errors: int = 0

    def merge(self, other: "ProfileNode") -> None:
        """Fold *other* (same path, another window) into this node."""
        self.calls += other.calls
        self.cumulative_s += other.cumulative_s
        self.self_s += other.self_s
        self.errors += other.errors
        for kind, units in other.work.items():
            self.work[kind] = self.work.get(kind, 0) + units

    def to_dict(self) -> dict:
        """Plain-dict form for JSON surfaces (sorted work keys)."""
        payload = {
            "path": self.path,
            "calls": self.calls,
            "cumulative_s": self.cumulative_s,
            "self_s": self.self_s,
        }
        if self.errors:
            payload["errors"] = self.errors
        if self.work:
            payload["work"] = {kind: self.work[kind] for kind in sorted(self.work)}
        return payload


class ContinuousProfiler:
    """Aggregates completed traces into a windowed call-tree profile.

    Args:
        window_seconds: width of one retention window on the recording
            clock (whatever ``now`` values :meth:`record` is fed —
            simulated seconds in every deployment of this repo).
        max_windows: number of most-recent windows retained; older windows
            are evicted, bounding memory regardless of traffic volume.
    """

    def __init__(self, window_seconds: float = 300.0, max_windows: int = 12) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if max_windows <= 0:
            raise ValueError("max_windows must be positive")
        self.window_seconds = float(window_seconds)
        self.max_windows = max_windows
        #: window id -> path -> ProfileNode
        self._windows: dict[int, dict[str, ProfileNode]] = {}
        self._traces_recorded = 0

    # -- recording ---------------------------------------------------------

    @property
    def traces_recorded(self) -> int:
        """Traces folded in since construction (evictions don't subtract)."""
        return self._traces_recorded

    def record(self, trace: Trace, now: float = 0.0) -> None:
        """Fold one completed *trace* into the window containing *now*."""
        if not trace.enabled:
            return
        bucket = self._windows.setdefault(int(now // self.window_seconds), {})
        self._traces_recorded += 1

        # Spans are stored in opening order with explicit depths, so one
        # forward walk with a name stack reconstructs every path.  Child
        # time is charged back to the parent *path* (not the parent span)
        # which is exactly the aggregation a flamegraph performs.
        names: list[str] = []
        paths: list[str] = []
        for span in trace.spans:
            if span.end is None:
                continue  # truncated trace: open spans carry no time
            del names[span.depth :], paths[span.depth :]
            names.append(span.name)
            path = paths[-1] + "/" + span.name if paths else span.name
            paths.append(path)

            node = bucket.get(path)
            if node is None:
                node = bucket[path] = ProfileNode(path=path)
            node.calls += 1
            node.cumulative_s += span.duration
            node.self_s += span.duration
            if span.status != "ok":
                node.errors += 1
            for key, value in span.attributes.items():
                if key.startswith(WORK_ATTRIBUTE_PREFIX) and isinstance(value, int):
                    kind = key[len(WORK_ATTRIBUTE_PREFIX) :]
                    node.work[kind] = node.work.get(kind, 0) + value
            if len(paths) > 1:
                parent = bucket.get(paths[-2])
                if parent is not None:
                    parent.self_s -= span.duration

        while len(self._windows) > self.max_windows:
            del self._windows[min(self._windows)]

    # -- reading -----------------------------------------------------------

    def aggregate(self) -> dict[str, ProfileNode]:
        """Merge every retained window into one path-keyed profile."""
        merged: dict[str, ProfileNode] = {}
        for window_id in sorted(self._windows):
            for path, node in self._windows[window_id].items():
                into = merged.get(path)
                if into is None:
                    merged[path] = ProfileNode(
                        path=path,
                        calls=node.calls,
                        cumulative_s=node.cumulative_s,
                        self_s=node.self_s,
                        work=dict(node.work),
                        errors=node.errors,
                    )
                else:
                    into.merge(node)
        return merged

    def to_dict(self) -> dict:
        """Structured profile document (the ``profile`` ops route payload)."""
        nodes = sorted(
            self.aggregate().values(), key=lambda n: (-n.self_s, n.path)
        )
        return {
            "window_seconds": self.window_seconds,
            "max_windows": self.max_windows,
            "windows_retained": len(self._windows),
            "traces_recorded": self._traces_recorded,
            "nodes": [node.to_dict() for node in nodes],
        }

    def format_top(self, limit: int = 25) -> str:
        """The text "top" table: hottest paths by self time."""
        nodes = sorted(
            self.aggregate().values(), key=lambda n: (-n.self_s, n.path)
        )
        total_self = sum(node.self_s for node in nodes) or 1.0
        header = (
            f"{'self':>10} {'%':>6} {'cum':>10} {'calls':>7}  path"
        )
        lines = [
            f"profile: {self._traces_recorded} traces over "
            f"{len(self._windows)} window(s) of {self.window_seconds:g}s",
            header,
            "-" * len(header),
        ]
        for node in nodes[:limit]:
            share = 100.0 * node.self_s / total_self
            detail = ""
            if node.work:
                detail = " " + " ".join(
                    f"{kind}={node.work[kind]}" for kind in sorted(node.work)
                )
            if node.errors:
                detail = f" errors={node.errors}" + detail
            lines.append(
                f"{node.self_s * 1000.0:>8.3f}ms {share:>5.1f}% "
                f"{node.cumulative_s * 1000.0:>8.3f}ms {node.calls:>7}  "
                f"{node.path}{detail}"
            )
        if len(nodes) > limit:
            lines.append(f"... {len(nodes) - limit} more path(s)")
        return "\n".join(lines)

    def folded_stacks(self) -> str:
        """Flamegraph-compatible folded stacks, one path per line.

        Frames are ``;``-separated and the value is the path's self time
        in integer microseconds — feed straight into flamegraph.pl,
        inferno or speedscope.  Zero-weight paths are kept (weight 0) so
        call structure survives even for instant stages.
        """
        lines = []
        merged = self.aggregate()
        for path in sorted(merged):
            node = merged[path]
            lines.append(f"{path.replace('/', ';')} {round(node.self_s * 1e6)}")
        return "\n".join(lines)

    def speedscope_json(self, name: str = "uniask") -> dict:
        """A speedscope "sampled" profile document of the aggregate.

        One sample per path, weighted by self time — open the dict (dumped
        as JSON) directly at speedscope.app.
        """
        merged = self.aggregate()
        frame_index: dict[str, int] = {}
        frames: list[dict] = []
        samples: list[list[int]] = []
        weights: list[float] = []
        for path in sorted(merged):
            node = merged[path]
            stack = []
            for frame_name in path.split("/"):
                if frame_name not in frame_index:
                    frame_index[frame_name] = len(frames)
                    frames.append({"name": frame_name})
                stack.append(frame_index[frame_name])
            samples.append(stack)
            weights.append(node.self_s)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
            "exporter": "repro.obs.profile",
        }
