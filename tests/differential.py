"""Shared scaffolding of the ``test_*_differential.py`` suites.

Every layer added since the seed is "off by default, byte-identical when
off".  The suites hold that contract the same way: build two deployments
over the ``tiny_kb`` fixture, serve one fixed workload through each, and
compare every output surface as one blob.
"""

from __future__ import annotations

import dataclasses

from repro.api import AskOptions, AskRequest, create_backend, create_engine
from repro.cluster.config import ClusterConfig
from repro.core.config import UniAskConfig
from repro.service.frontend import render_answer_page
from repro.service.monitoring import format_dashboard

QUESTIONS = (
    "come sbloccare la carta di credito",
    "bonifico estero commissioni",
    "limiti prelievo bancomat",
    "Qual e la ricetta della carbonara?",
)

_CONFIG_BLOCKS = {field.name for field in dataclasses.fields(UniAskConfig)}


def build(kb, lexicon, shards: int = 1, tracing: bool = True, **kwargs):
    """A ``(system, backend)`` pair over *kb* on *shards* shards.

    Keyword arguments naming a ``UniAskConfig`` block (``cache=``,
    ``agents=``, ``autoscale=``, ``incident=``, …) configure the
    deployment — an explicit ``cluster=`` wins over *shards*; the rest
    (``profiling=``, ``capacity=``, ``seed=``, …) go to ``create_backend``.
    """
    blocks = {name: kwargs.pop(name) for name in _CONFIG_BLOCKS & kwargs.keys()}
    blocks.setdefault("cluster", ClusterConfig(shards=shards))
    config = UniAskConfig(**blocks)
    system = create_engine(kb.store(), lexicon, config=config, seed=23)
    return system, create_backend(system, tracing=tracing, **kwargs)


def serve_surface(system, backend, options: AskOptions | None = None) -> str:
    """Every output surface of the fixed workload, as one comparable blob.

    ``options=None`` serves the bare question strings (the legacy call
    style ``serve`` promotes to a default request).
    """
    token = backend.login("diff-user")
    lines = []
    for question in QUESTIONS:
        request = question if options is None else AskRequest(question, options)
        record = backend.serve(token, request)
        lines.append(render_answer_page(record.answer))
        lines.append(f"response_time={record.answer.response_time!r}")
        lines.append(f"served_at={record.served_at!r}")
        lines.append(f"degrade_level={record.answer.degrade_level!r}")
        if record.trace is not None:
            lines.append(record.trace.format_table())
    lines.append(format_dashboard(backend.metrics.snapshot()))
    lines.append(system.telemetry.render_metrics())
    lines.extend(backend.telemetry.audit.lines())
    return "\n".join(lines)
