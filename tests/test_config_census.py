"""Census: only what a deployment sets stays configurable.

ROADMAP: "no new config field without deleting one".  A field that no
caller in ``src/`` or ``benchmarks/`` sets — the CLI, the harness
workloads, the paper-table benchmarks — has one value in use: it is a
constant, and belongs beside the code that reads it (a test that needs
another value patches the module).  Tests do not count as callers.  A
caller is a call to the config class, or to ``dataclasses.replace``, that
passes the field; forwarding a value into some other call does not set it.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.agents import orchestrator
from repro.agents.config import AgentsConfig
from repro.autoscale import admission, autoscaler
from repro.autoscale.config import AdmissionConfig, AutoscaleConfig
from repro.cache import answer_cache, retrieval_cache
from repro.cache.config import CacheConfig
from repro.cluster import planner, replica
from repro.cluster.config import ClusterConfig
from repro.core.config import UniAskConfig
from repro.embeddings.model import SyntheticAdaEmbedder
from repro.obs import telemetry
from repro.obs.telemetry import TelemetryConfig
from repro.search import segment
from repro.search.index import SearchIndex

ROOT = Path(__file__).resolve().parents[1]
CALLER_TREES = ("src", "benchmarks")

#: Fields no caller sets that stay configurable anyway, with the reason.
ALLOWED_UNSET = {
    "HybridSearchConfig.text_n": "paper parameter (Section 4: 50 text results)",
    "HybridSearchConfig.final_n": "paper parameter (Section 4: 50 fused results)",
    "GenerationConfig.temperature": "paper parameter (Section 5)",
    "GenerationConfig.max_tokens": "paper parameter (Section 5)",
    "UniAskConfig.rouge_threshold": "paper parameter (Section 5 guardrail)",
    "TelemetryConfig.audit_path": "deployment path of the JSONL audit log",
    "AutoscaleConfig.enabled": "on-switch of the autoscaler; removing it removes the subsystem",
    "AdmissionConfig.enabled": "on-switch of admission control; removing it removes the subsystem",
}

#: Every scalar field reachable from ``UniAskConfig``.
FIELDS = {
    "HybridSearchConfig.text_n",
    "HybridSearchConfig.vector_k",
    "HybridSearchConfig.final_n",
    "HybridSearchConfig.rrf_c",
    "HybridSearchConfig.mode",
    "HybridSearchConfig.use_reranker",
    "GenerationConfig.context_size",
    "GenerationConfig.temperature",
    "GenerationConfig.max_tokens",
    "ClusterConfig.shards",
    "ClusterConfig.replicas",
    "TelemetryConfig.enabled",
    "TelemetryConfig.audit_path",
    "CacheConfig.enabled",
    "AgentsConfig.enabled",
    "AutoscaleConfig.enabled",
    "AdmissionConfig.enabled",
    "IncidentConfig.enabled",
    "UniAskConfig.rouge_threshold",
}

#: ``(owner, field, module, constant, the field's former default)`` of every
#: field that became a constant; the cache's tier switches became the one
#: ``enabled`` switch, so they have no constant.
REMOVED = [
    (CacheConfig, "answer", None, None, None),
    (CacheConfig, "semantic", None, None, None),
    (CacheConfig, "retrieval", None, None, None),
    (CacheConfig, "coalescing", None, None, None),
    (CacheConfig, "answer_capacity", answer_cache, "ANSWER_CAPACITY", 1024),
    (CacheConfig, "answer_ttl_seconds", answer_cache, "ANSWER_TTL_SECONDS", 3600.0),
    (CacheConfig, "semantic_threshold", answer_cache, "SEMANTIC_THRESHOLD", 0.97),
    (CacheConfig, "retrieval_capacity", retrieval_cache, "RETRIEVAL_CAPACITY", 2048),
    (SearchIndex, "flush_threshold", segment, "FLUSH_THRESHOLD", 128),
    (SearchIndex, "max_segments", segment, "MAX_SEGMENTS", 8),
    (SearchIndex, "merge_factor", segment, "MERGE_FACTOR", 4),
    (SearchIndex, "segment_dead_ratio", segment, "SEGMENT_DEAD_RATIO", 0.25),
    (SearchIndex, "merge_interval", segment, "MERGE_INTERVAL", 900.0),
    (TelemetryConfig, "trace_sample_rate", telemetry, "TRACE_SAMPLE_RATE", 0.1),
    (TelemetryConfig, "sampler_seed", telemetry, "SAMPLER_SEED", 1729),
    (TelemetryConfig, "audit_retention", telemetry, "AUDIT_RETENTION", 10_000),
    (ClusterConfig, "vnodes", planner, "VNODES", 64),
    (ClusterConfig, "down_after", replica, "DOWN_AFTER", 3),
    (ClusterConfig, "down_cooldown", replica, "DOWN_COOLDOWN", 30.0),
    (AgentsConfig, "session_capacity", orchestrator, "SESSION_CAPACITY", 1024),
    (AgentsConfig, "session_ttl_seconds", orchestrator, "SESSION_TTL_SECONDS", 1800.0),
    (AutoscaleConfig, "min_replicas", autoscaler, "MIN_REPLICAS", 1),
    (AutoscaleConfig, "max_replicas", autoscaler, "MAX_REPLICAS", 6),
    (AutoscaleConfig, "scale_up_cooldown", autoscaler, "SCALE_UP_COOLDOWN", 30.0),
    (AutoscaleConfig, "scale_down_cooldown", autoscaler, "SCALE_DOWN_COOLDOWN", 120.0),
    (AutoscaleConfig, "latency_slo_seconds", autoscaler, "LATENCY_SLO_SECONDS", 8.0),
    (AutoscaleConfig, "rebalance_skew", autoscaler, "REBALANCE_SKEW", 1.5),
    (AdmissionConfig, "target_load", admission, "TARGET_LOAD", 6.0),
    (AdmissionConfig, "full_latency_estimate", admission, "FULL_LATENCY_ESTIMATE", 4.0),
    (AdmissionConfig, "degraded_latency_estimate", admission, "DEGRADED_LATENCY_ESTIMATE", 0.5),
]


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


def _scalar_fields(classes: dict[str, type]) -> set[str]:
    """``Class.field`` of every field that is not itself a block."""
    return {
        f"{name}.{field.name}"
        for name, config_class in classes.items()
        for field in dataclasses.fields(config_class)
        if field.type not in classes
    }


def _fields_set_by_callers(classes: dict[str, type]) -> set[str]:
    """``Class.field`` of every field a call in the caller trees passes."""
    owners_of: dict[str, set[str]] = {}
    for name, config_class in classes.items():
        for field in dataclasses.fields(config_class):
            owners_of.setdefault(field.name, set()).add(name)
    passed: set[str] = set()
    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "attr", getattr(node.func, "id", ""))
                keywords = [kw.arg for kw in node.keywords if kw.arg]
                if callee in classes:
                    fields = [f.name for f in dataclasses.fields(classes[callee])]
                    named = fields[: len(node.args)] + keywords
                    passed.update(f"{callee}.{name}" for name in named)
                elif callee == "replace":
                    # The replaced object's class is not in the syntax tree:
                    # every class owning the name counts as set.
                    passed.update(
                        f"{owner}.{name}" for name in keywords for owner in owners_of.get(name, ())
                    )
    return passed


def test_the_scalar_fields_are_exactly_the_listed_ones():
    assert _scalar_fields(_reachable(UniAskConfig)) == FIELDS


def test_every_config_field_is_set_by_some_caller():
    classes = _reachable(UniAskConfig)
    set_by_callers = _fields_set_by_callers(classes)
    idle = sorted(_scalar_fields(classes) - set_by_callers - ALLOWED_UNSET.keys())
    assert not idle, (
        "config fields no caller in src/ or benchmarks/ sets (make each a "
        f"constant beside the code that reads it): {idle}"
    )


def test_allow_list_names_real_fields():
    classes = _reachable(UniAskConfig)
    assert ALLOWED_UNSET.keys() <= _scalar_fields(classes)
    assert not ALLOWED_UNSET.keys() & _fields_set_by_callers(classes)


@pytest.mark.parametrize(
    "owner, name, module, constant, default",
    REMOVED,
    ids=[f"{owner.__name__}.{name}" for owner, name, *_ in REMOVED],
)
def test_a_removed_field_is_a_constant_with_its_old_default(owner, name, module, constant, default):
    with pytest.raises(TypeError):
        if owner is SearchIndex:
            owner(embedder=SyntheticAdaEmbedder(None, dim=8, seed=1), **{name: default})
        else:
            owner(**{name: default})
    if module is not None:
        value = getattr(module, constant)
        assert value == default and type(value) is type(default)


def test_the_index_block_is_gone():
    with pytest.raises(TypeError):
        UniAskConfig(index=None)
    with pytest.raises(TypeError):
        SearchIndex(embedder=SyntheticAdaEmbedder(None, dim=8, seed=1), index_config=None)
