"""The layer contract, held once for every layer.

Every subsystem added since the seed — answer cache, incident forensics,
profiling + capacity — is off by default
and byte-identical when off.  One parametrised case holds the "default
equals explicit off" half for each layer, plain and sharded; one case
builds the deployment nobody else does — **every layer on at once** — and
checks the layers compose.  Layer-specific guarantees stay in the
per-layer ``test_*_differential.py`` suites.
"""

from __future__ import annotations

import pytest

from repro.cache.config import CacheConfig
from repro.obs.incident import IncidentConfig
from repro.service.alerting import Alert
from repro.service.backend import ROLE_OPS
from tests.differential import QUESTIONS, build, serve_surface

#: What "explicitly off" means for each layer, as ``build`` keywords.
LAYERS_OFF = {
    "cache": {"cache": CacheConfig(enabled=False)},
    "incident": {"incident": IncidentConfig(enabled=False)},
    "profiling": {"profiling": False, "capacity": False},
}

EVERY_LAYER_ON = {
    "cache": CacheConfig(enabled=True),
    "incident": IncidentConfig(enabled=True),
    "profiling": True,
    "capacity": True,
}


@pytest.mark.parametrize("shards", (1, 3))
@pytest.mark.parametrize("layer", sorted(LAYERS_OFF))
def test_layer_off_is_byte_identical(tiny_kb, banking_lexicon, layer, shards):
    """Answers, traces, dashboard, ``/metrics`` exposition and audit lines of
    a default deployment equal those of one with *layer* explicitly off."""
    default = serve_surface(*build(tiny_kb, banking_lexicon, shards=shards))
    explicit = serve_surface(
        *build(tiny_kb, banking_lexicon, shards=shards, **LAYERS_OFF[layer])
    )
    assert default == explicit


def test_every_layer_on_composes(tiny_kb, banking_lexicon):
    """3 shards x 2 replicas with every layer on: same cold-path answers as
    the all-off deployment, and the layers see each other."""
    _, plain_backend = build(tiny_kb, banking_lexicon, shards=3)
    system, backend = build(tiny_kb, banking_lexicon, shards=3, **EVERY_LAYER_ON)
    plain_token, token = plain_backend.login("diff-user"), backend.login("diff-user")
    for question in QUESTIONS:
        plain = plain_backend.serve(plain_token, question).answer
        record = backend.serve(token, question)
        full = record.answer
        assert full.cache_hit == ""
        assert full.answer_text == plain.answer_text
        assert full.outcome == plain.outcome
        assert full.citations == plain.citations
        assert [c.record.chunk_id for c in full.documents] == [
            c.record.chunk_id for c in plain.documents
        ]
        assert full.work and record.trace is not None
        # Coalescing makes the backend a concurrent server that no longer
        # advances the clock itself; keep flights from overlapping.
        system.clock.advance(plain.response_time)

    ops_token = backend.login("ops", role=ROLE_OPS)
    diagnosis = backend.ops("diagnose", ops_token, query_id=record.query_id)
    assert diagnosis["query_id"] == record.query_id
    assert diagnosis["work"] == full.work

    page = Alert(rule="slo_latency", severity="critical", message="budget burning")
    incident = backend.incidents.check(system.clock.now(), [page])
    assert {s["resource"] for s in incident.capture["saturation"]} >= {"backend"}
    assert "profile_top" in incident.capture
