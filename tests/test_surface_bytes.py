"""Every operator-facing surface's bytes, pinned with every layer on.

One deployment runs every layer that exists — answer cache (with request
coalescing), 2 shards, incident forensics, tracing, profiling and
capacity — over the differential corpus and serves one fixed seeded
stream: ten generated human questions, an exact repeat, a paraphrase the
semantic tier answers, and one explain request.  A replica kill and a
synthetic page then open an incident.

Five surfaces are pinned by sha256: the dashboard, the Prometheus
exposition, the audit log, the explain JSON and the incident payloads
(status, capture bundle, timeline and two diagnoses).  A change that claims
identity must leave every digest as it is; one that moves a surface
re-pins that digest and names it.  CI runs this file under two hash seeds.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import AskOptions, AskRequest
from repro.cache.config import CacheConfig
from repro.corpus.queries import HumanDatasetConfig, generate_human_dataset
from repro.obs.incident import IncidentConfig
from repro.service.alerting import Alert
from repro.service.backend import ROLE_OPS
from repro.service.monitoring import format_dashboard
from tests.differential import build

#: sha256 of each surface's bytes (UTF-8).
PINNED = {
    "dashboard": "ec220546265114eda1f5fb1ba2309955edadeaa1e732c1c2f3596e623c26990f",
    "exposition": "54f9d6645144778d891360c500c425e43a566082df0798d6b85292c443e0fa9b",
    "audit": "a5ca8abf5f28292ede896b86af203aebbec47d712be092a70eaf1843c9b45deb",
    "explain": "0af553e92f17d6a9ff5a25539e25de08f8973537c6a6bd506615ccee402ed853",
    "incident": "b87288d553c7674b4a512c6ad4199c4309c9b7d1d957c8c33b9e0fd25524dedd",
}

#: Served after the generated questions: the first question again (an
#: exact hit) and a reworded copy of the eighth (a semantic hit).
PARAPHRASE = "Sono un operatore: devo gestire estratto conto per un cliente, come devo procedere?"


@pytest.fixture(scope="module")
def surfaces(tiny_kb, banking_lexicon):
    system, backend = build(
        tiny_kb,
        banking_lexicon,
        shards=2,
        cache=CacheConfig(enabled=True),
        incident=IncidentConfig(enabled=True),
        profiling=True,
        capacity=True,
    )
    questions = [
        query.text
        for query in generate_human_dataset(tiny_kb, HumanDatasetConfig(num_questions=10, seed=5))
    ]
    token, ops = backend.login("surface-user"), backend.login("ops", role=ROLE_OPS)
    requests = [*questions, questions[0], PARAPHRASE, AskRequest(questions[1], AskOptions(explain=True))]
    records = []
    early_diagnosis = None
    for request in requests:
        record = backend.serve(token, request)
        records.append(record)
        # Coalescing serves concurrently and leaves the clock to the
        # caller; keep flights from overlapping.
        system.clock.advance(record.answer.response_time)
        if len(records) == 3:
            early_diagnosis = backend.ops("diagnose", ops, query_id=records[0].query_id)

    alive = [replica for replica in system.cluster.replicas(0) if replica.alive]
    alive[-1].kill()
    system.cluster.status()
    page = Alert(rule="slo_latency", severity="critical", message="budget burning")
    incident = backend.incidents.check(system.clock.now(), [page])
    incident_payloads = {
        "status": backend.ops("incidents", ops),
        "incident": backend.ops("incidents", ops, incident_id=incident.incident_id),
        "timeline": backend.ops(
            "incidents", ops, incident_id=incident.incident_id, timeline=True
        ),
        "early_diagnosis": early_diagnosis,
        "diagnosis": backend.ops("diagnose", ops, query_id=records[9].query_id),
    }
    return {
        "records": records,
        "dashboard": format_dashboard(backend.ops("dashboard", ops)),
        "exposition": backend.ops("metrics", ops),
        "audit": "\n".join(backend.telemetry.audit.lines()),
        "explain": backend.ops("explain", ops, query_id=records[-1].query_id).to_json(),
        "incident": json.dumps(incident_payloads, sort_keys=True, ensure_ascii=False),
    }


def test_the_stream_reaches_both_cache_tiers_and_the_page(surfaces):
    hits = [record.answer.cache_hit for record in surfaces["records"]]
    assert hits[10:12] == ["exact", "semantic"]
    assert hits.count("") == len(hits) - 2
    assert '"top_cause": "replica_kill"' in surfaces["incident"]


@pytest.mark.parametrize("surface", sorted(PINNED))
def test_surface_bytes_are_pinned(surfaces, surface):
    digest = hashlib.sha256(surfaces[surface].encode("utf-8")).hexdigest()
    assert digest == PINNED[surface], f"{surface} moved: {digest}"
