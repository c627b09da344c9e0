"""Deployment builders of the stable public API.

``create_engine`` and ``create_backend`` are the supported way to stand a
deployment up; they wrap :func:`repro.core.factory.build_uniask_system`
and :class:`repro.service.backend.BackendService` so callers never have to
deep-import ``repro.core.factory`` / ``repro.core.engine`` (module paths
that remain free to move between releases — the facade will not).

Imports of the factory and service layers happen inside the functions:
``repro.core.engine`` itself imports ``repro.api.types``, so a
module-level import here would close an import cycle through the package
``__init__``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.config import UniAskConfig
    from repro.core.factory import UniAskSystem


def create_engine(store, lexicon, config: "UniAskConfig | None" = None, **kwargs) -> "UniAskSystem":
    """Wire a complete deployment; the engine lives at ``system.engine``.

    Returns the full :class:`~repro.core.factory.UniAskSystem` rather than
    the bare engine so callers keep handles to the store, the simulated
    clock and the ingestion pipeline — everything the operational examples
    need.  Arguments mirror
    :func:`~repro.core.factory.build_uniask_system` exactly.
    """
    from repro.core.factory import build_uniask_system

    return build_uniask_system(store, lexicon, config=config, **kwargs)


def create_backend(system: "UniAskSystem", tracing: bool = False, **kwargs):
    """A :class:`~repro.service.backend.BackendService` over *system*.

    Wires the service onto the system's clock, telemetry and cache
    configuration; extra keyword arguments (latency model parameters,
    seeds) pass through to the service constructor.

    QoS wiring follows the system's config: an admission-enabled
    deployment gets an
    :class:`~repro.autoscale.admission.AdmissionController`, an
    autoscale-enabled cluster threads ``system.autoscaler`` into the
    serve loop, and an incident-enabled deployment gets an
    :class:`~repro.obs.incident.IncidentManager` over the system's
    flight recorder.  All stay None — and the service byte-identical —
    when the config leaves them off.  Explicit ``admission=`` /
    ``autoscaler=`` / ``incidents=`` keyword arguments win over the
    config-driven wiring.  Request coalescing follows the cache switch and
    has no override: it is one of the four tiers ``CacheConfig.enabled``
    turns on.
    """
    from repro.service.backend import BackendService

    if "admission" not in kwargs and system.config.autoscale.admission.enabled:
        from repro.autoscale.admission import AdmissionController

        kwargs["admission"] = AdmissionController(
            registry=system.telemetry.registry,
            recorder=system.recorder,
        )
    if "autoscaler" not in kwargs and system.autoscaler is not None:
        kwargs["autoscaler"] = system.autoscaler
    if "incidents" not in kwargs and system.config.incident.enabled:
        from repro.obs.incident import IncidentManager

        kwargs["incidents"] = IncidentManager(
            clock=system.clock,
            recorder=system.recorder,
            audit=system.telemetry.audit,
            registry=system.telemetry.registry,
        )

    return BackendService(
        system.engine,
        system.clock,
        tracing=tracing,
        telemetry=system.telemetry,
        coalescing=system.config.cache.enabled,
        **kwargs,
    )
