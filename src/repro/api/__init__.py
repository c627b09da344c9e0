"""repro.api — the stable, typed public facade of the library.

Everything an application needs in one import::

    from repro.api import AskRequest, AskOptions, create_engine

    system = create_engine(store, lexicon)
    response = system.engine.answer(AskRequest.of("Come blocco la carta?"))
    print(response.text, response.citations)

The facade re-exports the request/response dataclasses, the deployment
builders, and the configuration types a caller composes
(:class:`UniAskConfig` and its parts).  Deep imports of
``repro.core.factory`` / ``repro.core.engine`` keep working but are no
longer part of the supported surface.

Implementation note: ``repro.core.engine`` imports :mod:`repro.api.types`
(the engine's canonical entry point takes an :class:`AskRequest`), and
importing any submodule executes this ``__init__`` first — so re-exports
that reach back into ``repro.core`` resolve lazily via module
``__getattr__`` to keep the import graph acyclic.
"""

from repro.api.builders import create_backend, create_engine
from repro.api.types import (
    CACHE_BYPASS,
    CACHE_DEFAULT,
    CACHE_POLICIES,
    CACHE_REFRESH,
    PRIORITIES,
    PRIORITY_BATCH,
    PRIORITY_CANARY,
    PRIORITY_INTERACTIVE,
    AskOptions,
    AskRequest,
    AskResponse,
)
from repro.cache.config import CacheConfig
from repro.core.answer import ALL_OUTCOMES, OUTCOME_ANSWERED, Citation, UniAskAnswer

#: Lazily resolved re-exports (module path, attribute).  These modules
#: import ``repro.core.engine`` directly or transitively, so importing
#: them here at module level would create a cycle.
_LAZY = {
    "AdmissionConfig": ("repro.autoscale.config", "AdmissionConfig"),
    "AdmissionError": ("repro.core.errors", "AdmissionError"),
    "AutoscaleConfig": ("repro.autoscale.config", "AutoscaleConfig"),
    "ClusterConfig": ("repro.cluster.config", "ClusterConfig"),
    "GenerationConfig": ("repro.core.config", "GenerationConfig"),
    "HybridSearchConfig": ("repro.search.hybrid", "HybridSearchConfig"),
    "TelemetryConfig": ("repro.obs.telemetry", "TelemetryConfig"),
    "UniAskConfig": ("repro.core.config", "UniAskConfig"),
    "UniAskSystem": ("repro.core.factory", "UniAskSystem"),
}

__all__ = [
    "ALL_OUTCOMES",
    "AdmissionConfig",
    "AdmissionError",
    "AskOptions",
    "AskRequest",
    "AskResponse",
    "AutoscaleConfig",
    "CACHE_BYPASS",
    "CACHE_DEFAULT",
    "CACHE_POLICIES",
    "CACHE_REFRESH",
    "CacheConfig",
    "Citation",
    "ClusterConfig",
    "GenerationConfig",
    "HybridSearchConfig",
    "OUTCOME_ANSWERED",
    "PRIORITIES",
    "PRIORITY_BATCH",
    "PRIORITY_CANARY",
    "PRIORITY_INTERACTIVE",
    "TelemetryConfig",
    "UniAskAnswer",
    "UniAskConfig",
    "UniAskSystem",
    "create_backend",
    "create_engine",
]


def __getattr__(name: str):
    try:
        module_path, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_path), attribute)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
