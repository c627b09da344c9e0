"""Typed operational routes: the registry behind ``BackendService.ops``.

The ops surface used to be an ad-hoc ``{name: (handler, privileged)}``
tuple table maintained by hand next to the class.  This module replaces
it with a typed registry: each handler method declares itself with the
:func:`ops_route` decorator and :func:`collect_ops_routes` builds the
``{name: OpsRoute}`` table from the class body.  Callers have one call
style: ``backend.ops(route, token, **params)``.

The security contract is unchanged: all authorization for operational
endpoints happens in exactly one place (``BackendService.ops``), driven
by the ``privileged`` flag of each :class:`OpsRoute` — one check, no
per-endpoint copies, and the payloads of pre-existing routes are
byte-identical to the tuple-table era (asserted in
``tests/test_service_telemetry.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = [
    "OpsRoute",
    "collect_ops_routes",
    "ops_route",
]

#: Attribute stamped on handler methods by the decorator.
_MARKER = "__ops_route__"


@dataclass(frozen=True)
class OpsRoute:
    """One operational endpoint as registered by :func:`ops_route`.

    Attributes:
        name: the public route name (``"dashboard"``, ``"metrics"``, …).
        handler: the backend method attribute that serves it.
        privileged: True when dispatch requires an ops-role session;
            probe routes (``healthz``/``readyz``) are unauthenticated by
            design — a load balancer holds no session token.
        description: one-line operator-facing summary.
    """

    name: str
    handler: str
    privileged: bool
    description: str = ""


def ops_route(
    name: str, privileged: bool = True, description: str = ""
) -> Callable[[Callable], Callable]:
    """Register the decorated method as the handler of ops route *name*."""

    def decorate(method: Callable) -> Callable:
        setattr(
            method,
            _MARKER,
            OpsRoute(
                name=name,
                handler=method.__name__,
                privileged=privileged,
                description=description,
            ),
        )
        return method

    return decorate


def collect_ops_routes(cls: type) -> dict[str, OpsRoute]:
    """The ``{name: OpsRoute}`` table of every decorated handler of *cls*.

    Routes keep the order of their definition in the class body (subclass
    handlers override and re-position base routes of the same name).

    Two *different* handlers registering the same route name in the same
    class body raise ``ValueError`` — silent last-write-wins here means a
    production endpoint quietly serving the wrong handler.  A subclass
    overriding a base-class route stays legal (that is the override
    mechanism), as does re-decorating the same method.
    """
    routes: dict[str, OpsRoute] = {}
    for klass in reversed(cls.__mro__):
        seen: dict[str, str] = {}
        for attr in vars(klass).values():
            route = getattr(attr, _MARKER, None)
            if isinstance(route, OpsRoute):
                previous = seen.get(route.name)
                if previous is not None and previous != route.handler:
                    raise ValueError(
                        f"ops route {route.name!r} registered by two handlers "
                        f"in {klass.__name__}: {previous} and {route.handler}"
                    )
                seen[route.name] = route.handler
                routes[route.name] = route
    return routes
