"""Exception hierarchy of the repro library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class IndexingError(ReproError):
    """A document could not be parsed, chunked or indexed."""


class GenerationError(ReproError):
    """The LLM call failed or returned an unusable completion."""


class AdmissionError(ReproError):
    """The request was rejected at admission (load shedding, level 3).

    Raised by the backend when the staged shedding ladder runs out of
    degraded modes for this priority class — the typed equivalent of an
    HTTP 429 / ``Retry-After``.  Carries everything a client needs to
    back off politely.

    Attributes:
        priority: the priority class of the rejected request.
        retry_after_seconds: how long the client should wait before
            retrying (simulated seconds).
        pressure: the admission pressure (0..) that triggered rejection.
        reason: ``"overload"`` or ``"deadline"`` (the request's
            ``deadline_ms`` was infeasible even fully degraded).
    """

    def __init__(
        self,
        message: str,
        *,
        priority: str = "",
        retry_after_seconds: float = 0.0,
        pressure: float = 0.0,
        reason: str = "overload",
    ) -> None:
        super().__init__(message)
        self.priority = priority
        self.retry_after_seconds = retry_after_seconds
        self.pressure = pressure
        self.reason = reason
