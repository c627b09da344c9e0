"""Exception hierarchy of the repro library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class IndexingError(ReproError):
    """A document could not be parsed, chunked or indexed."""


class GenerationError(ReproError):
    """The LLM call failed or returned an unusable completion."""

