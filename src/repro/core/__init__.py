"""Core: the UniAsk engine, configuration, answers and system factory."""

from repro.core.answer import (
    ALL_OUTCOMES,
    OUTCOME_ANSWERED,
    OUTCOME_CONTENT_FILTER,
    OUTCOME_GUARDRAIL_CITATION,
    OUTCOME_GUARDRAIL_CLARIFICATION,
    OUTCOME_GUARDRAIL_ROUGE,
    OUTCOME_NO_RESULTS,
    Citation,
    UniAskAnswer,
)
from repro.core.config import GenerationConfig, UniAskConfig
from repro.core.engine import CONTENT_BLOCKED_TEXT, NO_RESULTS_TEXT, UniAskEngine
from repro.core.errors import GenerationError, IndexingError, ReproError
from repro.core.factory import UniAskSystem, build_uniask_system

__all__ = [
    "ALL_OUTCOMES",
    "OUTCOME_ANSWERED",
    "OUTCOME_CONTENT_FILTER",
    "OUTCOME_GUARDRAIL_CITATION",
    "OUTCOME_GUARDRAIL_CLARIFICATION",
    "OUTCOME_GUARDRAIL_ROUGE",
    "OUTCOME_NO_RESULTS",
    "Citation",
    "UniAskAnswer",
    "GenerationConfig",
    "UniAskConfig",
    "CONTENT_BLOCKED_TEXT",
    "NO_RESULTS_TEXT",
    "UniAskEngine",
    "GenerationError",
    "IndexingError",
    "ReproError",
    "UniAskSystem",
    "build_uniask_system",
]
