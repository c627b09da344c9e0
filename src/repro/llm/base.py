"""Chat-completion interface.

The generation module of UniAsk talks to gpt-3.5-turbo through its chat
completion API (Section 5).  This module defines the provider-neutral
surface — messages in, one assistant message out — implemented offline by
:class:`repro.llm.simulated.SimulatedChatLLM`.  Any client exposing
:meth:`ChatCompletionClient.complete` can be plugged into the engine, the
query-expansion variants and the metadata enrichment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.obs import spans
from repro.obs.trace import NULL_CONTEXT, RequestContext
from repro.obs.work import WORK_LLM_COMPLETION_TOKENS, WORK_LLM_PROMPT_TOKENS

#: The chat roles accepted by the API.
ROLES = ("system", "user", "assistant")

#: Typed classification of a completion: an ordinary grounded answer.
RESPONSE_KIND_ANSWER = "answer"

#: The completion asks the user for more details instead of (or on top of)
#: answering.
RESPONSE_KIND_CLARIFICATION = "clarification_request"

#: The completion is an honest refusal (no grounded answer available).
RESPONSE_KIND_REFUSAL = "refusal"


@dataclass(frozen=True)
class ChatMessage:
    """One message of a chat conversation."""

    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}")


@dataclass(frozen=True)
class ChatUsage:
    """Token accounting of one completion call."""

    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def total_tokens(self) -> int:
        """Prompt plus completion tokens."""
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True)
class ChatResponse:
    """The assistant's reply plus usage metadata.

    ``kind`` is the typed classification of the reply (one of the
    ``RESPONSE_KIND_*`` constants); clients that cannot classify their
    output leave the default, which downstream consumers treat as an
    ordinary answer.
    """

    content: str
    usage: ChatUsage = field(default_factory=ChatUsage)
    finish_reason: str = "stop"
    kind: str = RESPONSE_KIND_ANSWER


@runtime_checkable
class ChatCompletionClient(Protocol):
    """Anything that answers a chat conversation with one message."""

    def complete(
        self,
        messages: list[ChatMessage],
        temperature: float = 0.0,
        max_tokens: int = 512,
    ) -> ChatResponse:
        """Generate the assistant reply for *messages*."""
        ...


def traced_complete(
    client: ChatCompletionClient,
    messages: list[ChatMessage],
    ctx: RequestContext = NULL_CONTEXT,
    *,
    temperature: float = 0.0,
    max_tokens: int = 512,
    stage: str = spans.STAGE_LLM,
) -> ChatResponse:
    """Run one completion inside a *stage* span of the request trace.

    Records prompt size, token usage and finish reason on the span; a
    raising client marks the span as errored before propagating.  With the
    null context this is a plain ``client.complete`` call — the prompt-size
    accounting is skipped entirely, keeping the untraced hot path free of
    observability cost.  When ``ctx.work`` is set the response's token
    usage is booked as ``llm_prompt_tokens``/``llm_completion_tokens``
    (the completion API is the source of truth), even if tracing is off.
    """
    trace = ctx.trace
    work = ctx.work
    if not trace.enabled:
        response = client.complete(messages, temperature=temperature, max_tokens=max_tokens)
        _book_usage(work, response)
        return response
    with trace.span(
        stage,
        messages=len(messages),
        prompt_chars=sum(len(message.content) for message in messages),
    ) as span:
        response = client.complete(messages, temperature=temperature, max_tokens=max_tokens)
        span.annotate(
            prompt_tokens=response.usage.prompt_tokens,
            completion_tokens=response.usage.completion_tokens,
            finish_reason=response.finish_reason,
        )
        if work is not None:
            span.annotate(
                work_llm_prompt_tokens=response.usage.prompt_tokens,
                work_llm_completion_tokens=response.usage.completion_tokens,
            )
        _book_usage(work, response)
    return response


def _book_usage(work, response: ChatResponse) -> None:
    """Book one completion's token usage into *work* (no-op when None)."""
    if work is None:
        return
    work.add(WORK_LLM_PROMPT_TOKENS, response.usage.prompt_tokens)
    work.add(WORK_LLM_COMPLETION_TOKENS, response.usage.completion_tokens)


def system(content: str) -> ChatMessage:
    """Shorthand for a system message."""
    return ChatMessage("system", content)


def user(content: str) -> ChatMessage:
    """Shorthand for a user message."""
    return ChatMessage("user", content)


def assistant(content: str) -> ChatMessage:
    """Shorthand for an assistant message."""
    return ChatMessage("assistant", content)
