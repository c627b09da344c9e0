"""Token-rate limiting for the LLM hosting service.

Azure OpenAI deployments are provisioned with a tokens-per-minute (TPM)
quota; requests beyond it are rejected.  The paper's load test (Section 9,
Figure 2) "empirically sets the token rate limit for the LLM resource" from
the observed failures, so the load-test simulation needs a faithful limiter.

:class:`TokenBucketRateLimiter` implements the standard token-bucket model:
capacity refills continuously at ``tokens_per_minute / 60`` per second, a
request consumes its total token count atomically, and a request that does
not fit is rejected (HTTP 429 in the real service).  Time is injected by
the caller, so the simulated clock drives it deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RateLimitDecision:
    """Outcome of admitting one request."""

    allowed: bool
    available_tokens: float


class TokenBucketRateLimiter:
    """Continuous-refill token bucket keyed on an external clock.

    Args:
        tokens_per_minute: sustained quota (TPM).
        burst_tokens: bucket capacity; defaults to one minute of quota,
            matching Azure's behaviour of allowing short bursts.
    """

    def __init__(
        self, tokens_per_minute: float, burst_tokens: float | None = None, registry=None
    ) -> None:
        from repro.obs.metrics import NULL_REGISTRY

        if tokens_per_minute <= 0:
            raise ValueError("tokens_per_minute must be positive")
        self._rate_per_second = tokens_per_minute / 60.0
        self._capacity = burst_tokens if burst_tokens is not None else tokens_per_minute
        if self._capacity <= 0:
            raise ValueError("burst_tokens must be positive")
        self._available = self._capacity
        self._last_time = 0.0
        self.admitted = 0
        self.rejected = 0
        registry = registry or NULL_REGISTRY
        self._m_decisions = registry.counter(
            "uniask_llm_ratelimit_total",
            "Rate-limiter admission decisions, by outcome.",
            ("decision",),
        )

    def available(self, now: float) -> float:
        """Tokens available at time *now* (seconds)."""
        self._refill(now)
        return self._available

    def try_acquire(self, tokens: float, now: float) -> RateLimitDecision:
        """Attempt to consume *tokens* at time *now*.

        Returns a decision; rejected requests consume nothing (the service
        fails fast rather than queueing, as an open system must).
        """
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        self._refill(now)
        if tokens <= self._available:
            self._available -= tokens
            self.admitted += 1
            self._m_decisions.labels("allowed").inc()
            return RateLimitDecision(allowed=True, available_tokens=self._available)
        self.rejected += 1
        self._m_decisions.labels("rejected").inc()
        return RateLimitDecision(allowed=False, available_tokens=self._available)

    def _refill(self, now: float) -> None:
        if now < self._last_time:
            raise ValueError("clock moved backwards")
        elapsed = now - self._last_time
        self._last_time = now
        self._available = min(self._capacity, self._available + elapsed * self._rate_per_second)
