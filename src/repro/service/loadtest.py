"""Open-system load test of the LLM service (Section 9, Figure 2).

The paper treats UniAsk as an **open system**: users keep arriving at a
configured rate regardless of how many are already in the system.  The
Figure 2 test continuously hits the LLM resource for 60 minutes, ramping
the arrival rate linearly from 1 to 3 users per second, each request
carrying 7 200 tokens; 267 of 7 200 requests failed, and the observed
failures were used to set the production token-rate limit.

The simulation integrates the exact arrival process in closed form — with
rate ``r(t) = r0 + (r1 - r0) · t/T`` the cumulative arrivals are
``N(t) = r0·t + (r1 - r0)·t²/(2T)``, so the n-th arrival time solves a
quadratic — and plays the requests through a
:class:`~repro.llm.rate_limiter.TokenBucketRateLimiter`.  A request that
does not fit the bucket fails immediately (HTTP 429), exactly like the
provisioned Azure deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.llm.rate_limiter import TokenBucketRateLimiter

#: Token-bucket capacity of the LLM quota under test, in seconds of quota.
BURST_SECONDS = 15.0


@dataclass(frozen=True)
class LoadTestConfig:
    """Figure 2 parameters (paper values as defaults)."""

    duration_seconds: float = 3600.0
    initial_rate: float = 1.0  # users per second at t=0
    target_rate: float = 3.0  # users per second at t=duration
    tokens_per_request: int = 7200
    tokens_per_minute: float = 1_045_000.0  # provisioned LLM quota under test

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.initial_rate < 0 or self.target_rate < 0:
            raise ValueError("rates must be non-negative")
        if self.tokens_per_request <= 0:
            raise ValueError("tokens_per_request must be positive")


@dataclass(frozen=True)
class LoadTestReport:
    """The Figure 2 report: totals plus per-minute series."""

    total_requests: int
    failed_requests: int
    requests_per_minute: list[int] = field(default_factory=list)
    failures_per_minute: list[int] = field(default_factory=list)

    @property
    def failure_rate(self) -> float:
        """Failed / total."""
        if self.total_requests == 0:
            return 0.0
        return self.failed_requests / self.total_requests

    @property
    def first_failure_minute(self) -> int | None:
        """Minute index of the first failure (None if none occurred)."""
        for minute, failures in enumerate(self.failures_per_minute):
            if failures:
                return minute
        return None


def arrival_times(config: LoadTestConfig) -> list[float]:
    """Exact arrival instants of the ramping open-system process."""
    r0 = config.initial_rate
    r1 = config.target_rate
    duration = config.duration_seconds
    slope = (r1 - r0) / duration

    total = r0 * duration + 0.5 * slope * duration * duration
    times: list[float] = []
    for n in range(1, int(total) + 1):
        if abs(slope) < 1e-12:
            t = n / r0 if r0 > 0 else duration
        else:
            # Solve 0.5*slope*t^2 + r0*t - n = 0 for the positive root.
            discriminant = r0 * r0 + 2.0 * slope * n
            t = (-r0 + math.sqrt(discriminant)) / slope
        if t > duration:
            break
        times.append(t)
    return times


def run_load_test(
    config: LoadTestConfig | None = None, capacity=None
) -> LoadTestReport:
    """Run the Figure 2 load test against a rate-limited LLM service.

    *capacity* is an optional
    :class:`~repro.obs.capacity.CapacityMonitor`: every arrival is
    observed under the ``llm`` resource, with the quota-sustainable
    service time (tokens per request over the provisioned token rate) as
    the deterministic response time, so the ramping arrival process
    drives the saturation gauges exactly as it drives the bucket.
    """
    config = config or LoadTestConfig()
    limiter = TokenBucketRateLimiter(
        tokens_per_minute=config.tokens_per_minute,
        burst_tokens=config.tokens_per_minute / 60.0 * BURST_SECONDS,
    )

    minutes = int(math.ceil(config.duration_seconds / 60.0))
    requests_per_minute = [0] * minutes
    failures_per_minute = [0] * minutes
    service_time = config.tokens_per_request / (config.tokens_per_minute / 60.0)

    total = 0
    failed = 0
    for t in arrival_times(config):
        minute = min(int(t // 60.0), minutes - 1)
        requests_per_minute[minute] += 1
        total += 1
        decision = limiter.try_acquire(config.tokens_per_request, now=t)
        if not decision.allowed:
            failures_per_minute[minute] += 1
            failed += 1
        if capacity is not None:
            capacity.observe("llm", t, service_time, failed=not decision.allowed)

    return LoadTestReport(
        total_requests=total,
        failed_requests=failed,
        requests_per_minute=requests_per_minute,
        failures_per_minute=failures_per_minute,
    )


def recommended_token_rate_limit(
    report: LoadTestReport, config: LoadTestConfig, target_failure_rate: float = 0.01
) -> float:
    """The paper's "simple calculation": size the quota from load-test results.

    Scales the tested quota by the demand it could not absorb, so the
    production limit keeps the expected failure rate under the target.
    """
    if report.total_requests == 0:
        return config.tokens_per_minute
    demand_tpm = report.total_requests * config.tokens_per_request / (
        config.duration_seconds / 60.0
    )
    peak_demand_tpm = config.target_rate * config.tokens_per_request * 60.0
    if report.failure_rate <= target_failure_rate:
        return config.tokens_per_minute
    # Provision for the peak arrival rate with the target slack.
    return peak_demand_tpm * (1.0 + target_failure_rate) if demand_tpm else peak_demand_tpm
