"""Configuration of the multi-tier cache subsystem."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """The cache layer of one deployment: one switch.

    The cache is **off by default**: a deployment built without touching
    this config behaves byte-identically to one predating the cache
    subsystem (verified differentially by the cache test suite).
    ``enabled=True`` turns on all four tiers together:

    * the exact answer tier — one :class:`~repro.cache.AnswerCache` entry
      per (analyzer-normalized question, filters, index epoch);
    * the semantic near-hit tier on the same store — a lookup that misses
      the exact tier may reuse the cached answer whose stored query
      embedding is similar enough (served as ``cache_hit="semantic"``);
    * the per-shard retrieval-result cache inside the cluster router,
      invalidated by each shard's write generation;
    * single-flight request coalescing in the backend — concurrent
      identical questions execute the pipeline once and share the
      leader's answer.

    The bounds are constants beside the code that reads them:
    ``ANSWER_CAPACITY`` (1024 entries, LRU beyond), ``ANSWER_TTL_SECONDS``
    (3600 on the pipeline clock) and ``SEMANTIC_THRESHOLD`` (0.97 cosine)
    in :mod:`repro.cache.answer_cache`; ``RETRIEVAL_CAPACITY`` (2048
    entries per shard) in :mod:`repro.cache.retrieval_cache`.

    Attributes:
        enabled: master switch for the whole subsystem.
    """

    enabled: bool = False
