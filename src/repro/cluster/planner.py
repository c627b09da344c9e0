"""Shard planner: consistent-hash document placement.

Documents are placed on shards by hashing their ``doc_id`` onto a ring of
virtual nodes (``VNODES`` = 64 points per shard, blake2b — the salted built-in
``hash`` would not survive process restarts).  The shard set is fixed when
the planner is built, and a document never leaves the shard it was placed
on.

Placement is at **document** granularity — every chunk of a document lands
on the same shard — so document-level deletes stay single-shard operations
and chunk ordering within a document is preserved inside one shard.
"""

from __future__ import annotations

import bisect
import hashlib

#: Virtual nodes per shard.  A persisted cluster records only its shard
#: count, so changing this moves documents and needs a new cluster format
#: version (:mod:`repro.cluster.persistence`).
VNODES = 64


def _ring_point(key: str) -> int:
    """Deterministic 64-bit hash of *key* (stable across processes)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardPlanner:
    """Maps document ids to shard ids ``0..num_shards-1`` via a
    consistent-hash ring."""

    def __init__(self, num_shards: int = 1) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._shard_ids = tuple(range(num_shards))
        self._points = sorted(
            (_ring_point(f"shard-{shard_id}/vnode-{vnode}"), shard_id)
            for shard_id in self._shard_ids
            for vnode in range(VNODES)
        )

    @property
    def shard_ids(self) -> tuple[int, ...]:
        """All shard ids, ascending."""
        return self._shard_ids

    @property
    def num_shards(self) -> int:
        """Number of shards on the ring."""
        return len(self._shard_ids)

    def assign(self, doc_id: str) -> int:
        """The shard owning *doc_id*: its first vnode clockwise."""
        position = _ring_point(doc_id)
        index = bisect.bisect_right(self._points, (position, 2**64))
        if index == len(self._points):
            index = 0  # wrap around the ring
        return self._points[index][1]
