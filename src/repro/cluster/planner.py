"""Shard planner: consistent-hash document placement with minimal movement.

Documents are placed on shards by hashing their ``doc_id`` onto a ring of
virtual nodes (``VNODES`` = 64 points per shard, blake2b — the salted built-in
``hash`` would not survive process restarts).  The consistent-hashing
property is what makes resharding cheap: adding one shard to an *N*-shard
ring moves only ~``1/(N+1)`` of the documents, all of them *onto* the new
shard; removing a shard moves only that shard's documents, spreading them
over the survivors.

Placement is at **document** granularity — every chunk of a document lands
on the same shard — so document-level deletes stay single-shard operations
and chunk ordering within a document is preserved inside one shard.

Explicit assignments (``pin``) override the ring, for operational moves
like draining a hot document onto a dedicated shard.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

#: Virtual nodes per shard of a fresh ring; a persisted ring records its own.
VNODES = 64


def _ring_point(key: str) -> int:
    """Deterministic 64-bit hash of *key* (stable across processes)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardPlanner:
    """Maps document ids to shard ids via a consistent-hash ring.

    Args:
        num_shards: shards to create up front (ids ``0..num_shards-1``).
        vnodes: virtual nodes per shard.
        shard_ids: restore an exact ring from a persisted shard-id list
            instead of creating ``num_shards`` fresh shards.
        pins: explicit ``doc_id -> shard_id`` overrides.
    """

    def __init__(
        self,
        num_shards: int = 1,
        vnodes: int = VNODES,
        shard_ids: Iterable[int] | None = None,
        pins: dict[str, int] | None = None,
    ) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self._vnodes = vnodes
        self._points: list[tuple[int, int]] = []  # (ring position, shard id), sorted
        self._shard_ids: list[int] = []
        self._next_shard_id = 0
        self._pins: dict[str, int] = dict(pins or {})
        if shard_ids is not None:
            for shard_id in shard_ids:
                self._insert_shard(int(shard_id))
        else:
            if num_shards < 1:
                raise ValueError("num_shards must be >= 1")
            for _ in range(num_shards):
                self.add_shard()
        if not self._shard_ids:
            raise ValueError("a planner needs at least one shard")

    # -- topology ----------------------------------------------------------

    @property
    def shard_ids(self) -> tuple[int, ...]:
        """All shard ids, in creation order."""
        return tuple(self._shard_ids)

    @property
    def num_shards(self) -> int:
        """Number of shards on the ring."""
        return len(self._shard_ids)

    @property
    def vnodes(self) -> int:
        """Virtual nodes per shard."""
        return self._vnodes

    @property
    def pins(self) -> dict[str, int]:
        """Explicit document placements overriding the ring."""
        return dict(self._pins)

    def add_shard(self) -> int:
        """Add one shard to the ring; returns its id.

        Only keys whose ring successor becomes one of the new shard's
        vnodes change owner — the minimal-movement guarantee.
        """
        shard_id = self._next_shard_id
        self._insert_shard(shard_id)
        return shard_id

    def remove_shard(self, shard_id: int) -> None:
        """Remove *shard_id* from the ring (its keys spread to survivors)."""
        if shard_id not in self._shard_ids:
            raise KeyError(f"unknown shard {shard_id}")
        if len(self._shard_ids) == 1:
            raise ValueError("cannot remove the last shard")
        self._shard_ids.remove(shard_id)
        self._points = [(pos, sid) for pos, sid in self._points if sid != shard_id]
        self._pins = {doc: sid for doc, sid in self._pins.items() if sid != shard_id}

    def _insert_shard(self, shard_id: int) -> None:
        if shard_id in self._shard_ids:
            raise ValueError(f"shard {shard_id} already on the ring")
        self._shard_ids.append(shard_id)
        self._next_shard_id = max(self._next_shard_id, shard_id + 1)
        for vnode in range(self._vnodes):
            self._points.append((_ring_point(f"shard-{shard_id}/vnode-{vnode}"), shard_id))
        self._points.sort()

    # -- placement ---------------------------------------------------------

    def assign(self, doc_id: str) -> int:
        """The shard owning *doc_id* (pin, else first vnode clockwise)."""
        pinned = self._pins.get(doc_id)
        if pinned is not None:
            return pinned
        position = _ring_point(doc_id)
        index = bisect.bisect_right(self._points, (position, 2**64))
        if index == len(self._points):
            index = 0  # wrap around the ring
        return self._points[index][1]

    def pin(self, doc_id: str, shard_id: int) -> None:
        """Pin *doc_id* to *shard_id*, overriding the ring."""
        if shard_id not in self._shard_ids:
            raise KeyError(f"unknown shard {shard_id}")
        self._pins[doc_id] = shard_id

    def unpin(self, doc_id: str) -> None:
        """Remove an explicit placement (no-op when absent)."""
        self._pins.pop(doc_id, None)

    def plan(self, doc_ids: Iterable[str]) -> dict[int, list[str]]:
        """Partition *doc_ids* into per-shard lists (every shard keyed)."""
        partition: dict[int, list[str]] = {shard_id: [] for shard_id in self._shard_ids}
        for doc_id in doc_ids:
            partition[self.assign(doc_id)].append(doc_id)
        return partition

    def moves_for(self, doc_ids: Iterable[str], previous: "ShardPlanner") -> dict[str, tuple[int, int]]:
        """Documents whose owner differs from *previous*: ``doc -> (old, new)``."""
        moves: dict[str, tuple[int, int]] = {}
        for doc_id in doc_ids:
            old = previous.assign(doc_id)
            new = self.assign(doc_id)
            if old != new:
                moves[doc_id] = (old, new)
        return moves
