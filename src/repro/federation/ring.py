"""Deterministic, group-aware consistent-hash ring for station shards.

The federation partitions a catalog across N station shards at the
granularity of *geometric-ladder groups*: every page whose
``expected_time`` is ``t`` belongs to group ``t``, and the ring maps the
whole group to one shard.  Pinning groups (rather than pages) is the
Lai-et-al-style placement-coordination rule — pages that share a
deadline share a cadence, and splitting them across stations would make
every station pay the group's cycle-length cost for a fraction of its
pages.  A group leaves its pinned shard only through explicit page-level
overrides (budget spill or drift rebalancing), which the router layers
on top of the ring; the ring itself never splits a group.

The ring is a pure function of ``(seed, replicas, shard ids)``: virtual
points come from SHA-256, not Python's salted ``hash()``, so the same
seed produces the same placement in every process — the property the
federation's byte-identical replay contract rests on.  With ``replicas``
virtual points per shard, :meth:`ShardRing.join` / :meth:`ShardRing.
leave` move only the expected ~``K/N`` of ``K`` groups (the classic
consistent-hashing bound, tested with hypothesis).
"""

from __future__ import annotations

import bisect
import hashlib
import json
from collections import Counter
from typing import Iterable, Mapping

from repro.core.errors import ReproError

__all__ = ["ShardRing", "partition_catalog", "place_catalog"]


def _point(seed: int, label: str) -> int:
    """A stable 64-bit ring position for ``label`` under ``seed``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ShardRing:
    """Consistent-hash ring mapping ladder groups to shard ids.

    Args:
        shards: Shard count (ids ``0..shards-1``) or an explicit
            iterable of shard ids.
        seed: Placement seed; the ring is a pure function of
            ``(seed, replicas, shard ids)``.
        replicas: Virtual points per shard.  More replicas smooth the
            group distribution and tighten the ~``K/N`` movement bound
            on join/leave, at O(replicas · shards) memory.
    """

    def __init__(
        self,
        shards: int | Iterable[int],
        *,
        seed: int = 0,
        replicas: int = 64,
    ) -> None:
        if replicas < 1:
            raise ReproError(f"replicas must be >= 1, got {replicas}")
        if isinstance(shards, int):
            if shards < 1:
                raise ReproError(f"shards must be >= 1, got {shards}")
            ids: tuple[int, ...] = tuple(range(shards))
        else:
            ids = tuple(int(s) for s in shards)
            if not ids:
                raise ReproError("ring needs at least one shard")
            if len(set(ids)) != len(ids):
                raise ReproError(f"duplicate shard ids in {ids}")
        self.seed = int(seed)
        self.replicas = int(replicas)
        self._shards: set[int] = set(ids)
        self._rebuild()

    def _rebuild(self) -> None:
        points: list[tuple[int, int]] = []
        for shard in sorted(self._shards):
            for replica in range(self.replicas):
                points.append(
                    (_point(self.seed, f"shard:{shard}:{replica}"), shard)
                )
        # Ties between distinct shards at the same point are broken by
        # shard id (the sort's second key) — deterministic either way.
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]
        # group -> shard lookups are memoised: the columnar router asks
        # for the same handful of ladder groups across millions of
        # listener routings, and each miss pays a SHA-256 digest.
        # Membership changes invalidate the whole cache.
        self._owner_cache: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def shards(self) -> tuple[int, ...]:
        """Current shard ids, ascending."""
        return tuple(sorted(self._shards))

    def join(self, shard: int) -> None:
        """Add a shard; only ~1/N of the groups re-home onto it."""
        if shard in self._shards:
            raise ReproError(f"shard {shard} is already on the ring")
        self._shards.add(int(shard))
        self._rebuild()

    def leave(self, shard: int) -> None:
        """Drop a shard; only its own groups re-home, onto survivors."""
        if shard not in self._shards:
            raise ReproError(f"shard {shard} is not on the ring")
        if len(self._shards) == 1:
            raise ReproError("cannot remove the last shard from the ring")
        self._shards.discard(shard)
        self._rebuild()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def owner(self, group: int) -> int:
        """The shard pinned to ladder group ``group`` (an expected time)."""
        group = int(group)
        cached = self._owner_cache.get(group)
        if cached is not None:
            return cached
        point = _point(self.seed, f"group:{group}")
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        shard = self._owners[index]
        self._owner_cache[group] = shard
        return shard

    def assignment(self, groups: Iterable[int]) -> dict[int, int]:
        """``group -> shard`` for every group, in one pass."""
        return {int(g): self.owner(int(g)) for g in groups}

    def fingerprint(self) -> str:
        """Content digest of the full virtual-point table.

        SHA-256 over the canonical JSON of ``(seed, replicas, points)``,
        truncated to 16 hex chars — byte-stable across processes and
        platforms, and sensitive to any membership or seed change.
        """
        doc = {
            "seed": self.seed,
            "replicas": self.replicas,
            "points": [
                [p, s] for p, s in zip(self._points, self._owners)
            ],
        }
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def __repr__(self) -> str:
        return (
            f"ShardRing(shards={len(self._shards)}, seed={self.seed}, "
            f"replicas={self.replicas})"
        )


def partition_catalog(
    catalog: Mapping[int, int],
    ring: ShardRing,
    *,
    group_overrides: Mapping[int, int] | None = None,
    page_overrides: Mapping[int, int] | None = None,
) -> dict[int, dict[int, int]]:
    """Split a ``page_id -> expected_time`` catalog across the ring.

    Ownership is resolved page-level override first, then group-level
    override, then the ring — the same precedence the federation router
    uses — and every shard on the ring appears in the result, possibly
    with an empty mapping.
    """
    group_overrides = dict(group_overrides or {})
    page_overrides = dict(page_overrides or {})
    parts: dict[int, dict[int, int]] = {s: {} for s in ring.shards}
    for page_id, expected in catalog.items():
        shard = page_overrides.get(page_id)
        if shard is None:
            shard = group_overrides.get(expected)
        if shard is None:
            shard = ring.owner(expected)
        parts[shard][int(page_id)] = int(expected)
    return parts


def place_catalog(
    catalog: Mapping[int, int], ring: ShardRing
) -> tuple[dict[int, int], dict[int, dict[int, int]]]:
    """Pin every ladder group to a shard and split ``catalog`` by it.

    The ring may hash several groups onto one shard and none onto
    another; a shard's :class:`~repro.live.catalog.LiveCatalog` cannot
    be empty, so whole groups (never fractions of one) are re-pinned
    deterministically: the smallest group of the most group-rich shard
    moves to the lowest empty shard, repeatedly.  Feasible whenever the
    catalog has at least as many groups as the ring has shards (callers
    check).

    Returns the ``group -> shard`` overrides layered over the ring and
    the ``shard -> {page_id: expected_time}`` partition: the one
    placement the federation serves and the control plane's planning
    probe prices.
    """
    sizes = Counter(int(expected) for expected in catalog.values())
    groups = sorted(sizes)
    overrides: dict[int, int] = {}
    while True:
        held: dict[int, list[int]] = {s: [] for s in ring.shards}
        for group in groups:
            held[overrides.get(group, ring.owner(group))].append(group)
        empty = sorted(s for s, gs in held.items() if not gs)
        if not empty:
            break
        donor = max(
            (s for s, gs in held.items() if len(gs) > 1),
            key=lambda s: (len(held[s]), -s),
        )
        group = min(held[donor], key=lambda g: (sizes[g], g))
        overrides[group] = empty[0]
    return overrides, partition_catalog(
        catalog, ring, group_overrides=overrides
    )
