"""Sharded multi-station federation over the live broadcast runtime.

One station serves one catalog under one channel budget; production
scale means many.  This package partitions a catalog across N station
shards via a deterministic group-aware consistent-hash ring
(:mod:`repro.federation.ring`), enforces the paper's Theorem-3.1
admission bound *federation-wide* (one
:class:`~repro.live.admission.AdmissionController` over a ledger per
shard), and replays each shard through its own live service with
popularity-drift rebalancing under a bounded reallocation budget
(:mod:`repro.federation.service`).
"""

from repro.federation.ring import ShardRing, partition_catalog, place_catalog
from repro.federation.service import (
    FEDERATION_TRANSPORTS,
    FederatedBroadcastService,
    FederationReport,
    RoutedTrace,
    ShardPlan,
    replay_shard_task,
)

__all__ = [
    "FEDERATION_TRANSPORTS",
    "FederatedBroadcastService",
    "FederationReport",
    "RoutedTrace",
    "ShardPlan",
    "ShardRing",
    "partition_catalog",
    "place_catalog",
    "replay_shard_task",
]
