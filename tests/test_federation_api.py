"""FederationCreate/ShardReport: typed messages and plane dispatch.

The federation planning probe is deliberately *stateless*: the control
plane places the catalog exactly as the federation would (the ring plus
empty-shard seeding), judges every shard against Theorem 3.1, answers with a :class:`~repro.api.types.ShardReport`, and
forgets — nothing is journaled, no session is created, so probing
shard counts is free and crash-recovery byte-identity is untouched.
"""

from __future__ import annotations

import pytest

from repro.api.codec import decode_line, encode_line
from repro.api.types import ApiError, FederationCreate, ShardReport
from repro.control.plane import _MUTATING_TYPES, ControlPlane
from repro.core.errors import ReproError
from repro.federation import FederatedBroadcastService
from repro.live.mutations import MutationTrace

_CATALOG = {1: 4, 2: 4, 3: 8, 4: 8, 5: 16, 6: 16, 7: 32, 8: 32}


class TestMessageTypes:
    def test_create_round_trips_through_codec(self):
        request = FederationCreate(
            name="fed", catalog=_CATALOG, shards=2, seed=3
        )
        assert decode_line(encode_line(request)) == request

    def test_report_round_trips_through_codec(self):
        report = ShardReport(
            name="fed",
            shards=2,
            budget=3,
            ring_fingerprint="42b90e6d33420405",
            entries=(
                {
                    "shard": 0,
                    "pages": 6,
                    "required_channels": 2,
                    "channel_load": 0.875,
                },
                {
                    "shard": 1,
                    "pages": 2,
                    "required_channels": 1,
                    "channel_load": 0.0625,
                },
            ),
            feasible=True,
        )
        assert decode_line(encode_line(report)) == report

    def test_create_validates_inputs(self):
        with pytest.raises(ReproError, match="non-empty"):
            FederationCreate(name="", catalog=_CATALOG)
        with pytest.raises(ReproError, match="catalog"):
            FederationCreate(name="fed", catalog={})
        with pytest.raises(ReproError, match="shards"):
            FederationCreate(name="fed", catalog=_CATALOG, shards=0)

    def test_budget_none_survives_the_wire(self):
        request = FederationCreate(name="fed", catalog=_CATALOG)
        again = decode_line(encode_line(request))
        assert again.budget is None


class TestPlaneDispatch:
    def test_probe_returns_full_shard_map(self):
        plane = ControlPlane()
        report = plane.handle(
            FederationCreate(
                name="fed", catalog=_CATALOG, shards=2, seed=3
            )
        )
        assert isinstance(report, ShardReport)
        assert report.name == "fed"
        assert report.shards == 2
        assert report.ring_fingerprint == "42b90e6d33420405"
        assert [e["shard"] for e in report.entries] == [0, 1]
        assert sum(e["pages"] for e in report.entries) == len(_CATALOG)
        assert report.feasible

    def test_default_budget_is_taut_maximum(self):
        plane = ControlPlane()
        report = plane.handle(
            FederationCreate(name="fed", catalog=_CATALOG, shards=2)
        )
        assert report.budget == max(
            e["required_channels"] for e in report.entries
        )
        assert report.feasible

    def test_tight_budget_reports_infeasible(self):
        plane = ControlPlane()
        catalog = {i: 2 for i in range(1, 9)}
        catalog[100] = 4
        report = plane.handle(
            FederationCreate(
                name="fed", catalog=catalog, shards=2, budget=1
            )
        )
        assert isinstance(report, ShardReport)
        assert not report.feasible

    def test_more_shards_than_groups_is_bad_request(self):
        plane = ControlPlane()
        response = plane.handle(
            FederationCreate(name="fed", catalog={1: 4, 2: 4}, shards=2)
        )
        assert isinstance(response, ApiError)
        assert response.code == "bad-request"

    def test_probe_is_stateless_and_never_journaled(self):
        assert FederationCreate not in _MUTATING_TYPES
        plane = ControlPlane()
        plane.handle(
            FederationCreate(name="fed", catalog=_CATALOG, shards=2)
        )
        assert plane.services == ()

    def test_probe_is_deterministic(self):
        request = FederationCreate(
            name="fed", catalog=_CATALOG, shards=4, seed=7
        )
        first = ControlPlane().handle(request)
        second = ControlPlane().handle(request)
        assert first == second


def _ladder_catalog(ladder, per_group):
    times = [t for t in ladder for _ in range(per_group)]
    return {page: t for page, t in enumerate(times, start=1)}


class TestProbeMatchesFederation:
    @pytest.mark.parametrize(
        "ladder", ((2, 4, 8, 16), (3, 6, 12, 24, 48), (4, 8, 16, 32, 64, 128))
    )
    @pytest.mark.parametrize("per_group", (1, 3))
    def test_probe_prices_the_partition_the_federation_serves(
        self, ladder, per_group
    ):
        """Per-shard pages and the default budget equal the service's,
        for every shard count the ladder allows and several seeds."""
        catalog = _ladder_catalog(ladder, per_group)
        empty = MutationTrace(horizon=8, events=())
        for shards in range(1, len(ladder) + 1):
            for seed in range(5):
                report = ControlPlane().handle(
                    FederationCreate(
                        name="fed", catalog=catalog, shards=shards,
                        seed=seed,
                    )
                )
                service = FederatedBroadcastService(
                    catalog, empty, shards=shards, seed=seed
                )
                assert [e["pages"] for e in report.entries] == [
                    len(service.partition[s]) for s in service.ring.shards
                ], (shards, seed)
                assert report.budget == service.budget, (shards, seed)

    def test_empty_ring_shard_is_seeded_as_the_service_seeds_it(self):
        # The ring hashes every group of this ladder onto shard 0; the
        # federation re-pins the smallest group to shard 1.
        report = ControlPlane().handle(
            FederationCreate(
                name="fed", catalog=_ladder_catalog((2, 4, 8, 16), 3),
                shards=2, seed=3,
            )
        )
        assert [e["pages"] for e in report.entries] == [9, 3]
        assert report.budget == 2
