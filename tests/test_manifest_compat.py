"""Manifest schema compatibility: golden v1..v10 fixtures through repro.api.

One golden document per schema version lives in ``tests/fixtures/``;
every one of them must parse through the :mod:`repro.api` manifest
codecs into the current (v10) in-memory shape, with the keys newer
versions introduced defaulted and the keys v10 retired dropped, and
re-serialise as a stable v10 document (``from_dict(to_dict(m)) == m``,
the round-trip contract).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.api import (
    manifest_from_dict,
    manifest_from_json,
    manifest_to_dict,
    manifest_to_json,
)
from repro.core.errors import ReproError
from repro.core.pages import instance_from_counts
from repro.engine import BroadcastEngine
from repro.engine.telemetry import MANIFEST_VERSION, RunManifest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
ALL_VERSIONS = tuple(range(1, MANIFEST_VERSION + 1))

#: Executor keys version 10 retired (each always held one value).
RETIRED_V10 = ("chunk_size", "measure_backend", "harvested", "compute_backend")


def load_fixture(version: int) -> dict:
    return json.loads(
        (FIXTURES / f"manifest_v{version}.json").read_text()
    )


class TestGoldenFixtures:
    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_fixture_declares_its_version(self, version):
        assert load_fixture(version)["manifest_version"] == version

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_parses_through_api_codec(self, version):
        manifest = manifest_from_dict(load_fixture(version))
        assert isinstance(manifest, RunManifest)
        assert manifest.run_id >= 1

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_round_trips_as_current_version(self, version):
        manifest = manifest_from_dict(load_fixture(version))
        payload = manifest_to_dict(manifest)
        assert payload["manifest_version"] == MANIFEST_VERSION
        again = manifest_from_dict(payload)
        assert again == manifest

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_parses_to_the_fresh_sweep_key_set(self, version):
        fresh = BroadcastEngine().sweep(
            instance_from_counts([3, 5, 3], [2, 4, 8]),
            algorithms=("pamad",),
            channel_points=(2,),
            num_requests=50,
        ).manifest.to_dict()
        parsed = manifest_to_dict(manifest_from_dict(load_fixture(version)))
        assert set(parsed) == set(fresh)
        assert set(parsed["executor"]) == set(fresh["executor"])

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_json_codec_matches_dict_codec(self, version):
        text = (FIXTURES / f"manifest_v{version}.json").read_text()
        via_json = manifest_from_json(text)
        via_dict = manifest_from_dict(json.loads(text))
        assert via_json == via_dict
        assert manifest_from_json(manifest_to_json(via_json)) == via_json


class TestVersionDefaults:
    def test_v1_executor_gains_hardening_and_chunk_keys(self):
        manifest = manifest_from_dict(load_fixture(1))
        for key in (
            "retries", "cell_failures", "breaker_trips", "timeouts",
            "short_circuited",
        ):
            assert manifest.executor[key] == 0, key
        for key in RETIRED_V10:
            assert key not in manifest.executor, key

    @pytest.mark.parametrize("version", (1, 2))
    def test_pre_v3_service_block_defaults_empty(self, version):
        assert manifest_from_dict(load_fixture(version)).service == {}

    def test_v3_service_counters_gain_v4_fields(self):
        manifest = manifest_from_dict(load_fixture(3))
        counters = manifest.service["counters"]
        for key in (
            "batched_listeners", "events_coalesced", "replans_avoided",
        ):
            assert counters[key] == 0, key

    def test_v4_service_counters_preserved(self):
        manifest = manifest_from_dict(load_fixture(4))
        counters = manifest.service["counters"]
        assert counters["batched_listeners"] == 6
        assert counters["events_coalesced"] == 2
        assert counters["replans_avoided"] == 1

    @pytest.mark.parametrize("version", (1, 2, 3, 4))
    def test_pre_v5_control_block_defaults_empty(self, version):
        assert manifest_from_dict(load_fixture(version)).control == {}

    def test_v5_control_block_preserved(self):
        manifest = manifest_from_dict(load_fixture(5))
        assert manifest.operation == "control"
        control = manifest.control
        assert control["policy"]["miss_streak"] == 4
        assert control["applied"] == 1
        records = control["records"]
        assert len(records) == 1
        record = records[0]
        assert record["trigger"] == "sustained-miss"
        assert record["applied"] == "add_channel"
        assert any(c["passed"] for c in record["candidates"])
        assert control["stream"]["events"] == 9

    def test_v5_control_block_gains_durability_default(self):
        manifest = manifest_from_dict(load_fixture(5))
        durability = manifest.control["durability"]
        assert durability == {"requests": 0, "fingerprint": None}

    def test_v6_durability_block_preserved(self):
        manifest = manifest_from_dict(load_fixture(6))
        durability = manifest.control["durability"]
        assert durability["requests"] == 2
        assert durability["fingerprint"] == "9c41f5b27a80d3e6"

    @pytest.mark.parametrize("version", (1, 2, 3, 4, 5, 6))
    def test_pre_v7_federation_block_defaults_empty(self, version):
        assert manifest_from_dict(load_fixture(version)).federation == {}

    def test_v7_federation_block_preserved(self):
        manifest = manifest_from_dict(load_fixture(7))
        assert manifest.operation == "federate"
        federation = manifest.federation
        assert federation["shards"] == 2
        assert federation["admission"]["admitted"] == 6
        assert federation["admission"]["spilled"] == 0
        assert federation["pages_moved"] == len(federation["rebalances"])
        assert len(federation["shard_reports"]) == 2
        assert federation["ring_fingerprint"]

    @pytest.mark.parametrize("version", (1, 2, 3, 4, 5, 6, 7))
    def test_pre_v8_executor_gains_transport_keys(self, version):
        executor = manifest_from_dict(load_fixture(version)).executor
        expected = "pickle" if executor["mode"] == "process" else "inline"
        assert executor["transport"] == expected

    def test_v8_transport_keys_preserved(self):
        manifest = manifest_from_dict(load_fixture(8))
        executor = manifest.executor
        assert executor["transport"] == "shm"
        assert load_fixture(8)["executor"]["harvested"] == 2
        for key in RETIRED_V10:
            assert key not in executor, key

    @pytest.mark.parametrize("version", (4, 5, 6, 7, 8, 9))
    def test_v10_drops_the_retired_executor_keys(self, version):
        payload = load_fixture(version)
        assert "chunk_size" in payload["executor"]
        executor = manifest_from_dict(payload).executor
        for key in RETIRED_V10:
            assert key not in executor, key
        kept = set(payload["executor"]) - set(RETIRED_V10)
        for key in kept:
            assert executor[key] == payload["executor"][key], key

    @pytest.mark.parametrize("version", (7, 8))
    def test_pre_v9_federation_block_gains_transport(self, version):
        manifest = manifest_from_dict(load_fixture(version))
        federation = manifest.federation
        assert federation  # both golden docs carry a federation block
        expected = (
            "pickle"
            if manifest.executor["mode"] == "process"
            else "inline"
        )
        assert federation["transport"] == expected

    @pytest.mark.parametrize("version", (1, 2, 3, 4, 5, 6))
    def test_pre_v9_empty_federation_gains_nothing(self, version):
        # An absent federation block must stay {}, not grow a transport.
        assert manifest_from_dict(load_fixture(version)).federation == {}

    def test_v9_federation_transport_preserved(self):
        manifest = manifest_from_dict(load_fixture(9))
        assert manifest.operation == "federate"
        federation = manifest.federation
        assert federation["transport"] == "shm"
        assert federation["shards"] == 2
        assert federation["final_valid"] is True

    def test_v10_golden_re_serialises_byte_identically(self):
        text = (FIXTURES / "manifest_v10.json").read_text()
        again = json.dumps(
            manifest_to_dict(manifest_from_json(text)),
            indent=2,
            sort_keys=True,
        ) + "\n"
        assert again == text

    def test_v5_remediation_records_parse_as_typed_objects(self):
        from repro.api import RemediationRecord

        manifest = manifest_from_dict(load_fixture(5))
        records = [
            RemediationRecord.from_dict(item)
            for item in manifest.control["records"]
        ]
        assert records[0].applied == "add_channel"
        assert records[0].candidates[0].reason == "restores-slo"
        payload = records[0].to_dict()
        assert RemediationRecord.from_dict(payload) == records[0]


class TestRejection:
    def test_newer_version_rejected(self):
        payload = load_fixture(5)
        payload["manifest_version"] = MANIFEST_VERSION + 1
        with pytest.raises(ReproError, match="unsupported manifest_version"):
            manifest_from_dict(payload)

    def test_missing_version_rejected(self):
        payload = load_fixture(1)
        del payload["manifest_version"]
        with pytest.raises(ReproError, match="unsupported manifest_version"):
            manifest_from_dict(payload)

    def test_malformed_document_rejected(self):
        with pytest.raises(ReproError, match="malformed manifest"):
            manifest_from_dict({"manifest_version": 1, "run_id": 1})
