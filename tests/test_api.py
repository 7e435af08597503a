"""Tests for repro.api: typed messages, versioned codecs, wire framing.

Every message type must survive ``decode(encode(m)) == m`` and the
NDJSON framing must be canonical (byte-stable for equal messages) —
that byte-stability is what makes scripted control-plane sessions
replay to identical transcripts.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from repro.api import (
    API_VERSION,
    Ack,
    ApiError,
    CreateServiceRequest,
    ErrorBudgetQuery,
    ErrorBudgetReport,
    FinishService,
    ListServices,
    MAX_EXPECTED_TIME,
    MAX_QUERY_PAGES,
    MutationBatch,
    MutationBatchResult,
    RemediationCandidate,
    RemediationPolicy,
    RemediationRecord,
    ServiceCreated,
    ServiceList,
    ServiceManifest,
    Shutdown,
    SloQuery,
    SloVerdict,
    decode,
    decode_line,
    encode,
    encode_line,
    message_types,
)
from repro.api.types import FederationCreate
from repro.core.errors import ReproError
from repro.live.mutations import MutationEvent


def sample_messages() -> list[object]:
    """One instance of every message type (round-trip fodder)."""
    return [
        CreateServiceRequest(
            name="svc",
            catalog={1: 2, 2: 4},
            horizon=32,
            budget=2,
            remediation=RemediationPolicy(miss_streak=3),
        ),
        MutationBatch(
            service="svc",
            events=(
                MutationEvent(
                    time=1.0, kind="page_insert", page_id=7,
                    expected_time=4,
                ),
                MutationEvent(
                    time=2.0, kind="listener", page_id=7,
                    expected_time=4,
                ),
            ),
        ),
        SloQuery(service="svc", expected_time=4, pages=2),
        ErrorBudgetQuery(service="svc"),
        FinishService(service="svc"),
        ListServices(),
        Shutdown(),
        ServiceCreated(
            service="svc", budget=2, required_channels=1,
            algorithm="susc", cycle_length=4, pages=2,
        ),
        MutationBatchResult(
            service="svc", applied=2, admitted=1, queued=0, rejected=0,
            listeners=1, misses=0, replans=1, remediations=0,
        ),
        SloVerdict(
            service="svc", achievable=False, required_channels=3,
            budget=2, headroom=-1, channel_load=2.5,
            predicted_delay=0.75, queued_pages=1,
            reason="exceeds-budget",
        ),
        ErrorBudgetReport(
            service="svc", listeners=10, misses=1, miss_rate=0.1,
            rolling_miss_rate=0.1, target_miss_rate=0.2, window=64,
            per_class={"4": {"listeners": 10, "misses": 1}},
        ),
        ServiceManifest(
            service="svc", manifest={"manifest_version": 5},
            summary={"listeners": 10},
        ),
        ServiceList(services=("a", "b")),
        Ack(),
        ApiError(code="bad-request", message="nope"),
    ]


class TestEnvelopeCodec:
    @pytest.mark.parametrize(
        "message", sample_messages(), ids=lambda m: type(m).__name__
    )
    def test_round_trip(self, message):
        assert decode(encode(message)) == message

    @pytest.mark.parametrize(
        "message", sample_messages(), ids=lambda m: type(m).__name__
    )
    def test_line_round_trip(self, message):
        line = encode_line(message)
        assert line.endswith("\n")
        assert decode_line(line) == message

    def test_line_framing_is_canonical(self):
        a = encode_line(SloQuery(service="svc", expected_time=4))
        b = encode_line(SloQuery(service="svc", expected_time=4))
        assert a == b
        payload = json.loads(a)
        assert payload["api_version"] == API_VERSION
        assert payload["type"] == "SloQuery"

    def test_message_types_cover_all_samples(self):
        names = {type(m).__name__ for m in sample_messages()}
        assert names <= set(message_types())

    def test_non_api_object_rejected(self):
        with pytest.raises(ReproError, match="not a repro.api message"):
            encode({"service": "svc"})

    def test_unknown_type_rejected(self):
        with pytest.raises(ReproError, match="unknown api message type"):
            decode(
                {"api_version": 1, "type": "Nope", "body": {}}
            )

    def test_newer_api_version_rejected(self):
        with pytest.raises(ReproError, match="unsupported api_version"):
            decode(
                {
                    "api_version": API_VERSION + 1,
                    "type": "Shutdown",
                    "body": {},
                }
            )

    def test_missing_version_rejected(self):
        with pytest.raises(ReproError, match="unsupported api_version"):
            decode({"type": "Shutdown", "body": {}})

    def test_non_object_body_rejected(self):
        with pytest.raises(ReproError, match="body must be an object"):
            decode(
                {"api_version": 1, "type": "Shutdown", "body": []}
            )

    def test_invalid_json_line_rejected(self):
        with pytest.raises(ReproError, match="invalid api frame"):
            decode_line("{not json")

    def test_non_object_line_rejected(self):
        with pytest.raises(ReproError, match="must be a JSON object"):
            decode_line("[1, 2]\n")

    def test_missing_required_field_rejected(self):
        with pytest.raises(ReproError, match="missing required field"):
            decode(
                {"api_version": 1, "type": "SloQuery", "body": {}}
            )


class TestValidation:
    def test_create_requires_nonempty_name(self):
        with pytest.raises(ReproError, match="non-empty"):
            CreateServiceRequest(name="", catalog={1: 2})

    def test_create_requires_nonempty_catalog(self):
        with pytest.raises(ReproError, match="catalog"):
            CreateServiceRequest(name="svc", catalog={})

    def test_batch_requires_time_order(self):
        events = (
            MutationEvent(
                time=5.0, kind="listener", page_id=1, expected_time=2
            ),
            MutationEvent(
                time=1.0, kind="listener", page_id=1, expected_time=2
            ),
        )
        with pytest.raises(ReproError, match="ordered by time"):
            MutationBatch(service="svc", events=events)

    def test_slo_query_bounds(self):
        with pytest.raises(ReproError, match="expected_time"):
            SloQuery(service="svc", expected_time=0)
        with pytest.raises(ReproError, match="pages"):
            SloQuery(service="svc", expected_time=2, pages=-1)

    def test_slo_query_pages_capped(self):
        at_cap = SloQuery(
            service="svc", expected_time=2, pages=MAX_QUERY_PAGES
        )
        assert decode(encode(at_cap)) == at_cap
        with pytest.raises(ReproError, match="pages"):
            SloQuery(
                service="svc", expected_time=2, pages=MAX_QUERY_PAGES + 1
            )

    def test_expected_time_capped(self):
        at_cap = MAX_EXPECTED_TIME
        past = MAX_EXPECTED_TIME + 1

        def batch(expected):
            return MutationBatch(
                service="svc",
                events=(
                    MutationEvent(
                        time=0.0,
                        kind="page_insert",
                        page_id=1,
                        expected_time=expected,
                    ),
                ),
            )

        for build in (
            lambda t: CreateServiceRequest(name="svc", catalog={1: t}),
            lambda t: FederationCreate(name="fed", catalog={1: 2, 2: t}),
            batch,
            lambda t: SloQuery(service="svc", expected_time=t),
        ):
            message = build(at_cap)
            assert decode(encode(message)) == message
            with pytest.raises(ReproError, match="expected_time must be <="):
                build(past)

    def test_remediation_policy_bounds(self):
        with pytest.raises(ReproError, match="miss_streak"):
            RemediationPolicy(miss_streak=0)
        with pytest.raises(ReproError, match="cooldown"):
            RemediationPolicy(cooldown=-1)
        with pytest.raises(ReproError, match="max_pages_moved"):
            RemediationPolicy(max_pages_moved=-1)

    def test_remediation_candidate_action_checked(self):
        with pytest.raises(ReproError, match="unknown remediation action"):
            RemediationCandidate(
                action="reboot", detail={}, required_channels=1,
                budget=1, predicted_delay=0.0, pages_moved=0,
                move_budget=8, passed=True, reason="",
            )

    def test_record_round_trip(self):
        record = RemediationRecord(
            service="svc", time=6.0, trigger="sustained-miss",
            evidence={"miss_streak": 4},
            candidates=(
                RemediationCandidate(
                    action="add_channel", detail={"channels": 2},
                    required_channels=2, budget=2, predicted_delay=0.0,
                    pages_moved=3, move_budget=8, passed=True,
                    reason="restores-slo",
                ),
            ),
            applied="add_channel",
            applied_detail={"channels": 2},
        )
        assert RemediationRecord.from_dict(record.to_dict()) == record

    def test_catalog_keys_coerced_to_int(self):
        request = CreateServiceRequest.from_dict(
            {"name": "svc", "catalog": {"3": "8", "1": 2}}
        )
        assert request.catalog == {3: 8, 1: 2}


class TestTypedSurface:
    """The PEP 561 satellite: marker shipped, public surface mypy-clean."""

    def test_py_typed_marker_shipped(self):
        import repro

        marker = (
            pathlib.Path(repro.__file__).parent / "py.typed"
        )
        assert marker.exists()

    def test_mypy_passes_on_public_surface(self):
        if importlib.util.find_spec("mypy") is None:
            pytest.skip("mypy not installed (CI installs it)")
        result = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file",
             "pyproject.toml"],
            capture_output=True,
            text=True,
            cwd=pathlib.Path(__file__).resolve().parent.parent,
        )
        assert result.returncode == 0, result.stdout + result.stderr
