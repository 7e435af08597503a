"""Tests for repro.control.journal and journal-backed ControlPlane.

Covers the write-ahead log itself (append/replay round trip, per-line
checksums, torn-tail truncation in every flavour, header validation,
fsync policies, atomic snapshot compaction) and the plane-side
durability contract: :meth:`ControlPlane.recover` rebuilds
byte-identical session state, duplicate ``request_id``s are suppressed
by the dedup window without re-journaling, and finished manifests
survive replay.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.api import (
    Ack,
    ApiError,
    CreateServiceRequest,
    FinishService,
    ListServices,
    MutationBatch,
    MutationBatchResult,
    ServiceManifest,
    Shutdown,
    SloQuery,
    decode_line,
    encode,
    encode_line,
)
from repro.control import ControlPlane, Journal
from repro.control.chaos import final_manifest_bytes
from repro.control.journal import (
    FSYNC_POLICIES,
    JOURNAL_VERSION,
    _canonical,
    _frame_checksum,
    _record_line,
)
from repro.core.errors import ControlPlaneDisconnected, JournalError, ReproError
from repro.live.mutations import MutationEvent

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SESSION_SCRIPT = FIXTURES / "control_session.ndjsonl"


def script_messages() -> list[object]:
    return [
        decode_line(line)
        for line in SESSION_SCRIPT.read_text().splitlines()
        if line.strip()
    ]


def make_request(name: str = "svc") -> CreateServiceRequest:
    return CreateServiceRequest(name=name, catalog={1: 4, 2: 4}, horizon=32)


def make_batch(
    name: str = "svc", *, time: float = 1.0, request_id: str = ""
) -> MutationBatch:
    return MutationBatch(
        service=name,
        events=(
            MutationEvent(
                time=time, kind="page_insert", page_id=9, expected_time=4
            ),
        ),
        request_id=request_id,
    )


class TestJournalFile:
    def test_append_replay_round_trip(self, tmp_path):
        path = tmp_path / "wal.journal"
        messages = [make_request(), make_batch(), FinishService(service="svc")]
        with Journal.open(path) as journal:
            seqs = [journal.append(m) for m in messages]
        assert seqs == [1, 2, 3]
        reopened = Journal.open(path)
        assert reopened.replay() == tuple(messages)
        assert len(reopened) == 3
        assert reopened.stats()["records"] == 3
        assert reopened.stats()["truncated_bytes"] == 0

    def test_file_layout_is_checksummed_ndjson(self, tmp_path):
        path = tmp_path / "wal.journal"
        with Journal.open(path) as journal:
            journal.append(make_request())
        header, record = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert header == {
            "compactions": 0,
            "journal_version": JOURNAL_VERSION,
            "kind": "meta",
        }
        assert record["seq"] == 1
        assert len(record["sha"]) == 16
        assert record["frame"]["type"] == "CreateServiceRequest"

    def test_torn_partial_line_truncated(self, tmp_path):
        path = tmp_path / "wal.journal"
        with Journal.open(path) as journal:
            journal.append(make_request())
            journal.append(make_batch())
        with path.open("ab") as broken:
            broken.write(b'{"frame":{"type":"Shutd')  # no newline
        reopened = Journal.open(path)
        assert len(reopened) == 2
        assert reopened.stats()["truncated_bytes"] > 0
        # The truncation is physical: a third open sees a clean file.
        reopened.close()
        assert Journal.open(path).stats()["truncated_bytes"] == 0

    def test_torn_garbage_line_truncated(self, tmp_path):
        path = tmp_path / "wal.journal"
        with Journal.open(path) as journal:
            journal.append(make_request())
        with path.open("ab") as broken:
            broken.write(b"\x00\xffnot json at all\n")
        assert len(Journal.open(path)) == 1

    def test_corrupt_checksum_ends_prefix(self, tmp_path):
        path = tmp_path / "wal.journal"
        with Journal.open(path) as journal:
            journal.append(make_request())
            journal.append(make_batch())
        lines = path.read_text().splitlines(keepends=True)
        # Flip a byte inside the last record's frame: sha mismatch.
        lines[-1] = lines[-1].replace('"svc"', '"svx"', 1)
        path.write_text("".join(lines))
        reopened = Journal.open(path)
        assert len(reopened) == 1
        assert isinstance(reopened.replay()[0], CreateServiceRequest)

    def test_sequence_gap_ends_prefix(self, tmp_path):
        path = tmp_path / "wal.journal"
        with Journal.open(path) as journal:
            journal.append(make_request())
        # Duplicate the (valid) record line: seq 1 repeats, gap at 2.
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines) + lines[-1])
        assert len(Journal.open(path)) == 1

    def test_valid_prefix_never_discarded(self, tmp_path):
        path = tmp_path / "wal.journal"
        messages = [make_request(), make_batch(), make_batch(time=2.0)]
        with Journal.open(path) as journal:
            for message in messages:
                journal.append(message)
        with path.open("ab") as broken:
            broken.write(b"garbage\n" + b"more garbage\n")
        assert Journal.open(path).replay() == tuple(messages)

    def test_not_a_journal_rejected(self, tmp_path):
        path = tmp_path / "imposter.journal"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(JournalError, match="missing meta header"):
            Journal.open(path)

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "future.journal"
        path.write_text(
            json.dumps(
                {
                    "compactions": 0,
                    "journal_version": JOURNAL_VERSION + 1,
                    "kind": "meta",
                }
            )
            + "\n"
        )
        with pytest.raises(JournalError, match="unsupported journal_version"):
            Journal.open(path)

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(JournalError, match="unknown fsync policy"):
            Journal.open(tmp_path / "wal.journal", fsync="sometimes")

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_every_fsync_policy_round_trips(self, tmp_path, policy):
        path = tmp_path / f"{policy}.journal"
        with Journal.open(path, fsync=policy, fsync_batch=2) as journal:
            for i in range(5):
                journal.append(make_batch(time=float(i)))
        assert len(Journal.open(path)) == 5

    def test_batch_policy_fsyncs_less_than_always(self, tmp_path):
        def fsyncs(policy: str) -> int:
            path = tmp_path / f"count-{policy}.journal"
            with Journal.open(
                path, fsync=policy, fsync_batch=4
            ) as journal:
                for i in range(8):
                    journal.append(make_batch(time=float(i)))
                return journal.stats()["fsyncs"]

        assert fsyncs("batch") < fsyncs("always")
        assert fsyncs("never") == 0

    def test_append_after_close_rejected(self, tmp_path):
        journal = Journal.open(tmp_path / "wal.journal")
        journal.close()
        assert journal.closed
        with pytest.raises(JournalError, match="closed"):
            journal.append(make_request())

    def test_fingerprint_is_content_addressed(self, tmp_path):
        a = Journal.open(tmp_path / "a.journal")
        b = Journal.open(tmp_path / "b.journal")
        for journal in (a, b):
            journal.append(make_request())
            journal.append(make_batch())
        assert a.fingerprint() == b.fingerprint()
        b.append(make_batch(time=2.0))
        assert a.fingerprint() != b.fingerprint()


class TestRecovery:
    def test_recover_rebuilds_byte_identical_state(self, tmp_path):
        path = tmp_path / "wal.journal"
        messages = script_messages()
        with Journal.open(path) as journal:
            plane = ControlPlane(journal=journal)
            for message in messages:
                plane.handle(message)
            baseline = final_manifest_bytes(plane)
        recovered = ControlPlane.recover(Journal.open(path))
        assert final_manifest_bytes(recovered) == baseline

    def test_recover_midway_then_continue(self, tmp_path):
        path = tmp_path / "wal.journal"
        messages = script_messages()
        fault_free = ControlPlane()
        for message in messages:
            fault_free.handle(message)
        baseline = final_manifest_bytes(fault_free)
        # Crash after 3 messages: only the journal survives.
        with Journal.open(path) as journal:
            plane = ControlPlane(journal=journal)
            for message in messages[:3]:
                plane.handle(message)
        recovered = ControlPlane.recover(Journal.open(path))
        for message in messages[3:]:
            recovered.handle(message)
        assert final_manifest_bytes(recovered) == baseline

    def test_recovery_does_not_rejournal(self, tmp_path):
        path = tmp_path / "wal.journal"
        with Journal.open(path) as journal:
            plane = ControlPlane(journal=journal)
            plane.handle(make_request())
            plane.handle(make_batch())
        journal = Journal.open(path)
        ControlPlane.recover(journal)
        assert journal.stats()["appended"] == 0
        assert len(journal) == 2

    def test_queries_never_journaled(self, tmp_path):
        path = tmp_path / "wal.journal"
        with Journal.open(path) as journal:
            plane = ControlPlane(journal=journal)
            plane.handle(make_request())
            plane.handle(ListServices())
            plane.handle(SloQuery(service="svc", pages=1, expected_time=4))
            assert len(journal) == 1

    def test_finished_manifests_survive_replay(self, tmp_path):
        path = tmp_path / "wal.journal"
        with Journal.open(path) as journal:
            plane = ControlPlane(journal=journal)
            plane.handle(make_request())
            plane.handle(make_batch())
            plane.handle(FinishService(service="svc"))
        recovered = ControlPlane.recover(Journal.open(path))
        [manifest] = recovered.finished_manifests
        assert isinstance(manifest, ServiceManifest)
        assert manifest.service == "svc"
        durability = manifest.manifest["control"]["durability"]
        assert durability["requests"] == 2
        assert len(durability["fingerprint"]) == 16

    def test_clean_shutdown_recovers_closed(self, tmp_path):
        path = tmp_path / "wal.journal"
        with Journal.open(path) as journal:
            plane = ControlPlane(journal=journal)
            plane.handle(make_request())
            plane.handle(Shutdown())
        recovered = ControlPlane.recover(Journal.open(path))
        assert recovered.closing
        assert len(recovered.finished_manifests) == 1

    def test_journal_append_is_write_ahead(self, tmp_path):
        """The record lands before dispatch: a rejected request is
        journaled too (its replay re-rejects deterministically)."""
        path = tmp_path / "wal.journal"
        with Journal.open(path) as journal:
            plane = ControlPlane(journal=journal)
            plane.handle(make_request())
            response = plane.handle(make_batch("no-such-service"))
            assert isinstance(response, ApiError)
            assert len(journal) == 2
        recovered = ControlPlane.recover(Journal.open(path))
        assert recovered.services == ("svc",)


class TestDedupWindow:
    def test_duplicate_request_id_returns_cached_response(self):
        plane = ControlPlane()
        plane.handle(make_request())
        first = plane.handle(make_batch(request_id="c-1"))
        again = plane.handle(make_batch(request_id="c-1"))
        assert isinstance(first, MutationBatchResult)
        assert again is first
        # The event applied exactly once.
        session = plane.session("svc")
        assert len(session.events_streamed()) == 1

    def test_duplicate_never_journaled_twice(self, tmp_path):
        with Journal.open(tmp_path / "wal.journal") as journal:
            plane = ControlPlane(journal=journal)
            plane.handle(make_request())
            plane.handle(make_batch(request_id="c-1"))
            plane.handle(make_batch(request_id="c-1"))
            assert len(journal) == 2  # create + one batch

    def test_blank_request_id_is_not_deduplicated(self):
        plane = ControlPlane()
        plane.handle(make_request())
        plane.handle(make_batch(time=1.0))
        plane.handle(make_batch(time=2.0))
        assert len(plane.session("svc").events_streamed()) == 2

    def test_window_eviction_is_fifo(self):
        plane = ControlPlane(dedup_window=2)
        plane.handle(make_request(name="svc"))
        plane.handle(make_batch(time=1.0, request_id="a"))
        plane.handle(make_batch(time=2.0, request_id="b"))
        plane.handle(make_batch(time=3.0, request_id="c"))  # evicts "a"
        # "a" fell out of the window: its replay is a fresh dispatch,
        # which now fails validation (time 1.0 is in the past).
        response = plane.handle(make_batch(time=1.0, request_id="a"))
        assert isinstance(response, ApiError)
        assert response.code == "bad-request"

    def test_invalid_window_rejected(self):
        with pytest.raises(ReproError, match="dedup_window"):
            ControlPlane(dedup_window=0)

    def test_distinct_ids_apply_independently(self):
        plane = ControlPlane()
        plane.handle(make_request())
        plane.handle(make_batch(time=1.0, request_id="a"))
        plane.handle(make_batch(time=2.0, request_id="b"))
        assert len(plane.session("svc").events_streamed()) == 2


class TestCompaction:
    def fill_plane(self, journal: Journal) -> ControlPlane:
        plane = ControlPlane(journal=journal)
        plane.handle(make_request())
        for i in range(4):
            plane.handle(make_batch(time=float(i + 1)))
        return plane

    def test_compaction_shrinks_and_preserves_state(self, tmp_path):
        path = tmp_path / "wal.journal"
        journal = Journal.open(path)
        plane = self.fill_plane(journal)
        fingerprint_before = plane.session("svc")._stream.hexdigest()
        before_records = len(journal)
        count = plane.compact_journal()
        assert count < before_records
        journal.close()
        recovered = ControlPlane.recover(Journal.open(path))
        session = recovered.session("svc")
        assert session._stream.hexdigest() == fingerprint_before
        assert len(session.events_streamed()) == 4

    def test_compaction_bumps_header_counter(self, tmp_path):
        path = tmp_path / "wal.journal"
        journal = Journal.open(path)
        plane = self.fill_plane(journal)
        plane.compact_journal()
        plane.compact_journal()
        journal.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["compactions"] == 2
        assert Journal.open(path).compactions == 2

    def test_compaction_restarts_sequence_numbers(self, tmp_path):
        path = tmp_path / "wal.journal"
        journal = Journal.open(path)
        plane = self.fill_plane(journal)
        plane.compact_journal()
        seqs = [
            json.loads(line)["seq"]
            for line in path.read_text().splitlines()[1:]
        ]
        assert seqs == list(range(1, len(seqs) + 1))
        # Appends after compaction continue the new numbering.
        assert journal.append(make_batch(time=9.0)) == len(seqs) + 1

    def test_compaction_drops_finished_services(self, tmp_path):
        path = tmp_path / "wal.journal"
        journal = Journal.open(path)
        plane = ControlPlane(journal=journal)
        plane.handle(make_request("done"))
        plane.handle(FinishService(service="done"))
        plane.handle(make_request("live"))
        plane.compact_journal()
        journal.close()
        recovered = ControlPlane.recover(Journal.open(path))
        assert recovered.services == ("live",)

    def test_snapshot_while_closing_rejected(self):
        plane = ControlPlane()
        plane.handle(Shutdown())
        with pytest.raises(ReproError, match="shutting down"):
            plane.snapshot_requests()

    def test_compact_without_journal_rejected(self):
        with pytest.raises(ReproError, match="no journal"):
            ControlPlane().compact_journal()


def mutating_messages(name: str) -> list[object]:
    """One of every journaled request type, batches with and without a
    ``request_id``, all addressed to service ``name``."""
    return [
        CreateServiceRequest(
            name=name, catalog={1: 4, 2: 8, 3: 8}, horizon=32, budget=1
        ),
        make_batch(name),
        make_batch(name, time=2.0, request_id="ré-1"),
        FinishService(service=name),
        Shutdown(),
    ]


def dumped_record(message: object, seq: int) -> bytes:
    """A journal record as a full canonical dump of its fields."""
    frame = encode(message)
    record = {"frame": frame, "seq": seq, "sha": _frame_checksum(frame)}
    return (_canonical(record) + "\n").encode("utf-8")


@pytest.mark.parametrize("name", ("svc", "sërvice-β→☃"))
class TestRecordFromCanonicalLine:
    """A record spliced around the wire's canonical line is the record
    a full dump of ``{"frame", "seq", "sha"}`` writes, byte for byte."""

    def test_spliced_record_equals_dumped_record(self, name):
        for seq, message in enumerate(mutating_messages(name), start=1):
            spliced = _record_line(encode_line(message), seq)
            assert spliced == dumped_record(message, seq)
            assert spliced.isascii()

    def test_open_validates_spliced_records(self, name, tmp_path):
        path = tmp_path / "wal.journal"
        messages = mutating_messages(name)
        with Journal.open(path) as journal:
            for message in messages:
                journal.append(message, encode_line(message))
        with Journal.open(path) as reopened:
            assert reopened.stats()["truncated_bytes"] == 0
            assert reopened.replay() == tuple(messages)

    def test_recovery_and_compaction_round_trips(self, name, tmp_path):
        messages = mutating_messages(name)[:3]
        path = tmp_path / "wal.journal"
        with Journal.open(path) as journal:
            plane = ControlPlane(journal)
            for message in messages:
                plane.handle(message)
        assert path.read_bytes().splitlines(keepends=True)[1:] == [
            dumped_record(m, seq) for seq, m in enumerate(messages, start=1)
        ]
        original = plane.session(name)
        with Journal.open(path) as journal:
            recovered = ControlPlane.recover(journal)
            session = recovered.session(name)
            assert session._requests.digest() == original._requests.digest()
            assert session._stream.digest() == original._stream.digest()
            snapshot = recovered.snapshot_requests()
            recovered.compact_journal()
        assert path.read_bytes().splitlines(keepends=True)[1:] == [
            dumped_record(m, seq) for seq, m in enumerate(snapshot, start=1)
        ]
        with Journal.open(path) as journal:
            assert journal.replay() == tuple(snapshot)
            rebuilt = ControlPlane.recover(journal).session(name)
        assert rebuilt._stream.digest() == original._stream.digest()


class TestTypedErrors:
    def test_journal_error_is_repro_error(self):
        assert issubclass(JournalError, ReproError)

    def test_disconnected_is_connection_error(self):
        assert issubclass(ControlPlaneDisconnected, ReproError)
        assert issubclass(ControlPlaneDisconnected, ConnectionError)
