"""Write-ahead journal for the control plane — crash durability.

The journal is an append-only NDJSON file.  Line one is a meta header::

    {"compactions":0,"journal_version":1,"kind":"meta"}

and every later line is one journaled request record::

    {"frame":{...api envelope...},"seq":7,"sha":"<16 hex>"}

where ``frame`` is exactly the versioned envelope
:func:`repro.api.encode` produces (so the journal speaks the same
canonical codec as the wire), ``seq`` is a contiguous 1-based sequence
number and ``sha`` is the first 16 hex digits of the SHA-256 of the
record's canonical frame line — the request's
:func:`repro.api.encode_line` text.  Records are written *before* the
request is dispatched (write-ahead), so an accepted mutation survives a
crash at any point after its ``append`` returns.

A record is built from that one line: ``sha`` hashes it and the record
text splices it, newline dropped, between ``{"frame":`` and the
``seq``/``sha`` tail.  Both are canonical JSON with sorted keys and
compact separators, and ``frame`` < ``seq`` < ``sha``, so the splice is
byte-equal to dumping the whole record and the request is serialised
once per append.  The control plane passes in the line it encoded for
the session's durability trail.

Durability knobs and guarantees:

* **fsync policy** — ``"always"`` (fsync every append; survives
  SIGKILL and power loss), ``"batch"`` (fsync every
  ``fsync_batch`` appends and on close; bounded loss window) or
  ``"never"`` (flush to the OS only; survives process death, not
  power loss).
* **Torn-tail truncation** — :meth:`Journal.open` validates the file
  line by line (JSON shape, checksum, seq contiguity).  The first
  invalid record ends the durable prefix: everything from it onward is
  truncated away, because an interrupted final write is the expected
  crash artifact.  Corruption is only tolerated at the tail — a valid
  prefix is never discarded.
* **Snapshot + compaction** — :meth:`Journal.compact` atomically
  rewrites the journal as an equivalent *snapshot* request stream
  (temp file, fsync, ``os.replace``), restarting sequence numbers and
  bumping the header's ``compactions`` counter.  The control plane
  builds that stream with
  :meth:`~repro.control.plane.ControlPlane.snapshot_requests`: one
  ``CreateServiceRequest`` plus one coalesced ``MutationBatch`` per
  live service — byte-smaller, state-identical on replay.

Recovery is :meth:`repro.control.plane.ControlPlane.recover`: replay
the journaled prefix through the (deterministic) dispatcher and the
rebuilt sessions are byte-identical to the pre-crash ones.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from repro.api.codec import decode, encode_line
from repro.core.errors import JournalError, ReproError

__all__ = [
    "FSYNC_POLICIES",
    "JOURNAL_VERSION",
    "Journal",
]

#: Current on-disk journal format version.
JOURNAL_VERSION = 1

#: Supported fsync policies, strongest first.
FSYNC_POLICIES = ("always", "batch", "never")


def _canonical(payload: Mapping) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _line_checksum(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def _frame_checksum(frame: Mapping) -> str:
    return _line_checksum(_canonical(frame) + "\n")


def _record_line(line: str, seq: int) -> bytes:
    """The journal record of the request whose canonical frame line is
    ``line``: ``_canonical({"frame": ..., "seq": seq, "sha": ...})``
    and its newline, built around the line instead of re-encoding it."""
    return (
        f'{{"frame":{line[:-1]},"seq":{seq},'
        f'"sha":"{_line_checksum(line)}"}}\n'
    ).encode("utf-8")


class Journal:
    """An open write-ahead journal bound to one NDJSON file.

    Construct through :meth:`open` (which validates and truncates the
    existing file) rather than directly.  The instance keeps the
    decoded valid prefix in memory for :meth:`replay` and holds an
    append handle positioned at the end of that prefix.
    """

    def __init__(
        self,
        path: Path,
        handle: IO[bytes],
        *,
        fsync: str,
        fsync_batch: int,
        compactions: int,
        next_seq: int,
        messages: list[object],
        stats: dict[str, int],
    ) -> None:
        self.path = path
        self._handle: IO[bytes] | None = handle
        self.fsync = fsync
        self.fsync_batch = fsync_batch
        self.compactions = compactions
        self._next_seq = next_seq
        self._messages = messages
        self._stats = stats
        self._unsynced = 0

    # ------------------------------------------------------------------
    # Opening and validation
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        fsync: str = "always",
        fsync_batch: int = 16,
    ) -> "Journal":
        """Open (creating if absent) and validate a journal file.

        The file is read line by line; the first torn or corrupt record
        ends the durable prefix and the file is truncated to it.  A
        fresh file gets its meta header written immediately.

        Raises:
            JournalError: When the file is not a journal at all (bad
                header) or declares a newer ``journal_version``.
        """
        if fsync not in FSYNC_POLICIES:
            raise JournalError(
                f"unknown fsync policy {fsync!r}; choose from "
                f"{', '.join(FSYNC_POLICIES)}"
            )
        if fsync_batch < 1:
            raise JournalError(
                f"fsync_batch must be >= 1, got {fsync_batch}"
            )
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        stats = {
            "records": 0,
            "appended": 0,
            "fsyncs": 0,
            "truncated_bytes": 0,
        }
        messages: list[object] = []
        compactions = 0
        next_seq = 1
        valid_bytes = 0
        if target.exists() and target.stat().st_size > 0:
            raw = target.read_bytes()
            offset = 0
            header_seen = False
            for line in raw.splitlines(keepends=True):
                if not line.endswith(b"\n"):
                    if not header_seen:
                        raise JournalError(
                            f"{target} is not a control-plane journal "
                            "(missing meta header)"
                        )
                    break  # torn final write: no newline ever landed
                record = cls._parse_record(line)
                if record is None:
                    if not header_seen:
                        # Torn-tail truncation never applies to the
                        # header line: refusing beats destroying a file
                        # that was never a journal to begin with.
                        raise JournalError(
                            f"{target} is not a control-plane journal "
                            "(missing meta header)"
                        )
                    break
                if not header_seen:
                    if "journal_version" not in record:
                        raise JournalError(
                            f"{target} is not a control-plane journal "
                            "(missing meta header)"
                        )
                    version = record.get("journal_version")
                    if version != JOURNAL_VERSION:
                        raise JournalError(
                            f"unsupported journal_version {version!r}; "
                            f"this build writes version {JOURNAL_VERSION}"
                        )
                    compactions = int(record.get("compactions", 0))
                    header_seen = True
                else:
                    if record.get("seq") != next_seq:
                        break  # sequence gap: treat as torn tail
                    try:
                        messages.append(decode(record["frame"]))
                    except (ReproError, KeyError, TypeError):
                        break
                    next_seq += 1
                    stats["records"] += 1
                offset += len(line)
            valid_bytes = offset
            if valid_bytes < len(raw):
                stats["truncated_bytes"] = len(raw) - valid_bytes
                with target.open("r+b") as fixer:
                    fixer.truncate(valid_bytes)
                    fixer.flush()
                    os.fsync(fixer.fileno())
        handle = target.open("ab")
        journal = cls(
            target,
            handle,
            fsync=fsync,
            fsync_batch=fsync_batch,
            compactions=compactions,
            next_seq=next_seq,
            messages=messages,
            stats=stats,
        )
        if valid_bytes == 0:
            journal._write_header()
        return journal

    @staticmethod
    def _parse_record(line: bytes) -> dict | None:
        """One journal line as a dict, or ``None`` when torn/corrupt."""
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(record, dict):
            return None
        if "journal_version" in record:
            return record
        frame = record.get("frame")
        if not isinstance(frame, dict):
            return None
        if record.get("sha") != _frame_checksum(frame):
            return None
        if not isinstance(record.get("seq"), int):
            return None
        return record

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, message: object, line: str | None = None) -> int:
        """Journal one typed request; returns its sequence number.

        ``line`` is the request's :func:`~repro.api.codec.encode_line`
        frame when the caller already holds it; it is encoded here
        otherwise.  The record is durable (to the configured fsync
        policy) before this method returns — callers dispatch *after*
        appending, the write-ahead contract.
        """
        handle = self._require_handle()
        if line is None:
            line = encode_line(message)
        handle.write(_record_line(line, self._next_seq))
        handle.flush()
        self._unsynced += 1
        if self.fsync == "always" or (
            self.fsync == "batch" and self._unsynced >= self.fsync_batch
        ):
            os.fsync(handle.fileno())
            self._stats["fsyncs"] += 1
            self._unsynced = 0
        seq = self._next_seq
        self._next_seq += 1
        self._messages.append(message)
        self._stats["records"] += 1
        self._stats["appended"] += 1
        return seq

    def _write_header(self) -> None:
        handle = self._require_handle()
        header = {
            "compactions": self.compactions,
            "journal_version": JOURNAL_VERSION,
            "kind": "meta",
        }
        handle.write((_canonical(header) + "\n").encode("utf-8"))
        handle.flush()
        if self.fsync != "never":
            os.fsync(handle.fileno())
            self._stats["fsyncs"] += 1

    def _require_handle(self) -> IO[bytes]:
        if self._handle is None:
            raise JournalError(f"journal {self.path} is closed")
        return self._handle

    # ------------------------------------------------------------------
    # Reading back
    # ------------------------------------------------------------------

    def replay(self) -> tuple[object, ...]:
        """The journaled typed messages, in append order."""
        return tuple(self._messages)

    def __len__(self) -> int:
        return len(self._messages)

    def stats(self) -> dict[str, int]:
        """Counters: records, appended, fsyncs, truncated_bytes."""
        return dict(self._stats)

    def fingerprint(self) -> str:
        """Stable digest of the journaled request stream."""
        digest = hashlib.sha256()
        for message in self._messages:
            digest.update(encode_line(message).encode("utf-8"))
        return digest.hexdigest()[:16]

    # ------------------------------------------------------------------
    # Snapshot + compaction
    # ------------------------------------------------------------------

    def compact(self, snapshot: Sequence[object] | Iterable[object]) -> int:
        """Atomically rewrite the journal as ``snapshot``.

        ``snapshot`` is a request stream whose replay rebuilds the same
        live state the current journal replays to (the plane produces
        it via ``snapshot_requests()``).  The rewrite lands in a temp
        file first and is published with ``os.replace``, so a crash
        mid-compaction leaves either the old or the new journal intact,
        never a mix.  Sequence numbers restart at 1 and the header's
        ``compactions`` counter increments.

        Returns the number of records in the compacted journal.
        """
        handle = self._require_handle()
        handle.flush()
        messages = list(snapshot)
        self.compactions += 1
        temp = self.path.with_name(self.path.name + ".compact")
        with temp.open("wb") as writer:
            header = {
                "compactions": self.compactions,
                "journal_version": JOURNAL_VERSION,
                "kind": "meta",
            }
            writer.write((_canonical(header) + "\n").encode("utf-8"))
            for seq, message in enumerate(messages, start=1):
                writer.write(_record_line(encode_line(message), seq))
            writer.flush()
            os.fsync(writer.fileno())
        handle.close()
        os.replace(temp, self.path)
        self._handle = self.path.open("ab")
        self._next_seq = len(messages) + 1
        self._messages = messages
        self._stats["records"] = len(messages)
        self._stats["fsyncs"] += 1
        self._unsynced = 0
        return len(messages)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Flush, fsync (unless policy ``never``) and close the file."""
        if self._handle is None:
            return
        self._handle.flush()
        if self.fsync != "never" and self._unsynced:
            os.fsync(self._handle.fileno())
            self._stats["fsyncs"] += 1
            self._unsynced = 0
        self._handle.close()
        self._handle = None

    @property
    def closed(self) -> bool:
        return self._handle is None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
