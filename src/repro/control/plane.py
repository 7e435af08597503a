"""The control plane: typed dispatch plus an asyncio NDJSON server.

Layering, innermost out:

* :class:`ControlPlane` — a synchronous dispatcher mapping each
  :mod:`repro.api` request object to a response object.  All service
  state lives here; the class is directly testable with no sockets or
  event loop involved.  Optionally backed by a
  :class:`~repro.control.journal.Journal`: every state-mutating request
  is appended (write-ahead) before it is dispatched, and
  :meth:`ControlPlane.recover` replays a journaled prefix through the
  deterministic dispatcher to rebuild byte-identical session state
  after a crash.  Each state-mutating request is encoded once, as its
  canonical :func:`repro.api.encode_line` frame: that one line is the
  journal record's frame and the session's durability-trail entry.
  ``MutationBatch`` requests carrying a ``request_id`` are deduplicated
  inside a bounded window, so an ambiguous retry never double-applies.
* :class:`ControlPlaneServer` — the asyncio shell: newline-delimited
  JSON frames (see :func:`repro.api.encode_line`) over a UNIX or TCP
  socket, one request → one response per line, stdlib ``asyncio`` only.
  Requests are handled strictly in arrival order on the event-loop
  thread, so a scripted session replays deterministically regardless of
  how clients interleave.  Hardened: per-connection read timeouts, a
  max-frame-size limit answered with a ``bad-request`` :class:`ApiError`
  instead of unbounded buffering, a UTF-8 guard on inbound frames, and
  a shutdown drain that closes *every* open connection (idle ones
  included).  A seeded chaos policy (:mod:`repro.control.chaos`) can be
  plugged in to drop/delay/partial responses for fault-injection tests.
* :class:`ControlPlaneClient` — the matching stream client; a dropped
  connection raises the typed
  :class:`~repro.core.errors.ControlPlaneDisconnected` so the retry
  layer (:mod:`repro.control.retry`) can tell transport faults from
  structural errors.
* :func:`run_scripted_session` — the CI/CLI entry point: stand up a
  plane on a UNIX socket, replay a message script over a real
  connection, tear the plane down, return the typed responses.
"""

from __future__ import annotations

import asyncio
import hashlib
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.api.codec import decode_line, encode_line
from repro.api.types import (
    Ack,
    ApiError,
    CreateServiceRequest,
    ErrorBudgetQuery,
    FederationCreate,
    FinishService,
    ListServices,
    MutationBatch,
    ServiceList,
    ServiceManifest,
    ShardReport,
    Shutdown,
    SloQuery,
)
from repro.control.session import ServiceSession
from repro.core.errors import ControlPlaneDisconnected, ReproError
from repro.live.catalog import LiveCatalog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.chaos import ChaosPolicy
    from repro.control.journal import Journal

__all__ = [
    "ControlPlane",
    "ControlPlaneClient",
    "ControlPlaneServer",
    "run_scripted_session",
]

#: Request types that mutate plane state and therefore hit the journal.
_MUTATING_TYPES = (
    CreateServiceRequest,
    MutationBatch,
    FinishService,
    Shutdown,
)


class ControlPlane:
    """Synchronous request dispatcher over named service sessions.

    Args:
        journal: Optional write-ahead journal.  When set, every
            state-mutating request (``CreateServiceRequest``,
            ``MutationBatch``, ``FinishService``, ``Shutdown``) is
            appended *before* dispatch, so an accepted request survives
            a crash at any later point; queries are never journaled.
        dedup_window: How many ``(service, request_id)`` responses to
            retain for duplicate suppression.  A retransmitted
            ``MutationBatch`` whose id is still inside the window gets
            the original response back without re-applying its events.
    """

    def __init__(
        self,
        journal: "Journal | None" = None,
        *,
        dedup_window: int = 256,
    ) -> None:
        if dedup_window < 1:
            raise ReproError(
                f"dedup_window must be >= 1, got {dedup_window}"
            )
        self._sessions: dict[str, ServiceSession] = {}
        self.closing = False
        self.journal = journal
        self.dedup_window = dedup_window
        self._dedup: OrderedDict[tuple[str, str], object] = OrderedDict()
        self._replaying = False
        #: Manifests of every finished service, in finish order.  Kept
        #: so recovery (which replays `FinishService` requests whose
        #: responses nobody is reading) still surfaces the manifests.
        self.finished_manifests: list[ServiceManifest] = []

    @property
    def services(self) -> tuple[str, ...]:
        """Names of the hosted services, sorted."""
        return tuple(sorted(self._sessions))

    def session(self, name: str) -> ServiceSession | None:
        """The session behind ``name``, or ``None``."""
        return self._sessions.get(name)

    # ------------------------------------------------------------------
    # Durability: recovery, snapshots, compaction
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        journal: "Journal",
        *,
        dedup_window: int = 256,
    ) -> "ControlPlane":
        """Rebuild a plane from a journal's durable prefix.

        Every journaled request is replayed through the normal
        dispatcher (which is deterministic), so the recovered sessions
        — catalogs, programs, SLO windows, remediation trails, stream
        fingerprints — are byte-identical to the pre-crash state the
        journal covers.  Replay does not re-append to the journal; new
        requests handled after recovery do.

        Responses produced during replay are discarded, but manifests
        of services finished by replayed ``FinishService`` /
        ``Shutdown`` requests accumulate in ``finished_manifests``.
        """
        plane = cls(dedup_window=dedup_window)
        plane._replaying = True
        try:
            for message in journal.replay():
                plane.handle(message)
        finally:
            plane._replaying = False
        plane.journal = journal
        return plane

    def snapshot_requests(self) -> list[object]:
        """An equivalent request stream for the current live state.

        For each open service, in creation order: its original
        ``CreateServiceRequest`` plus one coalesced ``MutationBatch`` of
        every event streamed so far.  Replaying the stream through a
        fresh plane rebuilds identical service state (dispatch is
        per-event, so batch boundaries are not load-bearing); finished
        services and the dedup window are deliberately dropped — this
        is the snapshot a compacted journal stores.
        """
        if self.closing:
            raise ReproError(
                "cannot snapshot a control plane that is shutting down"
            )
        snapshot: list[object] = []
        for name, session in self._sessions.items():
            snapshot.append(session.request)
            events = session.events_streamed()
            if events:
                snapshot.append(
                    MutationBatch(service=name, events=events)
                )
        return snapshot

    def compact_journal(self) -> int:
        """Compact the attached journal to a snapshot of live state.

        Returns the compacted record count.  The dedup window is
        cleared: a compaction is a barrier — callers must not compact
        with ambiguous retries still in flight.
        """
        if self.journal is None:
            raise ReproError(
                "no journal attached to this control plane"
            )
        count = self.journal.compact(self.snapshot_requests())
        self._dedup.clear()
        return count

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def handle(self, message: object) -> object:
        """Dispatch one typed request; never raises.

        Order of operations for mutating requests: duplicate check
        first (a dedup hit answers from the window without touching the
        journal), then the one canonical encoding, the write-ahead
        append, then dispatch.
        Structural errors (:class:`~repro.core.errors.ReproError`) map
        to ``bad-request`` :class:`ApiError` responses; anything else is
        reported as ``internal`` so one poisoned request cannot take
        down the plane.  A journal append failure is reported as
        ``internal`` *without* dispatching — durability before effects.
        """
        dedup_key: tuple[str, str] | None = None
        if isinstance(message, MutationBatch) and message.request_id:
            dedup_key = (message.service, message.request_id)
            cached = self._dedup.get(dedup_key)
            if cached is not None:
                self._dedup.move_to_end(dedup_key)
                return cached
        line = ""
        if isinstance(message, _MUTATING_TYPES):
            line = encode_line(message)
            if self.journal is not None and not self._replaying:
                try:
                    self.journal.append(message, line)
                except OSError as error:  # pragma: no cover - disk faults
                    return ApiError(
                        code="internal",
                        message=f"journal append failed: {error}",
                    )
        try:
            response = self._dispatch(message, line)
        except ReproError as error:
            response = ApiError(code="bad-request", message=str(error))
        except Exception as error:  # pragma: no cover - defensive
            response = ApiError(
                code="internal",
                message=f"{type(error).__name__}: {error}",
            )
        if dedup_key is not None:
            self._dedup[dedup_key] = response
            while len(self._dedup) > self.dedup_window:
                self._dedup.popitem(last=False)
        return response

    def handle_line(self, line: str) -> str:
        """Decode one wire frame, dispatch it, encode the response."""
        try:
            message = decode_line(line)
        except ReproError as error:
            return encode_line(
                ApiError(code="bad-request", message=str(error))
            )
        return encode_line(self.handle(message))

    def _dispatch(self, message: object, line: str) -> object:
        """Answer one request; ``line`` is a mutating request's
        canonical frame (empty for queries)."""
        if isinstance(message, CreateServiceRequest):
            if message.name in self._sessions:
                return ApiError(
                    code="duplicate-service",
                    message=(
                        f"a service named {message.name!r} already exists"
                    ),
                )
            session = ServiceSession(message, line)
            self._sessions[message.name] = session
            return session.created()
        if isinstance(message, MutationBatch):
            session = self._sessions.get(message.service)
            if session is None:
                return self._unknown(message.service)
            return session.apply_batch(message, line)
        if isinstance(message, SloQuery):
            session = self._sessions.get(message.service)
            if session is None:
                return self._unknown(message.service)
            return session.slo_query(message)
        if isinstance(message, ErrorBudgetQuery):
            session = self._sessions.get(message.service)
            if session is None:
                return self._unknown(message.service)
            return session.error_budget()
        if isinstance(message, FinishService):
            session = self._sessions.get(message.service)
            if session is None:
                return self._unknown(message.service)
            response = session.finish()
            self.finished_manifests.append(response)
            del self._sessions[message.service]
            return response
        if isinstance(message, FederationCreate):
            return self._plan_federation(message)
        if isinstance(message, ListServices):
            return ServiceList(services=self.services)
        if isinstance(message, Shutdown):
            # Open services are finished (and their manifests built)
            # before the plane reports itself closed.
            for name in self.services:
                session = self._sessions.pop(name)
                if not session.finished:
                    self.finished_manifests.append(session.finish())
            self.closing = True
            return Ack(message="shutting-down")
        return ApiError(
            code="bad-request",
            message=(
                f"{type(message).__name__} is not a request the control "
                "plane accepts"
            ),
        )

    @staticmethod
    def _plan_federation(message: FederationCreate) -> object:
        # A pure planning probe: place the catalog exactly as the
        # federation would (ring plus empty-shard seeding) and judge each
        # shard's ledger against Theorem 3.1.  No session is created and
        # nothing is journaled, so probing is free and replay-safe.
        from repro.federation.ring import ShardRing, place_catalog

        groups = len(set(message.catalog.values()))
        if message.shards > groups:
            return ApiError(
                code="bad-request",
                message=(
                    f"cannot spread {groups} ladder group(s) over "
                    f"{message.shards} shard(s) without splitting a "
                    "group"
                ),
            )
        ring = ShardRing(message.shards, seed=message.seed)
        _, partition = place_catalog(message.catalog, ring)
        entries = []
        requirements = []
        for shard in ring.shards:
            ledger = LiveCatalog(partition[shard])
            required = ledger.required_channels()
            requirements.append(required)
            entries.append(
                {
                    "shard": shard,
                    "pages": len(ledger),
                    "required_channels": required,
                    "channel_load": round(ledger.channel_load(), 6),
                }
            )
        budget = (
            max(requirements) if message.budget is None else message.budget
        )
        return ShardReport(
            name=message.name,
            shards=message.shards,
            budget=budget,
            ring_fingerprint=ring.fingerprint(),
            entries=tuple(entries),
            feasible=all(r <= budget for r in requirements),
        )

    @staticmethod
    def _unknown(name: str) -> ApiError:
        return ApiError(
            code="unknown-service",
            message=f"no service named {name!r} on this control plane",
        )


class ControlPlaneServer:
    """Asyncio NDJSON transport around a :class:`ControlPlane`.

    Args:
        plane: The dispatcher to serve (a fresh one by default).
        read_timeout: Seconds a connection may sit idle between frames
            before the server closes it (``None`` = no timeout).
        max_frame_bytes: Longest accepted request line.  An overlong
            frame is answered with a ``bad-request`` :class:`ApiError`
            and the connection is closed — the stream cannot be resynced
            mid-line, but the client gets a structured reason first.
        chaos: Optional :class:`~repro.control.chaos.ChaosPolicy`;
            when set, each response consults it and may be dropped,
            truncated or delayed (seeded fault injection for tests).
    """

    def __init__(
        self,
        plane: ControlPlane | None = None,
        *,
        read_timeout: float | None = None,
        max_frame_bytes: int = 1_048_576,
        chaos: "ChaosPolicy | None" = None,
    ) -> None:
        if max_frame_bytes < 1024:
            raise ReproError(
                f"max_frame_bytes must be >= 1024, got {max_frame_bytes}"
            )
        self.plane = plane if plane is not None else ControlPlane()
        self.read_timeout = read_timeout
        self.max_frame_bytes = max_frame_bytes
        self.chaos = chaos
        self._closed = asyncio.Event()
        self._writers: set[asyncio.StreamWriter] = set()
        self._requests_served = 0

    async def wait_closed(self) -> None:
        """Block until the plane has processed a ``Shutdown``."""
        await self._closed.wait()

    async def _client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._writers.add(writer)
        try:
            while not self.plane.closing:
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), self.read_timeout
                    )
                except asyncio.TimeoutError:
                    break  # idle past the read timeout: drop the client
                except ValueError:
                    # StreamReader limit overrun: the frame exceeds
                    # max_frame_bytes and the line buffer is poisoned.
                    # Answer with a structured error, then close.
                    await self._respond(
                        writer,
                        encode_line(
                            ApiError(
                                code="bad-request",
                                message=(
                                    "frame exceeds the "
                                    f"{self.max_frame_bytes}-byte limit"
                                ),
                            )
                        ),
                    )
                    break
                if not line:
                    break
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError:
                    delivered = await self._respond(
                        writer,
                        encode_line(
                            ApiError(
                                code="bad-request",
                                message="frame is not valid UTF-8",
                            )
                        ),
                    )
                    if not delivered:
                        break
                    continue
                response = self.plane.handle_line(text)
                delivered = await self._respond(writer, response)
                if self.plane.closing:
                    self._drain_connections()
                    self._closed.set()
                    break
                if not delivered:
                    break
        except (ConnectionError, OSError):  # pragma: no cover - races
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            if self.plane.closing:
                self._closed.set()

    async def _respond(
        self, writer: asyncio.StreamWriter, response: str
    ) -> bool:
        """Write one response frame, via the chaos policy when present.

        Returns ``True`` when the full frame was delivered; ``False``
        when the chaos policy dropped or truncated it (the caller then
        closes the connection, as a real transport fault would).
        """
        payload = response.encode("utf-8")
        self._requests_served += 1
        if self.chaos is not None:
            action = self.chaos.next_action(self._requests_served - 1)
            if action.kind == "drop_before":
                return False
            if action.kind == "drop_partial":
                cut = max(1, int(len(payload) * action.fraction))
                writer.write(payload[: min(cut, len(payload) - 1)])
                await writer.drain()
                return False
            if action.kind == "delay":
                await asyncio.sleep(action.delay)
        writer.write(payload)
        await writer.drain()
        return True

    def _drain_connections(self) -> None:
        """Close every open connection (the shutdown drain).

        Without this, idle clients would linger until their next read;
        with it, a ``Shutdown`` tears the whole transport down
        promptly.
        """
        for writer in list(self._writers):
            writer.close()

    async def start_unix(self, path: str | Path) -> asyncio.AbstractServer:
        """Bind a UNIX-socket listener; returns the asyncio server."""
        return await asyncio.start_unix_server(
            self._client, path=str(path), limit=self.max_frame_bytes
        )

    async def start_tcp(
        self, host: str, port: int
    ) -> asyncio.AbstractServer:
        """Bind a TCP listener; returns the asyncio server."""
        return await asyncio.start_server(
            self._client, host, port, limit=self.max_frame_bytes
        )

    async def serve_unix(self, path: str | Path) -> None:
        """Serve on a UNIX socket until a ``Shutdown`` request arrives."""
        server = await self.start_unix(path)
        await self._serve(server)

    async def serve_tcp(self, host: str, port: int) -> None:
        """Serve on TCP until a ``Shutdown`` request arrives."""
        server = await self.start_tcp(host, port)
        await self._serve(server)

    async def _serve(self, server: asyncio.AbstractServer) -> None:
        async with server:
            await self.wait_closed()


class ControlPlaneClient:
    """Line-oriented client for a running control plane."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect_unix(cls, path: str | Path) -> "ControlPlaneClient":
        reader, writer = await asyncio.open_unix_connection(str(path))
        return cls(reader, writer)

    @classmethod
    async def connect_tcp(
        cls, host: str, port: int
    ) -> "ControlPlaneClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, message: object) -> object:
        """Send one typed request; await and decode its response.

        Raises:
            ControlPlaneDisconnected: When the transport drops before a
                complete response arrives.  The request's outcome is
                ambiguous — it may have been applied — which is what
                the retry layer's idempotent request ids resolve.
        """
        try:
            self._writer.write(encode_line(message).encode("utf-8"))
            await self._writer.drain()
            line = await self._reader.readline()
        except (ConnectionError, OSError) as error:
            raise ControlPlaneDisconnected(
                f"control plane connection failed mid-request: {error}"
            ) from error
        if not line or not line.endswith(b"\n"):
            raise ControlPlaneDisconnected(
                "control plane closed the connection mid-request"
            )
        return decode_line(line.decode("utf-8"))

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


def run_scripted_session(
    messages: Sequence[object],
    socket_path: str | Path,
    *,
    plane: ControlPlane | None = None,
) -> list[object]:
    """Replay a message script against a real control plane.

    Stands up a :class:`ControlPlaneServer` on ``socket_path`` (UNIX
    socket), connects a client, sends every message in order, and
    returns the typed responses (one per message, in order).  When the
    script does not end with :class:`~repro.api.types.Shutdown`, one is
    sent implicitly so the server always winds down; its ``Ack`` is not
    included in the returned list.

    ``plane`` substitutes a pre-built dispatcher — a journal-backed or
    freshly recovered one — for the default empty plane.

    This is the CI smoke path and the CLI's ``serve --session`` mode:
    everything — framing, codecs, dispatch, session state — runs exactly
    as it would for a long-lived deployment, just against a scripted
    client.
    """

    async def _run() -> list[object]:
        server = ControlPlaneServer(plane)
        bound = await server.start_unix(socket_path)
        async with bound:
            client = await ControlPlaneClient.connect_unix(socket_path)
            responses: list[object] = []
            try:
                for message in messages:
                    responses.append(await client.request(message))
                if not (
                    messages and isinstance(messages[-1], Shutdown)
                ):
                    await client.request(Shutdown())
            finally:
                await client.close()
            await server.wait_closed()
        return responses

    return asyncio.run(_run())
