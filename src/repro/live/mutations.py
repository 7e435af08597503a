"""Mutation traces — seeded, replayable timelines of catalog churn.

The paper schedules a *frozen* page catalog.  A live dissemination
service does not get that luxury: pages are published and withdrawn
while clients are tuned in, and operators retune expected times (they
are client-facing deadlines — a service-level objective, not a constant).
A :class:`MutationTrace` captures one such timeline as an explicit,
ordered sequence of :class:`MutationEvent` items:

* ``page_insert`` — a new page joins the catalog at ``time`` with the
  given ``expected_time``;
* ``page_remove`` — the page leaves the catalog at ``time``;
* ``page_retune`` — the page's expected time changes to
  ``expected_time`` at ``time`` (tightening or relaxing its deadline);
* ``listener``    — a client tunes in at (fractional) ``time`` wanting
  ``page_id``; ``expected_time`` records the deadline the client was
  promised when the trace was generated, so deadline misses stay
  attributable even when the service later rejects or retunes the page.

Traces are value objects: the JSON round trip is exact, generators are
pure functions of their seed (see
:func:`repro.workload.mutations.generate_mutation_trace`), and the
content fingerprint names a trace in run manifests — the same contract
:class:`~repro.resilience.faultplan.FaultPlan` established for channel
churn, applied to the catalog dimension.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.core.errors import SimulationError

__all__ = [
    "MUTATION_KINDS",
    "CATALOG_KINDS",
    "MutationEvent",
    "MutationTrace",
    "fingerprint_columns",
    "scripted_trace",
]

#: Kinds that alter the page catalog (processed at integer slot times).
CATALOG_KINDS = ("page_insert", "page_remove", "page_retune")

MUTATION_KINDS = CATALOG_KINDS + ("listener",)


def _event_sort_key(event: "MutationEvent") -> tuple:
    return (event.time, event.kind, event.page_id)


@dataclass(frozen=True, slots=True)
class MutationEvent:
    """One catalog mutation or listener arrival on the timeline.

    Attributes:
        time: When the event takes effect.  Catalog mutations happen at
            integer slot boundaries; listener arrivals may be fractional
            (clients do not arrive aligned to slots).
        kind: One of :data:`MUTATION_KINDS`.
        page_id: The page the event concerns.
        expected_time: The deadline ``t_i`` carried by the event —
            required for ``page_insert``/``page_retune`` (the new
            deadline) and ``listener`` (the deadline promised at
            generation time); must be omitted for ``page_remove``.
    """

    time: float
    kind: str
    page_id: int
    expected_time: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in MUTATION_KINDS:
            raise SimulationError(
                f"unknown mutation kind {self.kind!r}; choose from "
                f"{', '.join(MUTATION_KINDS)}"
            )
        if self.time < 0:
            raise SimulationError(
                f"mutation time must be >= 0, got {self.time}"
            )
        if self.page_id < 0:
            raise SimulationError(
                f"page_id must be >= 0, got {self.page_id}"
            )
        if self.kind in ("page_insert", "page_retune", "listener"):
            if self.expected_time is None or self.expected_time <= 0:
                raise SimulationError(
                    f"{self.kind} at t={self.time} needs a positive "
                    f"expected_time, got {self.expected_time}"
                )
        elif self.expected_time is not None:
            raise SimulationError(
                f"page_remove at t={self.time} must not carry an "
                "expected_time"
            )
        if self.kind in CATALOG_KINDS and self.time != int(self.time):
            raise SimulationError(
                f"catalog mutation {self.kind} must land on an integer "
                f"slot boundary, got t={self.time}"
            )

    def to_dict(self) -> dict:
        payload = {
            "time": self.time,
            "kind": self.kind,
            "page_id": self.page_id,
        }
        if self.expected_time is not None:
            payload["expected_time"] = self.expected_time
        return payload

    @classmethod
    def from_dict(cls, data: Mapping) -> "MutationEvent":
        expected = data.get("expected_time")
        return cls(
            time=float(data["time"]),
            kind=str(data["kind"]),
            page_id=int(data["page_id"]),
            expected_time=None if expected is None else int(expected),
        )


@dataclass(frozen=True)
class MutationTrace:
    """A replayable catalog-churn timeline.

    Events are stored sorted by ``(time, kind, page_id)``; construction
    validates kinds, the horizon, and uniqueness — the *semantic*
    consistency of the stream (inserting an existing page, removing an
    unknown one) is judged by the service replaying it, which records
    such events as rejected rather than crashing.

    Attributes:
        horizon: Timeline length in slots; every event happens at
            ``time < horizon``.
        events: The sorted events (built on first access for a
            columnar trace, see :meth:`presorted`).
        meta: Free-form provenance (generator name, seed, rates) carried
            through serialisation so a saved trace is self-describing.
    """

    horizon: int
    events: tuple[MutationEvent, ...]
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise SimulationError(
                f"trace horizon must be >= 1, got {self.horizon}"
            )
        ordered = tuple(sorted(self.events, key=_event_sort_key))
        object.__setattr__(self, "events", ordered)
        # Key-sorted so a generated trace and its JSON round trip embed
        # identically in downstream manifests.
        object.__setattr__(
            self, "meta", dict(sorted(dict(self.meta).items()))
        )
        seen: set[tuple] = set()
        for event in ordered:
            if event.time >= self.horizon:
                raise SimulationError(
                    f"event at time {event.time} is beyond the horizon "
                    f"{self.horizon}"
                )
            key = _event_sort_key(event)
            if key in seen:
                raise SimulationError(
                    f"duplicate event {event.kind} for page "
                    f"{event.page_id} at t={event.time}"
                )
            seen.add(key)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __getattr__(self, name: str) -> tuple[MutationEvent, ...]:
        # Reached only when normal lookup fails.  A columnar trace (see
        # :meth:`presorted`) holds no ``events`` until something asks.
        state = self.__dict__
        if name != "events" or "_columns" not in state:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        times, is_listener, page_ids, expected = state["_columns"]
        catalog = iter(state["_mutations"])
        events = tuple(
            MutationEvent(time, "listener", page, deadline)
            if listener
            else next(catalog)
            for time, listener, page, deadline in zip(
                times.tolist(),
                is_listener.tolist(),
                page_ids.tolist(),
                expected.tolist(),
            )
        )
        object.__setattr__(self, "events", events)
        return events

    def __iter__(self) -> Iterator[MutationEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def mutations(self) -> tuple[MutationEvent, ...]:
        """The catalog-changing events (inserts, removes, retunes).

        Memoised, and stored outright on a columnar trace, so the
        batched replay reads them without touching the listener events.
        """
        cached = getattr(self, "_mutations", None)
        if cached is None:
            cached = tuple(
                e for e in self.events if e.kind in CATALOG_KINDS
            )
            object.__setattr__(self, "_mutations", cached)
        return cached

    def listeners(self) -> tuple[MutationEvent, ...]:
        """The client-arrival events."""
        return tuple(e for e in self.events if e.kind == "listener")

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "events": [event.to_dict() for event in self.events],
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MutationTrace":
        return cls(
            horizon=int(data["horizon"]),
            events=tuple(
                MutationEvent.from_dict(item)
                for item in data.get("events", ())
            ),
            meta=dict(data.get("meta", {})),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MutationTrace":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Write the trace to ``path`` as JSON; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: str | Path) -> "MutationTrace":
        """Read a trace previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def columns(self) -> "tuple":
        """Columnar numpy view of the events, memoised on the trace.

        Returns ``(times, is_listener, page_ids, expected)`` — float64
        arrival/effect times, a listener-kind mask, int64 page ids and
        int64 promised deadlines (``-1`` where the event carries none).
        The batched replay engine slices these instead of re-reading
        half a million event objects per run; like :meth:`fingerprint`,
        the trace is frozen so one conversion pass serves every replay.
        """
        cached = getattr(self, "_columns", None)
        if cached is None:
            import numpy as np

            count = len(self.events)
            times = np.fromiter(
                (event.time for event in self.events), np.float64, count
            )
            is_listener = np.fromiter(
                (event.kind == "listener" for event in self.events),
                np.bool_,
                count,
            )
            page_ids = np.fromiter(
                (event.page_id for event in self.events), np.int64, count
            )
            expected = np.fromiter(
                (
                    -1 if event.expected_time is None else event.expected_time
                    for event in self.events
                ),
                np.int64,
                count,
            )
            cached = (times, is_listener, page_ids, expected)
            object.__setattr__(self, "_columns", cached)
        return cached

    def fingerprint(self) -> str:
        """Stable content digest, suitable for run manifests.

        Memoised: the trace is frozen, and serialising a million-event
        timeline per :meth:`LiveBroadcastService.run` would otherwise
        rival the replay itself.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            canonical = json.dumps(self.to_dict(), sort_keys=True)
            cached = hashlib.sha256(
                canonical.encode("utf-8")
            ).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    @classmethod
    def presorted(
        cls,
        horizon: int,
        columns: tuple,
        catalog_events: Sequence[MutationEvent],
        meta: Mapping[str, object] | None = None,
        *,
        fingerprint: str | None = None,
    ) -> "MutationTrace":
        """Trusted columnar constructor for a subset of a validated trace.

        The federation router derives per-shard sub-traces from a parent
        trace that has already paid :meth:`__post_init__`'s sort and
        duplicate scan.  ``columns`` is the sub-trace's :meth:`columns`
        layout ``(times, is_listener, page_ids, expected)`` and
        ``catalog_events`` its non-listener events, both in
        ``(time, kind, page_id)`` order; the caller *guarantees* they
        are unique and inside the horizon — subsets and stable merges
        of a validated trace preserve all three.  No listener event is
        built: ``events`` materialises from the columns on first access
        and is memoised, so the batched replay, which reads only
        :meth:`columns` and :meth:`mutations`, never pays for it.  The
        fingerprint is stamped (``fingerprint``) or computed with
        :func:`fingerprint_columns`.
        """
        if horizon < 1:
            raise SimulationError(
                f"trace horizon must be >= 1, got {horizon}"
            )
        trace = object.__new__(cls)
        object.__setattr__(trace, "horizon", int(horizon))
        object.__setattr__(
            trace, "meta", dict(sorted(dict(meta or {}).items()))
        )
        object.__setattr__(trace, "_columns", tuple(columns))
        object.__setattr__(trace, "_mutations", tuple(catalog_events))
        if fingerprint is None:
            fingerprint = fingerprint_columns(
                horizon, trace.meta, *columns, catalog_events
            )
        object.__setattr__(trace, "_fingerprint", fingerprint)
        return trace


def fingerprint_columns(
    horizon: int,
    meta: Mapping[str, object],
    times,
    is_listener,
    page_ids,
    expected,
    catalog_events: Sequence[MutationEvent],
) -> str:
    """Content digest of a trace described by its columnar arrays.

    The arrays are the trace's :meth:`MutationTrace.columns` layout (in
    sorted event order); ``catalog_events`` are the non-listener events
    in the same sorted order, carrying the per-event kind the listener
    mask cannot (the mask only separates listeners from catalog
    mutations).  Together with the horizon and meta these determine the
    full event content, so the digest is a faithful fingerprint — but a
    *differently computed* one than :meth:`MutationTrace.fingerprint`
    (which canonicalises through JSON): the two must not be mixed for
    the same trace.  The federation router stamps every sub-trace with
    this digest via :meth:`MutationTrace.presorted`, on both the
    columnar and the sequential reference paths, so reports stay
    byte-identical across routers while skipping a JSON serialisation
    that would rival the shard replay itself.
    """
    digest = hashlib.sha256()
    digest.update(b"columns:v1\n")
    digest.update(str(int(horizon)).encode("utf-8"))
    digest.update(b"\n")
    digest.update(
        json.dumps(dict(meta), sort_keys=True).encode("utf-8")
    )
    digest.update(b"\n")
    import numpy as np

    digest.update(np.ascontiguousarray(times, dtype=np.float64))
    digest.update(np.ascontiguousarray(is_listener, dtype=np.bool_))
    digest.update(np.ascontiguousarray(page_ids, dtype=np.int64))
    digest.update(np.ascontiguousarray(expected, dtype=np.int64))
    digest.update(
        json.dumps(
            [event.to_dict() for event in catalog_events], sort_keys=True
        ).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def scripted_trace(
    horizon: int,
    events: Sequence[MutationEvent | tuple],
    meta: Mapping[str, object] | None = None,
) -> MutationTrace:
    """Build a trace from explicit events.

    Tuples are ``(time, kind, page_id)`` or
    ``(time, kind, page_id, expected_time)``.
    """
    normalised = tuple(
        event if isinstance(event, MutationEvent) else MutationEvent(*event)
        for event in events
    )
    return MutationTrace(
        horizon=horizon,
        events=normalised,
        meta=dict(meta or {"generator": "scripted"}),
    )
