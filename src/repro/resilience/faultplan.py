"""Fault traces — seeded, replayable timelines of channel churn.

The paper's model is static: ``N`` channels exist for the lifetime of the
program.  Real broadcast infrastructure is not — transmitters fail and
come back (interference, hardware, spectrum reallocation), and individual
slot transmissions get corrupted.  A :class:`FaultPlan` captures one such
timeline as an explicit, ordered sequence of :class:`FaultEvent` items:

* ``channel_fail``    — the channel stops transmitting at ``time``;
* ``channel_recover`` — the channel comes back on air at ``time``;
* ``lossy_slot``      — the single broadcast on ``channel`` at absolute
  time ``time`` is corrupted (clients tuned to it must wait for the next
  appearance of their page).

Channel indices always refer to the *original* channel numbering of the
pre-fault program, so a plan is meaningful independently of how a
recovery policy remaps survivors.

Plans are value objects: seeded generators (:func:`poisson_churn_plan`)
produce bit-identical plans for identical arguments, and the JSON round
trip (:meth:`FaultPlan.to_json` / :meth:`FaultPlan.from_json`) is exact,
which is what makes churn experiments replayable from a saved trace.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.core.errors import SimulationError

__all__ = [
    "EVENT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "poisson_churn_plan",
    "scripted_plan",
    "static_failure_plan",
]

EVENT_KINDS = ("channel_fail", "channel_recover", "lossy_slot")


@dataclass(frozen=True, slots=True, order=True)
class FaultEvent:
    """One fault on the timeline.

    Ordering is (time, kind, channel): events are applied in this order,
    so simultaneous fail/recover batches resolve deterministically.

    Attributes:
        time: Absolute slot index at which the event takes effect.
        kind: One of :data:`EVENT_KINDS`.
        channel: Original channel index the event applies to.
    """

    time: int
    kind: str
    channel: int

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise SimulationError(
                f"unknown fault kind {self.kind!r}; choose from "
                f"{', '.join(EVENT_KINDS)}"
            )
        if self.time < 0:
            raise SimulationError(
                f"fault time must be >= 0, got {self.time}"
            )
        if self.channel < 0:
            raise SimulationError(
                f"fault channel must be >= 0, got {self.channel}"
            )

    def to_dict(self) -> dict:
        return {"time": self.time, "kind": self.kind, "channel": self.channel}

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultEvent":
        return cls(
            time=int(data["time"]),
            kind=str(data["kind"]),
            channel=int(data["channel"]),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A replayable fault timeline over ``num_channels`` channels.

    Events are stored sorted by (time, kind, channel); construction
    validates channel ranges, the horizon, and that the fail/recover
    sequence per channel is consistent (no failing an already-failed
    channel, no recovering a live one).

    Attributes:
        num_channels: Channel count of the program the plan applies to.
        horizon: Length of the timeline in slots; every event happens at
            ``time < horizon``.
        events: The sorted fault events.
        meta: Free-form provenance (generator name, seed, rates) carried
            through serialisation so a saved trace is self-describing.
    """

    num_channels: int
    horizon: int
    events: tuple[FaultEvent, ...]
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_channels < 1:
            raise SimulationError(
                f"plan needs >= 1 channel, got {self.num_channels}"
            )
        if self.horizon < 1:
            raise SimulationError(
                f"plan horizon must be >= 1, got {self.horizon}"
            )
        ordered = tuple(sorted(self.events))
        object.__setattr__(self, "events", ordered)
        object.__setattr__(self, "meta", dict(self.meta))
        alive = set(range(self.num_channels))
        for event in ordered:
            if event.channel >= self.num_channels:
                raise SimulationError(
                    f"event channel {event.channel} out of range "
                    f"0..{self.num_channels - 1}"
                )
            if event.time >= self.horizon:
                raise SimulationError(
                    f"event at time {event.time} is beyond the horizon "
                    f"{self.horizon}"
                )
            if event.kind == "channel_fail":
                if event.channel not in alive:
                    raise SimulationError(
                        f"channel {event.channel} fails at {event.time} "
                        "but is already down"
                    )
                alive.discard(event.channel)
            elif event.kind == "channel_recover":
                if event.channel in alive:
                    raise SimulationError(
                        f"channel {event.channel} recovers at {event.time} "
                        "but never failed"
                    )
                alive.add(event.channel)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def structural_events(self) -> tuple[FaultEvent, ...]:
        """The fail/recover events (the ones that change channel topology)."""
        return tuple(
            e for e in self.events if e.kind != "lossy_slot"
        )

    def lossy_events(self) -> tuple[FaultEvent, ...]:
        """The per-slot corruption events."""
        return tuple(e for e in self.events if e.kind == "lossy_slot")

    def alive_at(self, time: int) -> tuple[int, ...]:
        """Original channel indices on air just *after* events at ``time``."""
        alive = set(range(self.num_channels))
        for event in self.events:
            if event.time > time or event.kind == "lossy_slot":
                continue
            if event.kind == "channel_fail":
                alive.discard(event.channel)
            else:
                alive.add(event.channel)
        return tuple(sorted(alive))

    def min_alive(self) -> int:
        """The smallest number of live channels at any point of the plan."""
        alive = self.num_channels
        lowest = alive
        for event in self.events:
            if event.kind == "channel_fail":
                alive -= 1
                lowest = min(lowest, alive)
            elif event.kind == "channel_recover":
                alive += 1
        return lowest

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "num_channels": self.num_channels,
            "horizon": self.horizon,
            "events": [event.to_dict() for event in self.events],
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        return cls(
            num_channels=int(data["num_channels"]),
            horizon=int(data["horizon"]),
            events=tuple(
                FaultEvent.from_dict(item) for item in data.get("events", ())
            ),
            meta=dict(data.get("meta", {})),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Write the plan to ``path`` as JSON; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Read a plan previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def fingerprint(self) -> str:
        """Stable content digest, suitable for run manifests."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def poisson_churn_plan(
    num_channels: int,
    horizon: int,
    *,
    seed: int = 0,
    fail_rate: float = 0.01,
    recover_rate: float = 0.1,
    loss_rate: float = 0.0,
    min_alive: int = 1,
) -> FaultPlan:
    """Generate a seeded random churn timeline.

    Per-slot Bernoulli trials approximate independent Poisson processes:
    each live channel fails with probability ``fail_rate`` per slot, each
    failed channel recovers with probability ``recover_rate``, and each
    live channel suffers a corrupted transmission with probability
    ``loss_rate``.  Within a slot, failure trials run before recovery
    trials (matching the sorted order events are applied in, so the
    ``min_alive`` floor holds under replay too), and channels are visited
    in index order — the plan is a pure function of the arguments.

    Args:
        num_channels: Channels of the program under test.
        horizon: Timeline length in slots.
        seed: RNG seed; identical seeds give bit-identical plans.
        fail_rate: Per-slot failure probability of a live channel.
        recover_rate: Per-slot recovery probability of a failed channel.
        loss_rate: Per-slot corruption probability of a live channel.
        min_alive: Failures that would leave fewer live channels than
            this are suppressed (a fully dark system measures nothing).

    Returns:
        The generated :class:`FaultPlan`, with provenance in ``meta``.
    """
    if not 0 < min_alive <= num_channels:
        raise SimulationError(
            f"min_alive must be in 1..{num_channels}, got {min_alive}"
        )
    for name, rate in (
        ("fail_rate", fail_rate),
        ("recover_rate", recover_rate),
        ("loss_rate", loss_rate),
    ):
        if not 0.0 <= rate <= 1.0:
            raise SimulationError(
                f"{name} must be a probability, got {rate}"
            )
    rng = random.Random(seed)
    alive = set(range(num_channels))
    events: list[FaultEvent] = []
    for time in range(horizon):
        down_before = [c for c in range(num_channels) if c not in alive]
        for channel in range(num_channels):
            if channel not in alive:
                continue
            if len(alive) > min_alive and rng.random() < fail_rate:
                alive.discard(channel)
                events.append(FaultEvent(time, "channel_fail", channel))
            elif loss_rate and rng.random() < loss_rate:
                events.append(FaultEvent(time, "lossy_slot", channel))
        for channel in down_before:
            if rng.random() < recover_rate:
                alive.add(channel)
                events.append(
                    FaultEvent(time, "channel_recover", channel)
                )
    return FaultPlan(
        num_channels=num_channels,
        horizon=horizon,
        events=tuple(events),
        meta={
            "generator": "poisson_churn",
            "seed": seed,
            "fail_rate": fail_rate,
            "recover_rate": recover_rate,
            "loss_rate": loss_rate,
            "min_alive": min_alive,
        },
    )


def scripted_plan(
    num_channels: int,
    horizon: int,
    events: Sequence[FaultEvent | tuple[int, str, int]],
    meta: Mapping[str, object] | None = None,
) -> FaultPlan:
    """Build a plan from explicit events (tuples are ``(time, kind, channel)``)."""
    normalised = tuple(
        event if isinstance(event, FaultEvent) else FaultEvent(*event)
        for event in events
    )
    return FaultPlan(
        num_channels=num_channels,
        horizon=horizon,
        events=normalised,
        meta=dict(meta or {"generator": "scripted"}),
    )


def static_failure_plan(
    num_channels: int,
    failed: Sequence[int],
    horizon: int = 1,
) -> FaultPlan:
    """The static special case: ``failed`` channels go down at time 0."""
    return scripted_plan(
        num_channels,
        horizon,
        [(0, "channel_fail", channel) for channel in sorted(set(failed))],
        meta={"generator": "static_failure", "failed": sorted(set(failed))},
    )
