"""Recovery policies and the fault-trace replay harness.

A *recovery policy* decides what the broadcast system does when the
channel topology changes mid-flight.  Four are built in:

===================   ====================================================
``carry_on``          Keep the old program on the surviving rows; never
                      reschedule (recovered channels stay idle).
``reschedule_full``   Rebuild on every topology change: SUSC when the
                      survivors meet the Theorem-3.1 bound (valid program
                      by Theorem 3.2), PAMAD otherwise.
``reschedule_throttled``  Like ``reschedule_full`` but with a cooldown
                      and a channel-count hysteresis band, so flapping
                      transmitters don't thrash the scheduler; between
                      rebuilds it degrades like ``carry_on``.
``shed_load``         Rebuild by dropping the lowest-frequency (most
                      relaxed) pages until the remainder fits the
                      survivors, then SUSC — the on-air pages keep their
                      validity guarantee at the cost of shedding content.
===================   ====================================================

:func:`replay_plan` replays a :class:`~repro.resilience.faultplan.FaultPlan`
under a policy and measures what clients experience: structural events
partition the timeline into epochs; within each epoch seeded client
listeners sample waits against the configuration in force when they
arrive (lossy-slot corruptions push a listener to the next clean
appearance of its page).  The outcome reports reschedule count, total
page-slots of unreachable content, and the fraction of listens whose
expected-time guarantee was violated.  Everything is seeded, so a replay
is a pure function of (instance, plan JSON, policy, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import random

from repro.baselines.drop import schedule_drop
from repro.core.bounds import minimum_channels
from repro.core.errors import SimulationError
from repro.core.pages import ProblemInstance
from repro.core.pamad import schedule_pamad
from repro.core.program import BroadcastProgram
from repro.core.susc import schedule_susc
from repro.resilience.faultplan import FaultEvent, FaultPlan

__all__ = [
    "POLICY_NAMES",
    "AirState",
    "RecoveryPolicy",
    "CarryOn",
    "RescheduleFull",
    "RescheduleThrottled",
    "ShedLoad",
    "ReplayOutcome",
    "make_policy",
    "default_policies",
    "replay_plan",
    "compare_policies",
]

POLICY_NAMES = (
    "carry_on",
    "reschedule_full",
    "reschedule_throttled",
    "shed_load",
)


@dataclass
class AirState:
    """What is on the air at one instant of a replay.

    Attributes:
        alive: Original indices of the channels currently able to
            transmit (plan-level topology).
        carrying: Original indices of the channels actually carrying the
            current program, in row order — row ``i`` of ``program`` is
            transmitted by channel ``carrying[i]``.  A policy that does
            not reschedule leaves recovered channels out of ``carrying``.
        program: The program on air, or ``None`` when nothing is.
        shed_page_ids: Pages deliberately removed from the broadcast by
            a load-shedding policy.
        reschedules: Rebuild count so far.
        last_reschedule: Time of the most recent rebuild.
        channels_at_last_reschedule: Channel count the current program
            was built for (hysteresis reference).
    """

    alive: set[int]
    carrying: tuple[int, ...]
    program: BroadcastProgram | None
    shed_page_ids: frozenset[int] = frozenset()
    reschedules: int = 0
    last_reschedule: float = 0.0
    channels_at_last_reschedule: int = 0


def _rebuild_program(
    instance: ProblemInstance, channels: int
) -> BroadcastProgram:
    """Best valid-or-minimum-delay program for a channel count.

    SUSC when the count meets the Theorem-3.1 bound (validity guaranteed
    by Theorem 3.2), PAMAD below it (minimum average delay).
    """
    if channels >= minimum_channels(instance):
        return schedule_susc(instance, num_channels=channels).program
    return schedule_pamad(instance, channels).program


def _drop_failed_rows(
    program: BroadcastProgram,
    carrying: Sequence[int],
    failed: set[int],
) -> tuple[BroadcastProgram | None, tuple[int, ...]]:
    """Remove the rows of failed channels, keeping slot positions."""
    keep = [
        row for row, channel in enumerate(carrying) if channel not in failed
    ]
    if not keep:
        return None, ()
    if len(keep) == len(carrying):
        return program, tuple(carrying)
    degraded = BroadcastProgram(
        num_channels=len(keep), cycle_length=program.cycle_length
    )
    for new_row, old_row in enumerate(keep):
        for slot in range(program.cycle_length):
            page = program.get(old_row, slot)
            if page is not None:
                degraded.assign(new_row, slot, page)
    return degraded, tuple(carrying[row] for row in keep)


class RecoveryPolicy:
    """Base class / protocol for recovery policies.

    Subclasses override :meth:`respond`, mutating ``state`` in reaction
    to one batch of simultaneous structural events.  ``state.alive`` has
    already been updated to the post-batch topology when ``respond`` is
    called.
    """

    name = "abstract"

    def respond(
        self,
        state: AirState,
        batch: Sequence[FaultEvent],
        now: int,
        instance: ProblemInstance,
    ) -> None:
        raise NotImplementedError

    def _full_rebuild(
        self, state: AirState, now: int, instance: ProblemInstance
    ) -> None:
        if not state.alive:
            state.program = None
            state.carrying = ()
        else:
            state.program = _rebuild_program(instance, len(state.alive))
            state.carrying = tuple(sorted(state.alive))
        state.shed_page_ids = frozenset()
        state.reschedules += 1
        state.last_reschedule = now
        state.channels_at_last_reschedule = len(state.alive)


class CarryOn(RecoveryPolicy):
    """Never reschedule: failed rows vanish, recovered channels idle."""

    name = "carry_on"

    def respond(self, state, batch, now, instance) -> None:
        failed = {e.channel for e in batch if e.kind == "channel_fail"}
        if state.program is not None and failed:
            state.program, state.carrying = _drop_failed_rows(
                state.program, state.carrying, failed
            )


class RescheduleFull(RecoveryPolicy):
    """Rebuild the whole program on every topology change."""

    name = "reschedule_full"

    def respond(self, state, batch, now, instance) -> None:
        self._full_rebuild(state, now, instance)


class RescheduleThrottled(RecoveryPolicy):
    """Rebuild with hysteresis and a cooldown, degrade in between.

    Args:
        cooldown: Minimum slots between two rebuilds.
        hysteresis: Minimum |channel-count change| since the last rebuild
            before another one is allowed — a channel flapping up and
            down inside the band never triggers a reschedule.
    """

    name = "reschedule_throttled"

    def __init__(self, cooldown: int = 30, hysteresis: int = 1) -> None:
        if cooldown < 0 or hysteresis < 1:
            raise SimulationError(
                f"need cooldown >= 0 and hysteresis >= 1, got "
                f"cooldown={cooldown}, hysteresis={hysteresis}"
            )
        self.cooldown = cooldown
        self.hysteresis = hysteresis

    def respond(self, state, batch, now, instance) -> None:
        drift = abs(len(state.alive) - state.channels_at_last_reschedule)
        cooled = now - state.last_reschedule >= self.cooldown
        if drift >= self.hysteresis and cooled:
            self._full_rebuild(state, now, instance)
            return
        failed = {e.channel for e in batch if e.kind == "channel_fail"}
        if state.program is not None and failed:
            state.program, state.carrying = _drop_failed_rows(
                state.program, state.carrying, failed
            )


class ShedLoad(RecoveryPolicy):
    """Shed the lowest-frequency pages until the survivors suffice.

    Rebuilds on every topology change like ``reschedule_full``, but
    instead of accepting delay it drops pages — most relaxed (least
    frequently broadcast) group first — until the Theorem-3.1 bound fits
    the surviving channel count, then schedules the remainder with SUSC.
    The pages still on air keep their validity guarantee; the shed pages
    are counted as unreachable.
    """

    name = "shed_load"

    def respond(self, state, batch, now, instance) -> None:
        if not state.alive:
            state.program = None
            state.carrying = ()
            state.shed_page_ids = frozenset(
                page.page_id for page in instance.pages()
            )
        else:
            shed = schedule_drop(
                instance, len(state.alive), policy="keep-urgent"
            )
            state.program = shed.program
            state.carrying = tuple(sorted(state.alive))
            state.shed_page_ids = frozenset(
                page.page_id for page in shed.dropped_pages
            )
        state.reschedules += 1
        state.last_reschedule = now
        state.channels_at_last_reschedule = len(state.alive)


def make_policy(name: str, **options) -> RecoveryPolicy:
    """Instantiate a policy by registry name (CLI entry point)."""
    key = name.strip().lower().replace("-", "_")
    if key == "carry_on":
        return CarryOn()
    if key == "reschedule_full":
        return RescheduleFull()
    if key == "reschedule_throttled":
        return RescheduleThrottled(**options)
    if key == "shed_load":
        return ShedLoad()
    raise SimulationError(
        f"unknown recovery policy {name!r}; choose from "
        f"{', '.join(POLICY_NAMES)}"
    )


def default_policies(
    cooldown: int = 30, hysteresis: int = 1
) -> tuple[RecoveryPolicy, ...]:
    """One instance of each built-in policy."""
    return (
        CarryOn(),
        RescheduleFull(),
        RescheduleThrottled(cooldown=cooldown, hysteresis=hysteresis),
        ShedLoad(),
    )


# ----------------------------------------------------------------------
# Replay harness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayOutcome:
    """What clients experienced over one (plan, policy) replay.

    Attributes:
        policy: The policy's registry name.
        plan_fingerprint: Content digest of the replayed plan.
        reschedule_count: Full program rebuilds the policy performed.
        pages_lost_time: Unreachable content integrated over time, in
            page·slots (a page off the air for 10 slots contributes 10).
        violation_fraction: Fraction of sampled listens whose
            expected-time guarantee was violated (waited too long, hit a
            corrupted slot chain, or found their page off the air).
        mean_excess_delay: Mean wait beyond the expected time over the
            *reachable* listens (AvgD under churn).
        shed_pages_peak: Largest number of deliberately shed pages at any
            point (non-zero only for load-shedding policies).
        listens: Total sampled client listens.
        epochs: Number of constant-topology intervals measured.
    """

    policy: str
    plan_fingerprint: str
    reschedule_count: int
    pages_lost_time: float
    violation_fraction: float
    mean_excess_delay: float
    shed_pages_peak: int
    listens: int
    epochs: int

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "plan_fingerprint": self.plan_fingerprint,
            "reschedule_count": self.reschedule_count,
            "pages_lost_time": round(self.pages_lost_time, 6),
            "violation_fraction": round(self.violation_fraction, 6),
            "mean_excess_delay": round(self.mean_excess_delay, 6),
            "shed_pages_peak": self.shed_pages_peak,
            "listens": self.listens,
            "epochs": self.epochs,
        }


def _wait_with_losses(
    program: BroadcastProgram,
    carrying: Sequence[int],
    page_id: int,
    arrival: float,
    corrupted: frozenset[tuple[int, int]],
) -> float | None:
    """Wait from ``arrival`` to the next *clean* broadcast of ``page_id``.

    ``corrupted`` holds (absolute time, original channel) pairs whose
    transmission was lost; a listener skips those and keeps waiting.
    Returns ``None`` when the page is not in the program at all.
    Terminates because the corruption set is finite: once the scan passes
    the last corrupted time, the first appearance is always clean.
    """
    refs = program.appearances(page_id)
    if not refs:
        return None
    cycle = program.cycle_length
    k = int(arrival // cycle)
    while True:
        for ref in refs:
            air_time = k * cycle + ref.slot
            if air_time < arrival:
                continue
            if (air_time, carrying[ref.channel]) in corrupted:
                continue
            return air_time - arrival
        k += 1


def replay_plan(
    instance: ProblemInstance,
    plan: FaultPlan,
    policy: RecoveryPolicy,
    *,
    num_listeners: int = 400,
    seed: int = 0,
) -> ReplayOutcome:
    """Replay a fault plan under one policy and measure the client view.

    The plan's structural events split ``[0, horizon)`` into epochs of
    constant topology.  Each epoch receives a share of ``num_listeners``
    proportional to its duration; every listener picks a page uniformly
    and an arrival uniformly inside the epoch, then waits for the next
    clean appearance under the configuration in force at arrival.

    The listener stream depends only on ``(seed, epoch index)`` — not on
    the policy — so outcomes of different policies on the same plan are
    directly comparable, and replaying a plan reloaded from JSON is
    bit-identical.

    Args:
        instance: The workload being broadcast.
        plan: The fault timeline (its ``num_channels`` is the pre-fault
            channel count; the initial program is built for it).
        policy: The recovery policy under test.
        num_listeners: Total sampled client listens across the horizon.
        seed: Base RNG seed for the listener streams.

    Returns:
        A :class:`ReplayOutcome`.
    """
    if num_listeners < 1:
        raise SimulationError(
            f"num_listeners must be >= 1, got {num_listeners}"
        )
    initial = _rebuild_program(instance, plan.num_channels)
    state = AirState(
        alive=set(range(plan.num_channels)),
        carrying=tuple(range(plan.num_channels)),
        program=initial,
        channels_at_last_reschedule=plan.num_channels,
    )
    corrupted = frozenset(
        (event.time, event.channel) for event in plan.lossy_events()
    )

    batches: dict[int, list[FaultEvent]] = {}
    for event in plan.structural_events():
        batches.setdefault(event.time, []).append(event)
    boundaries = sorted(batches)

    pages = list(instance.pages())
    total_duration = float(plan.horizon)
    pages_lost_time = 0.0
    violations = 0
    listens = 0
    excess_sum = 0.0
    reachable_listens = 0
    shed_peak = 0
    epochs_measured = 0

    def measure_epoch(start: int, end: int, epoch_index: int) -> None:
        nonlocal pages_lost_time, violations, listens
        nonlocal excess_sum, reachable_listens, epochs_measured
        duration = end - start
        if duration <= 0:
            return
        epochs_measured += 1
        program = state.program
        if program is None:
            unreachable = {page.page_id for page in pages}
        else:
            unreachable = {
                page.page_id
                for page in pages
                if program.broadcast_count(page.page_id) == 0
            }
        pages_lost_time += len(unreachable) * duration
        count = max(1, round(num_listeners * duration / total_duration))
        rng = random.Random(seed * 1_000_003 + epoch_index * 7919)
        for _ in range(count):
            page = pages[rng.randrange(len(pages))]
            arrival = rng.uniform(start, end)
            listens += 1
            if page.page_id in unreachable:
                violations += 1
                continue
            wait = _wait_with_losses(
                program, state.carrying, page.page_id, arrival, corrupted
            )
            reachable_listens += 1
            excess = max(0.0, wait - page.expected_time)
            excess_sum += excess
            if wait > page.expected_time:
                violations += 1

    cursor = 0
    for epoch_index, boundary in enumerate(boundaries):
        measure_epoch(cursor, boundary, epoch_index)
        batch = sorted(batches[boundary])
        for event in batch:
            if event.kind == "channel_fail":
                state.alive.discard(event.channel)
            else:
                state.alive.add(event.channel)
        policy.respond(state, batch, boundary, instance)
        shed_peak = max(shed_peak, len(state.shed_page_ids))
        cursor = boundary
    measure_epoch(cursor, plan.horizon, len(boundaries))

    return ReplayOutcome(
        policy=policy.name,
        plan_fingerprint=plan.fingerprint(),
        reschedule_count=state.reschedules,
        pages_lost_time=pages_lost_time,
        violation_fraction=violations / listens if listens else 0.0,
        mean_excess_delay=(
            excess_sum / reachable_listens if reachable_listens else 0.0
        ),
        shed_pages_peak=shed_peak,
        listens=listens,
        epochs=epochs_measured,
    )


def compare_policies(
    instance: ProblemInstance,
    plan: FaultPlan,
    policies: Sequence[RecoveryPolicy] | None = None,
    *,
    num_listeners: int = 400,
    seed: int = 0,
) -> list[ReplayOutcome]:
    """Replay one plan under several policies (same listener streams)."""
    chosen = tuple(policies) if policies is not None else default_policies()
    return [
        replay_plan(
            instance,
            plan,
            policy,
            num_listeners=num_listeners,
            seed=seed,
        )
        for policy in chosen
    ]
