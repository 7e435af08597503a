"""Program degradation: what survives when channels go silent.

This is the structural core of the resilience layer: given a broadcast
program and a set of failed channels, compute the program the surviving
transmitters keep broadcasting — failed rows disappear, surviving rows
keep their slot positions (clients already tuned to them notice nothing),
and pages whose every appearance lived on failed channels become
unreachable.

Recovery *policies* that act over a whole fault timeline live in
:mod:`repro.resilience.policies`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.delay import page_average_delay
from repro.core.errors import SimulationError
from repro.core.pages import ProblemInstance
from repro.core.pamad import schedule_pamad
from repro.core.program import BroadcastProgram

__all__ = [
    "DegradedProgram",
    "FailureComparison",
    "silence_channels",
    "compare_static_failure_sizes",
]


@dataclass(frozen=True)
class DegradedProgram:
    """The old schedule carried on by the surviving channels.

    Attributes:
        program: The surviving grid (failed rows removed; cycle length
            unchanged).
        failed_channels: The channels that went silent.
        surviving_channels: Original indices of the rows still on air, in
            the order they appear in ``program`` (row ``i`` of the
            degraded grid is original channel ``surviving_channels[i]``).
        lost_pages: Pages with no surviving appearance — unreachable on
            the air until a reschedule.
        average_delay: Mean excess wait over the *reachable* pages only
            (unreachable pages would make it infinite; they are reported
            separately because their clients leave the broadcast system).
    """

    program: BroadcastProgram
    failed_channels: tuple[int, ...]
    surviving_channels: tuple[int, ...]
    lost_pages: tuple[int, ...]
    average_delay: float


def silence_channels(
    program: BroadcastProgram,
    instance: ProblemInstance,
    failed: Sequence[int],
) -> DegradedProgram:
    """Silence the given channels of a program.

    Args:
        program: The schedule in operation when the failure hits.
        instance: Pages and expected times (for the delay accounting).
        failed: Channel indices that stop transmitting.

    Returns:
        A :class:`DegradedProgram` over the surviving channels.

    Raises:
        SimulationError: If all channels fail or an index is out of range.
    """
    failed_set = set(failed)
    for channel in failed_set:
        if not 0 <= channel < program.num_channels:
            raise SimulationError(
                f"channel {channel} out of range 0.."
                f"{program.num_channels - 1}"
            )
    survivors = [
        channel
        for channel in range(program.num_channels)
        if channel not in failed_set
    ]
    if not survivors:
        raise SimulationError("every channel failed; nothing left on air")

    degraded = BroadcastProgram(
        num_channels=len(survivors),
        cycle_length=program.cycle_length,
    )
    for new_row, old_row in enumerate(survivors):
        for slot in range(program.cycle_length):
            page = program.get(old_row, slot)
            if page is not None:
                degraded.assign(new_row, slot, page)

    lost = tuple(
        sorted(
            page.page_id
            for page in instance.pages()
            if degraded.broadcast_count(page.page_id) == 0
        )
    )
    reachable = [
        page
        for page in instance.pages()
        if page.page_id not in set(lost)
    ]
    if reachable:
        average = sum(
            page_average_delay(degraded, page.page_id, page.expected_time)
            for page in reachable
        ) / len(reachable)
    else:
        average = float("inf")
    return DegradedProgram(
        program=degraded,
        failed_channels=tuple(sorted(failed_set)),
        surviving_channels=tuple(survivors),
        lost_pages=lost,
        average_delay=average,
    )


@dataclass(frozen=True)
class FailureComparison:
    """Degraded-vs-rescheduled outcome for one failure size.

    Attributes:
        failed_count: Channels lost.
        surviving_channels: Channels still on air.
        degraded_delay: Mean delay over reachable pages, old schedule.
        degraded_lost_pages: Pages unreachable under the old schedule.
        rescheduled_delay: Mean delay after a PAMAD reschedule (all pages
            reachable by construction).
    """

    failed_count: int
    surviving_channels: int
    degraded_delay: float
    degraded_lost_pages: int
    rescheduled_delay: float


def compare_static_failure_sizes(
    program: BroadcastProgram,
    instance: ProblemInstance,
    failure_sizes: Sequence[int],
) -> list[FailureComparison]:
    """Sweep one-shot failure sizes, comparing carry-on vs reschedule.

    Failures take the *highest-numbered* channels first (deterministic,
    and SUSC packs urgent groups into low channels — so this is the
    optimistic case for the degraded response; random failures would only
    look worse).

    Args:
        program: The pre-failure schedule.
        instance: The workload.
        failure_sizes: Numbers of channels to fail (each < num_channels).
    """
    rows: list[FailureComparison] = []
    for count in failure_sizes:
        if not 0 < count < program.num_channels:
            raise SimulationError(
                f"cannot fail {count} of {program.num_channels} channels"
            )
        failed = list(
            range(program.num_channels - count, program.num_channels)
        )
        degraded = silence_channels(program, instance, failed)
        rescheduled = schedule_pamad(
            instance, program.num_channels - count
        )
        rows.append(
            FailureComparison(
                failed_count=count,
                surviving_channels=program.num_channels - count,
                degraded_delay=degraded.average_delay,
                degraded_lost_pages=len(degraded.lost_pages),
                rescheduled_delay=rescheduled.average_delay,
            )
        )
    return rows
