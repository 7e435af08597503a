"""SUSC — Scheduling Under Sufficient Channels (Section 3.2).

When the system provides at least the Theorem-3.1 minimum number of
channels, SUSC greedily builds a *valid* broadcast program on a major cycle
of ``t_h`` slots:

1. take pages in ascending expected-time order (Algorithm 1, step 1);
2. for each page ``p_{i,j}``, scan channel by channel for a free slot in
   the first ``t_i`` slots of that channel (GetAvailableSlot, Algorithm 2);
3. place the page there and at every ``t_i``-th slot after it in the same
   channel, ``ceil(t_h / t_i)`` times in total (Algorithm 1, step 4).

Theorem 3.2 guarantees step 2 always succeeds given sufficient channels,
and Theorem 3.3 that the periodic slots of step 3 are free.  Both theorems
are enforced as runtime invariants here: a violation raises
:class:`~repro.core.errors.SchedulingError`, so a bound bug could never
silently produce an invalid schedule.

The fill runs on the array kernel of :mod:`repro.core.fastpath`.  The
literal probe-by-probe fill, with both the naive and the paper's
cursor-optimised GetAvailableSlot, is
:func:`repro.oracles.susc_reference`; tests pin the two to identical
programs, and the ABL4 ablation times the two probes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bounds import minimum_channels
from repro.core.errors import InsufficientChannelsError
from repro.core.pages import ProblemInstance
from repro.core.program import BroadcastProgram, SlotRef
from repro.core.validate import assert_valid_program

__all__ = ["SuscSchedule", "schedule_susc"]


@dataclass(frozen=True)
class SuscSchedule:
    """The output of SUSC: a valid program plus placement metadata.

    Attributes:
        program: The generated valid broadcast program (cycle ``t_h``).
        instance: The scheduled problem instance.
        num_channels: Channels used (the Theorem-3.1 minimum by default).
        first_slots: For each page id, the slot of its first appearance —
            the ``(x, y)`` returned by GetAvailableSlot, kept for the
            Theorem 3.2/3.3 property tests.
    """

    program: BroadcastProgram
    instance: ProblemInstance
    num_channels: int
    first_slots: dict[int, SlotRef]

    @property
    def average_delay(self) -> float:
        """Analytic AvgD of the program — zero for any valid SUSC output.

        Computed (not assumed) so SUSC satisfies the same
        :class:`~repro.engine.registry.ScheduleResult` protocol as every
        other scheduler.
        """
        from repro.core.delay import program_average_delay

        return program_average_delay(self.program, self.instance)

    @property
    def meta(self) -> dict:
        """Scheduler diagnostics (the ScheduleResult protocol's ``meta``)."""
        return {
            "scheduler": "susc",
            "num_channels": self.num_channels,
            "cycle_length": self.program.cycle_length,
            "occupancy": self.program.occupancy(),
        }


def schedule_susc(
    instance: ProblemInstance,
    num_channels: int | None = None,
    validate: bool = True,
) -> SuscSchedule:
    """Run SUSC and return a valid broadcast program.

    Args:
        instance: The groups to schedule (geometric expected-time ladder).
        num_channels: Channels to use.  Defaults to the Theorem-3.1 minimum;
            passing fewer raises :class:`InsufficientChannelsError` (use
            PAMAD for that regime), passing more simply leaves extra slack.
        validate: Re-check the two Section-3.1 conditions on the finished
            program (cheap; on by default as a safety net).

    Returns:
        A :class:`SuscSchedule` whose program satisfies every expected time.

    Raises:
        InsufficientChannelsError: If ``num_channels`` is below the bound.
        SchedulingError: If a placement invariant fails (indicates a bug —
            Theorems 3.2/3.3 exclude this under sufficient channels).
    """
    required = minimum_channels(instance)
    if num_channels is None:
        num_channels = required
    if num_channels < required:
        raise InsufficientChannelsError(
            provided=num_channels, required=required
        )

    from repro.core.fastpath import susc_fill_fast

    program, first_slots = susc_fill_fast(instance, num_channels)
    if validate:
        assert_valid_program(program, instance)
    return SuscSchedule(
        program=program,
        instance=instance,
        num_channels=num_channels,
        first_slots=first_slots,
    )
