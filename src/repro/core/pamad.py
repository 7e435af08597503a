"""PAMAD — Progressively Approaching Minimum Average Delay (Section 4).

The full PAMAD pipeline:

1. derive per-group broadcast frequencies ``S_i`` with the staged search of
   Algorithm 3 (:mod:`repro.core.frequencies`);
2. compute the major-cycle length ``t_major = ceil(sum S_i P_i / N_real)``
   (Equation 8);
3. place every page of group ``G_i`` exactly ``S_i`` times, evenly spread:
   the ``k``-th copy goes into the column window
   ``[ceil(t_major (k-1) / S_i), ceil(t_major k / S_i))`` (0-based), taking
   the first free channel in the earliest free column that does not
   already air the page (Algorithm 4).

The even-spread placement (step 3) is shared verbatim by the m-PB and OPT
baselines — the paper fixes the placement and varies only the frequencies,
which keeps the comparison about frequency selection.

Algorithm 4's window search can exhaust its window when earlier groups
packed those columns solid; the paper argues a free slot always exists
because the cycle was sized to hold everything, which is true *globally*
but not per window.  :func:`place_by_frequency` therefore falls back to a
cyclic scan from the window start and counts how often that happened
(``window_misses``) so the effect is observable instead of silent.
Even spreading assumes each copy gets its own column — a second copy
in a column that already airs the page serves no listener — so both
scans skip such columns.  Only when every free column left already airs
the page does a copy share one (the first cyclically from its window
start); fresh placement keeps it, so every page still airs exactly
``S_i`` times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.delay import program_average_delay
from repro.core.frequencies import FrequencyAssignment, pamad_frequencies
from repro.core.pages import ProblemInstance
from repro.core.program import BroadcastProgram

__all__ = [
    "PlacementResult",
    "place_by_frequency",
    "place_sequential",
    "PamadSchedule",
    "schedule_pamad",
]


@dataclass(frozen=True)
class PlacementResult:
    """A placed program plus placement diagnostics.

    Attributes:
        program: The generated broadcast program.
        window_misses: Number of copies whose Algorithm-4 window was full
            and that were placed by the cyclic fallback scan instead.
    """

    program: BroadcastProgram
    window_misses: int


def place_by_frequency(
    instance: ProblemInstance,
    frequencies: Sequence[int],
    num_channels: int,
) -> PlacementResult:
    """Algorithm 4: evenly spread every page per its group frequency.

    Runs on the array kernel of :mod:`repro.core.fastpath`; property
    tests pin it to the literal cell-by-cell scan,
    :func:`repro.oracles.place_by_frequency_reference` (identical
    programs and miss counts).

    Args:
        instance: Pages and groups to place.
        frequencies: ``(S_1..S_h)`` copies per cycle for each group's pages.
        num_channels: ``N_real`` rows of the program grid.

    Returns:
        A :class:`PlacementResult`; the program's cycle length follows
        Equation (8).

    Raises:
        SearchSpaceError: If the frequency vector is malformed.
        SchedulingError: If the grid genuinely cannot hold all copies
            (impossible when the cycle length follows Equation 8, kept as a
            hard invariant).
    """
    from repro.core.fastpath import place_by_frequency_fast

    program, window_misses = place_by_frequency_fast(
        instance, frequencies, num_channels
    )
    return PlacementResult(program=program, window_misses=window_misses)


def place_sequential(
    instance: ProblemInstance,
    frequencies: Sequence[int],
    num_channels: int,
) -> PlacementResult:
    """Naive placement: fill the grid left to right, no even spreading.

    Same frequencies and cycle length as Algorithm 4 but copies of a page
    are packed into the earliest free cells instead of being spread over
    the cycle.  This is the ABL3 ablation's strawman — it isolates how much
    of PAMAD's AvgD comes from *where* copies land rather than *how many*
    there are.  Runs on the array kernel; the literal scan is
    :func:`repro.oracles.place_sequential_reference`.
    """
    from repro.core.fastpath import place_sequential_fast

    program, _ = place_sequential_fast(instance, frequencies, num_channels)
    return PlacementResult(program=program, window_misses=0)


@dataclass(frozen=True)
class PamadSchedule:
    """The complete output of the PAMAD pipeline.

    Attributes:
        program: The generated broadcast program.
        instance: The scheduled instance.
        num_channels: ``N_real`` used.
        assignment: The frequency derivation (Algorithm 3 trace included).
        window_misses: Algorithm-4 fallback count (see module docstring).
        average_delay: Analytic AvgD of the *generated* program (exact
            per-gap model — the measured quantity, not the search
            objective).
    """

    program: BroadcastProgram
    instance: ProblemInstance
    num_channels: int
    assignment: FrequencyAssignment
    window_misses: int
    average_delay: float

    @property
    def meta(self) -> dict:
        """Scheduler diagnostics (the ScheduleResult protocol's ``meta``)."""
        return {
            "scheduler": "pamad",
            "num_channels": self.num_channels,
            "frequencies": list(self.assignment.frequencies),
            "predicted_delay": self.assignment.predicted_delay,
            "window_misses": self.window_misses,
        }


def schedule_pamad(
    instance: ProblemInstance,
    num_channels: int,
    objective=None,
) -> PamadSchedule:
    """Run the full PAMAD pipeline (Algorithms 3 + 4).

    Works for any positive channel count; with sufficient channels the
    staged search picks frequencies with zero predicted delay, so PAMAD
    degrades gracefully into a (near-)valid program.

    Args:
        instance: The problem instance.
        num_channels: Channels actually available (``N_real``).
        objective: Optional stage objective override (see
            :func:`repro.core.frequencies.pamad_frequencies`).

    Returns:
        A :class:`PamadSchedule` with program, frequencies and measured
        average delay.
    """
    if objective is None:
        assignment = pamad_frequencies(instance, num_channels)
    else:
        assignment = pamad_frequencies(
            instance, num_channels, objective=objective
        )
    placement = place_by_frequency(
        instance, assignment.frequencies, num_channels
    )
    average_delay = program_average_delay(placement.program, instance)
    return PamadSchedule(
        program=placement.program,
        instance=instance,
        num_channels=num_channels,
        assignment=assignment,
        window_misses=placement.window_misses,
        average_delay=average_delay,
    )
