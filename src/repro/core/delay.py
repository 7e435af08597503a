"""Average-delay models (Sections 4.1-4.3).

The paper defines *average delay* (AvgD) as the time a client waits
**beyond the expected time** of the page it wants, averaged over pages
(weighted by access probability) and over arrival instants (uniform over
the major cycle).

Three related models live here:

* :func:`page_average_delay` / :func:`program_average_delay` — the *exact
  measurement* model for a concrete program: for a page with cyclic gaps
  ``g`` and expected time ``t`` in a cycle of length ``T``, a uniformly
  arriving client suffers expected excess wait ``sum max(g - t, 0)^2 / (2T)``.
  This is what the Monte-Carlo client simulator converges to, and it is the
  AvgD reported in the Figure-5 reproduction.

* :func:`paper_group_delay` — the staged *objective* of PAMAD/OPT,
  Equation (2) taken literally: the paper's Eqs. (2)/(3)/(5)/(7) drop the
  ``1/gap`` normalisation of Section 4.1, and we verified numerically that
  the literal form reproduces the worked example of Figure 2(b)
  (``D'_2 = 0.12 / 0``, ``D'_3 = 0.15 / 0.04``).  PAMAD and OPT therefore
  optimise this exact expression.

* :func:`normalized_group_delay` — the Section-4.1-faithful variant (with
  the ``1/gap`` factor kept), used by the ABL2 ablation to quantify how
  much the paper's simplification changes the chosen frequencies.

Each model also has a *batch* entry point (``*_batch``) that evaluates
many pages or many frequency vectors in one numpy pass, bit-identical to
looping the scalar form.  The frequency searches (Algorithm 3's staged
scan, the OPT branch-and-bound) and the sweep analysis call the batch
kernels so no hot path pays a per-candidate Python objective call.
The batch kernels are plain numpy, and the only implementation the
searches and the serving layer run.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.core.errors import InvalidInstanceError, SimulationError
from repro.core.intmath import ceil_div
from repro.core.pages import ProblemInstance
from repro.core.program import AppearanceIndex, BroadcastProgram

__all__ = [
    "page_average_delay",
    "page_average_wait",
    "page_miss_probability",
    "page_average_delay_batch",
    "page_miss_probability_batch",
    "program_average_delay",
    "program_average_wait",
    "program_miss_probability",
    "paper_group_delay",
    "paper_group_delay_batch",
    "normalized_group_delay",
    "normalized_group_delay_batch",
    "even_spread_page_delay",
    "uniform_access_probabilities",
]


# ----------------------------------------------------------------------
# Exact measurement model for concrete programs
# ----------------------------------------------------------------------


def page_average_delay(
    program: BroadcastProgram, page_id: int, expected_time: int
) -> float:
    """Expected excess wait for one page under uniform arrivals.

    For a client arriving uniformly in the cycle, conditioning on the gap
    it lands in: landing probability ``g/T``, excess wait beyond ``t``
    given the gap is ``max(g - t, 0)^2 / (2g)``; summing gives
    ``sum_g max(g - t, 0)^2 / (2T)``.
    """
    cycle = program.cycle_length
    total = 0.0
    for gap in program.cyclic_gaps(page_id):
        excess = gap - expected_time
        if excess > 0:
            total += excess * excess
    return total / (2 * cycle)


def page_average_wait(program: BroadcastProgram, page_id: int) -> float:
    """Expected *total* wait (not just excess) for one page.

    The classic broadcast-disk access-time quantity
    ``sum g^2 / (2T)``; reported alongside AvgD for context.
    """
    cycle = program.cycle_length
    return sum(g * g for g in program.cyclic_gaps(page_id)) / (2 * cycle)


def page_miss_probability(
    program: BroadcastProgram, page_id: int, expected_time: int
) -> float:
    """Probability a uniformly-arriving client misses the expected time.

    The client waits longer than ``t`` exactly when it lands in the first
    ``g - t`` units of a gap ``g > t``: probability ``sum max(g-t,0) / T``.
    """
    cycle = program.cycle_length
    return (
        sum(
            max(g - expected_time, 0)
            for g in program.cyclic_gaps(page_id)
        )
        / cycle
    )


def _packed_cyclic_gaps(
    program: BroadcastProgram, page_ids: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """All pages' int64 cyclic gaps back to back, plus row offsets.

    Page ``i``'s gaps are ``gaps[starts[i]:starts[i + 1]]`` (the
    program's appearance index re-rowed to ``page_ids``); a page with
    no appearances raises, matching the scalar models.
    """
    index = AppearanceIndex.from_program(program, page_ids)
    off_air = np.flatnonzero(np.diff(index.offsets) == 0)
    if off_air.size:
        raise SimulationError(
            f"page {page_ids[int(off_air[0])]} does not appear in the "
            "program"
        )
    return index.gaps, index.offsets


def page_average_delay_batch(
    program: BroadcastProgram,
    page_ids: Sequence[int],
    expected_times: Sequence[int],
) -> np.ndarray:
    """:func:`page_average_delay` for many pages in one numpy pass.

    Exactly equal to the scalar per page: gaps and expected times are
    integers, so the squared-excess accumulation runs in int64 (exact,
    like the scalar's Python-int accumulator) and only the final
    ``/ (2 * cycle)`` division produces a float — the same correctly
    rounded quotient the scalar computes.
    """
    if len(page_ids) != len(expected_times):
        raise SimulationError(
            f"got {len(page_ids)} pages for {len(expected_times)} "
            "expected times"
        )
    if not page_ids:
        return np.empty(0, dtype=np.float64)
    gaps, starts = _packed_cyclic_gaps(program, page_ids)
    counts = np.diff(starts)
    expected = np.repeat(
        np.asarray(expected_times, dtype=np.int64), counts
    )
    excess = np.maximum(gaps - expected, 0)
    sums = np.add.reduceat(excess * excess, starts[:-1])
    return sums / (2 * program.cycle_length)


def page_miss_probability_batch(
    program: BroadcastProgram,
    page_ids: Sequence[int],
    expected_times: Sequence[int],
) -> np.ndarray:
    """:func:`page_miss_probability` for many pages in one numpy pass.

    Same exactness argument as :func:`page_average_delay_batch`: the
    clamped-excess sum is integer-exact, the single division matches the
    scalar's ``int / int``.
    """
    if len(page_ids) != len(expected_times):
        raise SimulationError(
            f"got {len(page_ids)} pages for {len(expected_times)} "
            "expected times"
        )
    if not page_ids:
        return np.empty(0, dtype=np.float64)
    gaps, starts = _packed_cyclic_gaps(program, page_ids)
    counts = np.diff(starts)
    expected = np.repeat(
        np.asarray(expected_times, dtype=np.int64), counts
    )
    excess = np.maximum(gaps - expected, 0)
    sums = np.add.reduceat(excess, starts[:-1])
    return sums / program.cycle_length


def uniform_access_probabilities(
    instance: ProblemInstance,
) -> dict[int, float]:
    """The paper's default client model: every page equally likely (1/n)."""
    probability = 1.0 / instance.n
    return {page.page_id: probability for page in instance.pages()}


def _resolve_probabilities(
    instance: ProblemInstance,
    access_probabilities: Mapping[int, float] | None,
) -> Mapping[int, float]:
    if access_probabilities is None:
        return uniform_access_probabilities(instance)
    total = sum(access_probabilities.values())
    if not math.isclose(total, 1.0, rel_tol=1e-6):
        raise InvalidInstanceError(
            f"access probabilities sum to {total}, expected 1.0"
        )
    return access_probabilities


def program_average_delay(
    program: BroadcastProgram,
    instance: ProblemInstance,
    access_probabilities: Mapping[int, float] | None = None,
) -> float:
    """AvgD of a concrete program: access-probability-weighted excess wait.

    This is the evaluation metric of Section 5.  Defaults to the paper's
    uniform access model; pass explicit probabilities (e.g. Zipf from
    :mod:`repro.workload.requests`) for the EXT3 extension.
    """
    probabilities = _resolve_probabilities(instance, access_probabilities)
    return sum(
        probabilities[page.page_id]
        * page_average_delay(program, page.page_id, page.expected_time)
        for page in instance.pages()
    )


def program_average_wait(
    program: BroadcastProgram,
    instance: ProblemInstance,
    access_probabilities: Mapping[int, float] | None = None,
) -> float:
    """Expected total wait of a concrete program (broadcast access time)."""
    probabilities = _resolve_probabilities(instance, access_probabilities)
    return sum(
        probabilities[page.page_id]
        * page_average_wait(program, page.page_id)
        for page in instance.pages()
    )


def program_miss_probability(
    program: BroadcastProgram,
    instance: ProblemInstance,
    access_probabilities: Mapping[int, float] | None = None,
) -> float:
    """Probability a random request misses its expected time."""
    probabilities = _resolve_probabilities(instance, access_probabilities)
    return sum(
        probabilities[page.page_id]
        * page_miss_probability(
            program, page.page_id, page.expected_time
        )
        for page in instance.pages()
    )


# ----------------------------------------------------------------------
# Paper objective (Equation 2, literal) and its normalised variant
# ----------------------------------------------------------------------


def _check_vectors(
    frequencies: Sequence[float],
    sizes: Sequence[int],
    times: Sequence[int],
    num_channels: int,
) -> None:
    if not (len(frequencies) == len(sizes) == len(times)):
        raise InvalidInstanceError(
            f"vector lengths differ: S={len(frequencies)}, "
            f"P={len(sizes)}, t={len(times)}"
        )
    if not frequencies:
        raise InvalidInstanceError("empty frequency vector")
    if num_channels <= 0:
        raise InvalidInstanceError(
            f"num_channels must be positive, got {num_channels}"
        )
    for s in frequencies:
        if s < 1:
            raise InvalidInstanceError(
                f"broadcast frequencies must be >= 1, got {list(frequencies)}"
            )


def _ceil_cycle(slots: float, num_channels: int) -> int:
    """Equation (8) cycle length; exact for integer slot counts.

    Frequencies are normally integers, making ``slots`` an int and the
    ceiling exact at any magnitude; fractional frequency vectors (allowed
    by the objective signatures) fall back to the float ceiling.
    """
    if isinstance(slots, int):
        return ceil_div(slots, num_channels)
    return math.ceil(slots / num_channels)


def paper_group_delay(
    frequencies: Sequence[float],
    sizes: Sequence[int],
    times: Sequence[int],
    num_channels: int,
    cycle_length: int | None = None,
) -> float:
    """Average group delay ``D'`` per the paper's Equation (2), literally.

    ``D' = sum_i (S_i P_i / F) * max((F / (N_real S_i) - t_i)
    * ((t_major / S_i - t_i) / 2), 0)`` with ``F = sum S_i P_i`` and
    ``t_major = ceil(F / N_real)`` unless an explicit cycle length is given
    (the staged PAMAD search evaluates truncated prefixes with their own
    stage cycles).

    Note the literal Eq. (2) form multiplies two ``gap - t`` factors without
    re-normalising by the gap; this matches the paper's worked Figure 2(b)
    numbers exactly (see module docstring) and is what PAMAD/OPT minimise.
    """
    _check_vectors(frequencies, sizes, times, num_channels)
    slots = sum(s * p for s, p in zip(frequencies, sizes))
    if cycle_length is None:
        cycle_length = _ceil_cycle(slots, num_channels)
    total = 0.0
    for s_i, p_i, t_i in zip(frequencies, sizes, times):
        weight = (s_i * p_i) / slots
        spacing_real = slots / (num_channels * s_i)
        spacing_cycle = cycle_length / s_i
        # A group whose spacing fits within t_i contributes no delay; the
        # max() must clamp each (spacing - t_i) factor, otherwise two
        # negative factors would multiply into a bogus positive delay.
        term = max(spacing_real - t_i, 0.0) * max(
            (spacing_cycle - t_i) / 2.0, 0.0
        )
        total += weight * term
    return total


def normalized_group_delay(
    frequencies: Sequence[float],
    sizes: Sequence[int],
    times: Sequence[int],
    num_channels: int,
    cycle_length: int | None = None,
) -> float:
    """Section-4.1-faithful variant of :func:`paper_group_delay`.

    Keeps the ``1/gap`` normalisation the staged equations drop:
    per group, expected excess wait is ``max(gap - t, 0)^2 / (2 gap)`` with
    ``gap = t_major / S_i``.  Used by the ABL2 ablation.
    """
    _check_vectors(frequencies, sizes, times, num_channels)
    slots = sum(s * p for s, p in zip(frequencies, sizes))
    if cycle_length is None:
        cycle_length = _ceil_cycle(slots, num_channels)
    total = 0.0
    for s_i, p_i, t_i in zip(frequencies, sizes, times):
        weight = (s_i * p_i) / slots
        gap = cycle_length / s_i
        excess = gap - t_i
        if excess > 0:
            total += weight * (excess * excess) / (2.0 * gap)
    return total


def _check_batch_rows(
    rows: np.ndarray,
    sizes: Sequence[int],
    times: Sequence[int],
) -> None:
    if rows.ndim != 2:
        raise SimulationError(
            f"frequency_rows must be 2-D (m, h), got shape {rows.shape}"
        )
    h = rows.shape[1]
    if h != len(sizes) or h != len(times):
        raise SimulationError(
            f"vector lengths differ: S rows have {h}, P={len(sizes)}, "
            f"t={len(times)}"
        )


def paper_group_delay_batch(
    frequency_rows: "np.ndarray | list",
    sizes: Sequence[int],
    times: Sequence[int],
    num_channels: int,
) -> np.ndarray:
    """Equation (2) for many frequency vectors at once, bit-identical.

    Evaluates :func:`paper_group_delay` for every row of
    ``frequency_rows`` (shape ``(m, h)``, integer frequencies ``>= 1``)
    and returns the ``m`` delays.  The frequency searches call this on
    whole candidate batches instead of looping the scalar objective.

    Bit-identity with the scalar is load-bearing (the pruned searches
    must reproduce the reference tie-breaks exactly), so the kernel
    mirrors the scalar's float operation sequence:

    * ``slots`` and the Equation-8 cycle stay in int64 (exact — the
      scalar uses Python ints; all quantities here are far below 2**53,
      so int64 -> float64 conversions are exact too);
    * every division matches a scalar ``int / int`` (both correctly
      rounded quotients of exactly-represented integers);
    * the per-group accumulation runs as an ordered Python loop over
      groups (``total = total + weight * term`` elementwise), matching
      the scalar's left-to-right sum — *not* ``np.sum``, whose pairwise
      reduction would round differently.
    """
    rows = np.asarray(frequency_rows, dtype=np.int64)
    _check_batch_rows(rows, sizes, times)
    h = rows.shape[1]
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    slots = rows @ sizes_arr  # exact int64
    cycle = -(-slots // num_channels)  # exact ceil, matches ceil_div
    slots_f = slots.astype(np.float64)
    total = np.zeros(rows.shape[0], dtype=np.float64)
    for i in range(h):
        s_i = rows[:, i]
        weight = (s_i * int(sizes[i])).astype(np.float64) / slots_f
        spacing_real = slots_f / (num_channels * s_i).astype(np.float64)
        spacing_cycle = cycle.astype(np.float64) / s_i.astype(np.float64)
        term = np.maximum(spacing_real - times[i], 0.0) * np.maximum(
            (spacing_cycle - times[i]) / 2.0, 0.0
        )
        total = total + weight * term
    return total


def normalized_group_delay_batch(
    frequency_rows: "np.ndarray | list",
    sizes: Sequence[int],
    times: Sequence[int],
    num_channels: int,
) -> np.ndarray:
    """:func:`normalized_group_delay` for many frequency vectors at once.

    Same exactness recipe as :func:`paper_group_delay_batch` (int64
    slots/cycle, scalar-matching division order, ordered per-group
    accumulation).  The scalar only accumulates groups whose excess is
    positive; adding an exact 0.0 for the others is the identical float
    sum, so a clamp reproduces the conditional.
    """
    rows = np.asarray(frequency_rows, dtype=np.int64)
    _check_batch_rows(rows, sizes, times)
    h = rows.shape[1]
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    slots = rows @ sizes_arr
    cycle = -(-slots // num_channels)
    slots_f = slots.astype(np.float64)
    cycle_f = cycle.astype(np.float64)
    total = np.zeros(rows.shape[0], dtype=np.float64)
    for i in range(h):
        s_i = rows[:, i]
        weight = (s_i * int(sizes[i])).astype(np.float64) / slots_f
        gap = cycle_f / s_i.astype(np.float64)
        excess = np.maximum(gap - times[i], 0.0)
        total = total + np.where(
            excess > 0.0,
            weight * (excess * excess) / (2.0 * gap),
            0.0,
        )
    return total


def even_spread_page_delay(
    cycle_length: int, frequency: int, expected_time: int
) -> float:
    """Section 4.2 single-page delay under perfectly even spreading.

    With ``s`` evenly spread appearances in a cycle ``t_major``, every gap
    is ``floor(t_major / s)`` and the per-page average delay is
    ``max(floor(t_major/s) - t, 0)^2 / (2 floor(t_major/s))``.
    """
    if frequency < 1:
        raise InvalidInstanceError(
            f"frequency must be >= 1, got {frequency}"
        )
    gap = cycle_length // frequency
    if gap <= 0:
        return 0.0
    excess = gap - expected_time
    if excess <= 0:
        return 0.0
    return (excess * excess) / (2.0 * gap)
