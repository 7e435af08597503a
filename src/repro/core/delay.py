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
looping the scalar form, so no frequency search (Algorithm 3's staged
scan, the OPT branch-and-bound) pays a per-candidate Python objective
call; :func:`program_average_delay` is itself one such pass.
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


def _on_air_rows(
    program: BroadcastProgram,
    page_ids: Sequence[int],
    expected_times: Sequence[int],
) -> AppearanceIndex:
    """``program``'s appearance index re-rowed to ``page_ids``.

    A page with no appearances raises, matching the scalar models.
    """
    if len(page_ids) != len(expected_times):
        raise SimulationError(
            f"got {len(page_ids)} pages for {len(expected_times)} "
            "expected times"
        )
    index = AppearanceIndex.from_program(program, page_ids)
    off_air = np.flatnonzero(np.diff(index.offsets) == 0)
    if off_air.size:
        raise SimulationError(
            f"page {page_ids[int(off_air[0])]} does not appear in the "
            "program"
        )
    return index


def _excess_sums(
    index: AppearanceIndex, row_times: np.ndarray, power: int
) -> np.ndarray:
    """Per row of ``index``, ``sum max(gap - t, 0) ** power`` over its
    gaps, ``t`` the row's entry of ``row_times``: exact, in int64."""
    offsets = index.offsets
    excess = np.maximum(
        index.gaps - np.repeat(row_times, np.diff(offsets)), 0
    )
    sums = np.zeros(excess.shape[0] + 1, dtype=np.int64)
    np.cumsum(excess**power, out=sums[1:])
    return sums[offsets[1:]] - sums[offsets[:-1]]


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
    index = _on_air_rows(program, page_ids, expected_times)
    times = np.asarray(expected_times, dtype=np.int64)
    return _excess_sums(index, times, 2) / (2 * program.cycle_length)


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
    index = _on_air_rows(program, page_ids, expected_times)
    times = np.asarray(expected_times, dtype=np.int64)
    return _excess_sums(index, times, 1) / program.cycle_length


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

    One pass over the program's own appearance index: each page's
    delay is :func:`page_average_delay`'s float (an exact int64 sum,
    one division), and the weighted delays are summed by the builtin
    ``sum`` in page order, so the result equals the per-page loop
    (:func:`repro.oracles.program_average_delay_reference`) bit for bit.

    Raises:
        InvalidInstanceError: If a page of the instance is not on air,
            or the access probabilities do not sum to one.
    """
    probabilities = _resolve_probabilities(instance, access_probabilities)
    index = AppearanceIndex.from_program(program)
    page_ids = [page.page_id for page in instance.pages()]
    rows = index.rows_for(np.array(page_ids, dtype=np.int64))
    off_air = np.flatnonzero(rows < 0)
    if off_air.size:
        raise InvalidInstanceError(
            f"page {page_ids[off_air[0]]} does not appear in the program"
        )
    row_times = np.zeros(index.page_ids.shape[0], dtype=np.int64)
    row_times[rows] = np.repeat(instance.expected_times, instance.group_sizes)
    delays = _excess_sums(index, row_times, 2)[rows] / (
        2 * program.cycle_length
    )
    return sum(
        [
            probabilities[page_id] * delay
            for page_id, delay in zip(page_ids, delays.tolist())
        ]
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


def _batch_objective(
    frequency_rows: "np.ndarray | list",
    sizes: Sequence[int],
    times: Sequence[int],
    num_channels: int,
    group_terms,
) -> np.ndarray:
    """Sum every group's objective term, for many frequency vectors.

    ``group_terms(s, slots, cycle, weight, t)`` returns the terms as an
    ``(h, m)`` float64 array, from group-major operands: ``s`` holds the
    frequencies (group ``i`` of every vector in row ``i``), ``slots``
    and ``cycle`` each vector's ``F`` and Equation-8 cycle as a row,
    ``weight`` every ``S_i P_i / F``, and ``t`` the expected times as a
    column.  The sum is bit-identical to the scalar's: ``F`` and the
    cycle are exact in int64 (all quantities are far below 2**53, so the
    float64 conversions are exact too), every division is a correctly
    rounded quotient of exact integers like the scalar's ``int / int``,
    and the terms are added by an ordered fold over groups (``total =
    total + terms[i]``) — *not* ``np.sum``, whose pairwise reduction
    would round differently.
    """
    rows = np.asarray(frequency_rows, dtype=np.int64)
    _check_batch_rows(rows, sizes, times)
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    slots = rows @ sizes_arr
    cycle = -(-slots // num_channels)  # exact ceil, matches ceil_div
    s = np.ascontiguousarray(rows.T)
    slots_f = slots.astype(np.float64)[None, :]
    terms = group_terms(
        s.astype(np.float64),
        slots_f,
        cycle.astype(np.float64)[None, :],
        (s * sizes_arr[:, None]).astype(np.float64) / slots_f,
        np.asarray(times, dtype=np.float64)[:, None],
    )
    total = np.zeros(rows.shape[0], dtype=np.float64)
    for term in terms:
        total = total + term
    return total


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
    must reproduce the reference tie-breaks exactly), so every group's
    term runs the scalar's float operations in the scalar's order, over
    ``(h, m)`` arrays (see :func:`_batch_objective`).
    """
    return _batch_objective(
        frequency_rows, sizes, times, num_channels,
        lambda s, slots, cycle, weight, t: weight * (
            np.maximum(slots / (num_channels * s) - t, 0.0)
            * np.maximum((cycle / s - t) / 2.0, 0.0)
        ),
    )


def normalized_group_delay_batch(
    frequency_rows: "np.ndarray | list",
    sizes: Sequence[int],
    times: Sequence[int],
    num_channels: int,
) -> np.ndarray:
    """:func:`normalized_group_delay` for many frequency vectors at once.

    Same exactness recipe as :func:`paper_group_delay_batch`.  The
    scalar only accumulates groups whose excess is positive; adding an
    exact 0.0 for the others is the identical float sum, so a clamp
    reproduces the conditional.
    """

    def group_terms(s, slots, cycle, weight, t):
        gap = cycle / s
        excess = np.maximum(gap - t, 0.0)
        return np.where(
            excess > 0.0, weight * (excess * excess) / (2.0 * gap), 0.0
        )

    return _batch_objective(
        frequency_rows, sizes, times, num_channels, group_terms
    )


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
