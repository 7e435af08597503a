"""OPT — exhaustive frequency search (Section 5).

The paper's optimal comparator "exhaustively searches for a set of optimal
broadcast frequencies that incurs the minimum delay" (its searching time
being "unacceptably high" is the point of PAMAD).  Two searches live here:

* :func:`opt_frequencies` — a joint depth-first search over the staged
  frequency family PAMAD draws from (``S_i = prod(r_i..r_{h-1})``, each
  ``r`` bounded by Algorithm 3's loop bound).  Where PAMAD *commits* each
  ``r_{i-1}`` greedily stage by stage, OPT explores the full product space
  and minimises the final-stage objective — the exact "progressive vs
  exhaustive" comparison the evaluation makes.

* :func:`brute_force_frequencies` — a cap-bounded search over *arbitrary*
  frequency vectors ``S in {1..cap}^h`` (no product structure), feasible
  only for small instances.  Tests use it to confirm the staged family is
  not leaving delay on the table on small cases.

Both return the same :class:`~repro.core.frequencies.FrequencyAssignment`
shape as PAMAD, and :func:`schedule_opt` reuses PAMAD's Algorithm-4
placement, so the three systems differ only in frequency selection.

Both searches are branch-and-bound walks that return the *exact*
exhaustive result while visiting a fraction of the tree.  The exhaustive
staged walk is :func:`repro.oracles.opt_frequencies_exhaustive`; the
exhaustive product loop stays here, because a custom objective has no
analytic bound and needs it.  The bound exploits that the most relaxed
group ``G_h`` has ``S_h = 1``, so its Equation-2 term

``lb(F) = (P_h / F) * max(F/N - t_h, 0) * max((ceil(F/N) - t_h)/2, 0)``

depends only on the total slot count ``F`` — and is non-decreasing in
``F`` (real arithmetic: ``(F/N - t_h)/F = 1/N - t_h/F`` grows with
``F``, the ceil factor is monotone, the product of non-negative
monotone factors is monotone).  Every completion of a partial vector
has ``F >= F_min`` (all remaining multipliers at their minimum of 1),
so ``lb(F_min)`` under-estimates every leaf in the subtree.  The
reference only *accepts* a leaf when ``delay < best - 1e-12``; pruning
when ``lb(F_min)`` (shaved by a relative ``1e-12`` guard, orders of
magnitude wider than the few-ulp float error of the bound expression)
reaches ``best - 1e-12`` therefore cannot discard any leaf the
reference would have accepted, and candidate loops may *break* at the
first pruned candidate because ``F_min`` grows with the candidate.
Leaves that survive are evaluated in reference order through the
bit-identical batch kernel
:func:`repro.core.delay.paper_group_delay_batch`, so the
incumbent evolves exactly as in the reference walk — same minimum,
same tie-breaks, same returned vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.core.delay import (
    paper_group_delay,
    paper_group_delay_batch,
    program_average_delay,
)
from repro.core.errors import SearchSpaceError
from repro.core.frequencies import (
    FrequencyAssignment,
    frequencies_from_r,
    r_upper_bound,
)
from repro.core.pages import ProblemInstance
from repro.core.pamad import place_by_frequency
from repro.core.program import BroadcastProgram

__all__ = [
    "OptSchedule",
    "opt_frequencies",
    "brute_force_frequencies",
    "schedule_opt",
]


def _fixed_term(
    s_i: int, p_i: int, t_i: int, slots: int, num_channels: int
) -> float:
    """One group's Equation-2 contribution at slot count ``slots``.

    For a group whose frequency ``s_i`` is already fixed, the real-valued
    contribution is non-decreasing in the total slot count ``F``
    (``(s_i p_i / F)(F/(N s_i) - t_i) = p_i/N - s_i p_i t_i / F`` grows
    with ``F``; the clamped cycle factor is monotone; a product of
    non-negative monotone factors is monotone).  Evaluating at the
    subtree's minimal ``F`` therefore under-estimates every leaf's
    contribution.
    """
    weight = (s_i * p_i) / slots
    spacing_real = slots / (num_channels * s_i)
    spacing_cycle = (-(-slots // num_channels)) / s_i
    return weight * (
        max(spacing_real - t_i, 0.0)
        * max((spacing_cycle - t_i) / 2.0, 0.0)
    )


def _shave(bound: float) -> float:
    """Relative ``1e-12`` guard band for the analytic lower bounds.

    Orders of magnitude wider than the few-ulp (~1e-15 relative)
    disagreement possible between a bound expression and the scalar
    objective's float rounding, so a pruned subtree provably contains no
    leaf the reference's ``delay < best - 1e-12`` rule would accept.
    """
    return bound - bound * 1e-12


def _tail_lower_bound(
    slots_min: int, p_h: int, t_h: int, num_channels: int
) -> float:
    """Conservative lower bound on Equation (2) for any leaf with
    ``F >= slots_min`` — the ``S_h = 1`` group's contribution alone."""
    return _shave(_fixed_term(1, p_h, t_h, slots_min, num_channels))


def opt_frequencies(
    instance: ProblemInstance,
    num_channels: int,
    max_r: int | None = None,
) -> FrequencyAssignment:
    """Joint DFS over all staged ``r`` vectors, minimising final delay.

    The walk is a branch-and-bound with a memoised tail bound plus
    batch leaf evaluation.  It returns the *identical* assignment as the
    exhaustive walk (:func:`repro.oracles.opt_frequencies_exhaustive`),
    only faster; property tests pin the equality.

    Args:
        instance: The problem instance.
        num_channels: ``N_real``.
        max_r: Optional hard cap on each ``r`` (on top of Algorithm 3's
            bound) to keep worst-case runtime bounded; ``None`` searches
            the full per-stage bound.

    Returns:
        The delay-minimising :class:`FrequencyAssignment` (ties break
        toward the lexicographically smallest ``r`` vector — least
        bandwidth).
    """
    if num_channels <= 0:
        raise SearchSpaceError(
            f"num_channels must be positive, got {num_channels}"
        )
    sizes = instance.group_sizes
    times = instance.expected_times
    h = instance.h

    best_r: tuple[int, ...] = ()
    best_delay = math.inf

    lb_memo: dict[int, float] = {}
    p_h, t_h = sizes[-1], times[-1]

    def min_completion_slots(r_values: list[int]) -> int:
        """``F`` when every not-yet-chosen multiplier is 1 — the minimum
        over the subtree, since frequencies only grow with each ``r``."""
        padded = r_values + [1] * (h - 1 - len(r_values))
        frequencies = frequencies_from_r(padded, h)
        return sum(s * p for s, p in zip(frequencies, sizes))

    def subtree_bound(r_values: list[int]) -> float:
        slots_min = min_completion_slots(r_values)
        cached = lb_memo.get(slots_min)
        if cached is None:
            cached = _tail_lower_bound(
                slots_min, p_h, t_h, num_channels
            )
            lb_memo[slots_min] = cached
        return cached

    def flush(rows: list, labels: list) -> None:
        """Batch-evaluate collected leaves, scanning in reference order.

        Tiny batches go through the scalar objective directly — below a
        dozen rows the numpy call setup costs more than it saves, and
        the scalar IS the reference, so bit-identity is trivial.
        """
        nonlocal best_r, best_delay
        if not rows:
            return
        if len(rows) < 16:
            delays = [
                paper_group_delay(row, sizes, times, num_channels)
                for row in rows
            ]
        else:
            delays = paper_group_delay_batch(
                rows, sizes, times, num_channels
            )
        for label, delay in zip(labels, delays):
            if delay < best_delay - 1e-12:
                best_delay = float(delay)
                best_r = label

    def descend(r_values: list[int], stage: int) -> None:
        nonlocal best_r, best_delay
        bound = r_upper_bound(r_values, stage, sizes, times, num_channels)
        if max_r is not None:
            bound = min(bound, max_r)
        if stage == h:
            # Last stage (only reached directly when h == 2): every
            # candidate is a leaf — one batch, scanned in order.
            flush(
                [
                    frequencies_from_r(r_values + [c], h)
                    for c in range(1, bound + 1)
                ],
                [tuple(r_values) + (c,) for c in range(1, bound + 1)],
            )
            return
        if stage == h - 1:
            # Penultimate stage: bound-check each candidate, then gather
            # all surviving final-stage leaves into ONE batch.  The
            # incumbent is only refreshed after the flush — pruning with
            # the slightly stale (never smaller) best is conservative,
            # so the scan still reproduces the reference walk exactly.
            rows: list = []
            labels: list = []
            for candidate in range(1, bound + 1):
                r_values.append(candidate)
                if subtree_bound(r_values) >= best_delay - 1e-12:
                    r_values.pop()
                    break
                inner = r_upper_bound(
                    r_values, h, sizes, times, num_channels
                )
                if max_r is not None:
                    inner = min(inner, max_r)
                prefix = tuple(r_values)
                for c2 in range(1, inner + 1):
                    rows.append(frequencies_from_r(r_values + [c2], h))
                    labels.append(prefix + (c2,))
                r_values.pop()
            flush(rows, labels)
            return
        for candidate in range(1, bound + 1):
            r_values.append(candidate)
            if subtree_bound(r_values) >= best_delay - 1e-12:
                # F_min grows with the candidate, so later candidates
                # bound at least as high: stop the whole loop.
                r_values.pop()
                break
            descend(r_values, stage + 1)
            r_values.pop()

    if h == 1:
        best_r = ()
        best_delay = paper_group_delay(
            frequencies_from_r([], h), sizes, times, num_channels
        )
    else:
        descend([], 2)

    frequencies = frequencies_from_r(list(best_r), h)
    return FrequencyAssignment(
        frequencies=frequencies,
        r_values=best_r,
        num_channels=num_channels,
        stage_delays=(),
        predicted_delay=best_delay,
    )


def brute_force_frequencies(
    instance: ProblemInstance,
    num_channels: int,
    cap: int = 8,
    objective=paper_group_delay,
) -> FrequencyAssignment:
    """Search *arbitrary* frequency vectors ``S in {1..cap}^h``.

    Exponential in ``h`` — intended for instances with ``h <= 4`` in tests
    and the ABL1 ablation.  ``S_h`` is pinned to 1 (broadcasting the most
    relaxed group more than once per cycle only inflates the cycle, and any
    uniform scaling of ``S`` represents the same program family).

    Equation (2) is searched by branch-and-bound plus batch evaluation,
    returning the exact exhaustive result.  The analytic tail bound is
    specific to Equation (2), so any other ``objective`` takes the
    exhaustive loop.

    Args:
        instance: The problem instance (small!).
        num_channels: ``N_real``.
        cap: Upper bound per frequency.
        objective: Delay functional ``f(S, P, t, N) -> float``; defaults to
            the paper-literal Equation (2).

    Raises:
        SearchSpaceError: If the search space exceeds ~2 million vectors.
    """
    h = instance.h
    space = cap ** (h - 1)
    if space > 2_000_000:
        raise SearchSpaceError(
            f"brute force over cap={cap}, h={h} would evaluate {space} "
            "vectors; reduce the instance or the cap"
        )
    sizes = instance.group_sizes
    times = instance.expected_times

    if objective is paper_group_delay and h > 1:
        return _brute_force_pruned(instance, num_channels, cap)

    best: tuple[int, ...] | None = None
    best_delay = math.inf
    for prefix in itertools.product(range(1, cap + 1), repeat=h - 1):
        frequencies = (*prefix, 1)
        delay = objective(frequencies, sizes, times, num_channels)
        if delay < best_delay - 1e-12:
            best, best_delay = frequencies, delay
    assert best is not None  # at least (1, ..., 1) was evaluated
    return FrequencyAssignment(
        frequencies=best,
        r_values=(),
        num_channels=num_channels,
        stage_delays=(),
        predicted_delay=best_delay,
    )


def _brute_force_pruned(
    instance: ProblemInstance, num_channels: int, cap: int
) -> FrequencyAssignment:
    """Branch-and-bound twin of the exhaustive product walk.

    Explores prefixes depth-first in the same lexicographic order as
    ``itertools.product``, bounds each prefix subtree by the memoised
    Equation-2 tail bound at the subtree's minimum slot count, and
    evaluates the innermost position as one bit-identical batch — the
    incumbent therefore evolves exactly as in the exhaustive scan.
    """
    h = instance.h
    sizes = instance.group_sizes
    times = instance.expected_times
    p_h, t_h = sizes[-1], times[-1]

    best: tuple[int, ...] | None = None
    best_delay = math.inf

    # Choosing 1 for every open position minimises F over a subtree;
    # suffix_min[i] = sum of sizes of groups i.. with frequency 1.
    suffix_min = [0] * (h + 1)
    for i in range(h - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + sizes[i]

    def prefix_bound(prefix: list[int], slots_min: int) -> float:
        """Lower bound from every already-fixed frequency plus ``G_h``.

        Each fixed group's contribution is monotone in ``F`` (see
        :func:`_fixed_term`), a left-to-right float sum of non-negative
        terms never exceeds the same sum with extra terms interleaved,
        and the shave absorbs ulp-level rounding — so this stays below
        every leaf delay in the subtree.
        """
        total = _fixed_term(1, p_h, t_h, slots_min, num_channels)
        for i, s_i in enumerate(prefix):
            total += _fixed_term(
                s_i, sizes[i], times[i], slots_min, num_channels
            )
        return _shave(total)

    def walk(prefix: list[int], slots_so_far: int, position: int) -> None:
        nonlocal best, best_delay
        if position == h - 2:
            # Innermost free position: the reference evaluates candidates
            # 1..cap in order; one batch reproduces that scan exactly
            # (scalar below the numpy break-even, same rationale as the
            # staged search's flush).
            rows = [(*prefix, c, 1) for c in range(1, cap + 1)]
            if cap < 16:
                delays = [
                    paper_group_delay(row, sizes, times, num_channels)
                    for row in rows
                ]
            else:
                delays = paper_group_delay_batch(
                    rows, sizes, times, num_channels
                )
            for row, delay in zip(rows, delays):
                if delay < best_delay - 1e-12:
                    best, best_delay = tuple(row), float(delay)
            return
        for candidate in range(1, cap + 1):
            slots = slots_so_far + candidate * sizes[position]
            slots_min = slots + suffix_min[position + 1]
            # Break on the candidate-monotone part of the bound (the
            # candidate's own term is NOT monotone in the candidate —
            # its weight dilutes as F grows — so it may only veto this
            # one subtree, not the rest of the loop).
            if prefix_bound(prefix, slots_min) >= best_delay - 1e-12:
                break
            own = _shave(
                _fixed_term(
                    candidate,
                    sizes[position],
                    times[position],
                    slots_min,
                    num_channels,
                )
            )
            if own >= best_delay - 1e-12:
                continue
            prefix.append(candidate)
            walk(prefix, slots, position + 1)
            prefix.pop()

    walk([], 0, 0)
    assert best is not None
    return FrequencyAssignment(
        frequencies=best,
        r_values=(),
        num_channels=num_channels,
        stage_delays=(),
        predicted_delay=best_delay,
    )


@dataclass(frozen=True)
class OptSchedule:
    """Output of the OPT baseline (search + Algorithm-4 placement)."""

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
            "scheduler": "opt",
            "num_channels": self.num_channels,
            "frequencies": list(self.assignment.frequencies),
            "predicted_delay": self.assignment.predicted_delay,
            "window_misses": self.window_misses,
        }


def schedule_opt(
    instance: ProblemInstance,
    num_channels: int,
    max_r: int | None = None,
) -> OptSchedule:
    """Run the OPT baseline end to end.

    Args:
        instance: The problem instance.
        num_channels: ``N_real``.
        max_r: Optional per-stage cap forwarded to :func:`opt_frequencies`.
    """
    assignment = opt_frequencies(instance, num_channels, max_r=max_r)
    placement = place_by_frequency(
        instance, assignment.frequencies, num_channels
    )
    return OptSchedule(
        program=placement.program,
        instance=instance,
        num_channels=num_channels,
        assignment=assignment,
        window_misses=placement.window_misses,
        average_delay=program_average_delay(placement.program, instance),
    )
