"""OPT — exhaustive frequency search (Section 5).

The paper's optimal comparator "exhaustively searches for a set of optimal
broadcast frequencies that incurs the minimum delay" (its searching time
being "unacceptably high" is the point of PAMAD).  Two searches live here:

* :func:`opt_frequencies` — a joint search over the staged frequency
  family PAMAD draws from (``S_i = prod(r_i..r_{h-1})``, each ``r``
  bounded by Algorithm 3's loop bound).  Where PAMAD *commits* each
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

Both searches return the *exact* exhaustive result while evaluating a
fraction of the leaves.  The exhaustive staged walk is
:func:`repro.oracles.opt_frequencies_exhaustive`: it visits every ``r``
vector in lexicographic order and accepts a leaf only when ``delay <
best - 1e-12``.  The exhaustive product loop stays here, because a custom
objective has no analytic bound and needs it.

The staged search is a *block* search.  A block is a run of consecutive
nodes of one stage, in lexicographic order, held as int64 arrays: each
node's slot count ``F`` and its ``r`` prefix.  Expanding a block one stage
is closed-form arithmetic: a node's candidates are ``1..b`` with
Algorithm 3's bound ``b = max(1, ceil((N t_k - P_k) / F))`` (capped by
``max_r``), and a child's slot count is ``c F + P_k``.  Children come out
in lexicographic order, each parent's candidates ascending; the last
stage's children are leaves, whose frequency rows are the reverse
``cumprod`` of their ``r`` rows, evaluated by one call of the
bit-identical :func:`repro.core.delay.paper_group_delay_batch` and
scanned in order with the reference's acceptance rule.

Pruning uses that the most relaxed group ``G_h`` has ``S_h = 1``, so its
Equation-2 term

``lb(F) = (P_h / F) * max(F/N - t_h, 0) * max((ceil(F/N) - t_h)/2, 0)``

depends only on the total slot count ``F`` — and is non-decreasing in
``F`` (real arithmetic: ``(F/N - t_h)/F = 1/N - t_h/F`` grows with
``F``, the ceil factor is monotone, the product of non-negative
monotone factors is monotone).  Every leaf below a node has ``F >= F +
P_{k+1} + ... + P_h`` (all later multipliers at their minimum of 1), so
``lb`` there, shaved by a relative ``1e-12`` guard (orders of magnitude
wider than the few-ulp float error of the bound expression),
under-estimates every leaf delay below the node.  A node whose bound
reaches ``best - 1e-12`` for an incumbent ``best`` the reference has
already held — the current one or any earlier, larger one — therefore
roots no leaf the reference would accept, and dropping it cannot change
the sequence of accepted leaves: same minimum, same tie-breaks, same
returned vector.  The bound grows with the candidate, so each parent
keeps a prefix of its candidates.

No block holds more than :data:`BLOCK_ROWS` rows.  The kept children of
a block form the next stage; when they outnumber the budget they are cut
into consecutive blocks, searched depth first one after another, and
each is re-masked with the incumbent the blocks before it left — so
pruning uses the freshest incumbent between blocks, while a block's own
stages share one.  (A block's candidate arrays, before the mask, hold
its rows times their Algorithm-3 bound.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.core.delay import (
    paper_group_delay,
    paper_group_delay_batch,
    program_average_delay,
)
from repro.core.errors import SearchSpaceError
from repro.core.frequencies import FrequencyAssignment, frequencies_from_r
from repro.core.pages import ProblemInstance
from repro.core.pamad import place_by_frequency
from repro.core.program import BroadcastProgram

__all__ = [
    "OptSchedule",
    "opt_frequencies",
    "brute_force_frequencies",
    "schedule_opt",
]

#: Most nodes (or leaves) one block of :func:`opt_frequencies` holds.
BLOCK_ROWS = 1024


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


def _tail_bounds(
    slots_min: np.ndarray, p_h: int, t_h: int, num_channels: int
) -> np.ndarray:
    """Conservative lower bounds on Equation (2) for any leaf with
    ``F >= slots_min`` — the ``S_h = 1`` group's :func:`_fixed_term`
    alone, shaved, at each slot count."""
    slots = slots_min.astype(np.float64)
    cycle = (-(-slots_min // num_channels)).astype(np.float64)
    return _shave(
        (p_h / slots)
        * (
            np.maximum(slots / num_channels - t_h, 0.0)
            * np.maximum((cycle - t_h) / 2.0, 0.0)
        )
    )


def opt_frequencies(
    instance: ProblemInstance,
    num_channels: int,
    max_r: int | None = None,
) -> FrequencyAssignment:
    """Joint search over all staged ``r`` vectors, minimising final delay.

    The search walks blocks of nodes depth first (see the module
    docstring).  It returns the *identical* assignment as the
    exhaustive walk (:func:`repro.oracles.opt_frequencies_exhaustive`),
    only faster; tests pin the equality.

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
    p_h, t_h = sizes[-1], times[-1]
    # rest[g]: the slots G_{g+2}..G_h add when every later r is 1.
    rest = [sum(sizes[g + 1:]) for g in range(h)]

    best_r: tuple[int, ...] = ()
    best_delay = math.inf

    def scan(r_rows: np.ndarray) -> None:
        """Evaluate a block of leaves and accept them in order.

        Only a strict record low of the block (below the incumbent and
        every earlier delay) can pass ``delay < best - 1e-12``: an
        accepted delay sits below every earlier one, accepted or not.
        """
        nonlocal best_r, best_delay
        rows = np.ones((r_rows.shape[0], h), dtype=np.int64)
        rows[:, :-1] = np.cumprod(r_rows[:, ::-1], axis=1)[:, ::-1]
        delays = paper_group_delay_batch(rows, sizes, times, num_channels)
        floor = np.minimum.accumulate(np.append(best_delay, delays))
        for j in np.flatnonzero(delays < floor[:-1]).tolist():
            if delays[j] < best_delay - 1e-12:
                best_delay = float(delays[j])
                best_r = tuple(r_rows[j].tolist())

    def search(slots: np.ndarray, prefix: np.ndarray, stage: int) -> None:
        """Expand a block of stage-``stage - 1`` nodes by one stage.

        ``slots`` holds each node's ``F``, ``prefix`` its ``r`` row.
        """
        g = stage - 1
        bound = np.maximum(
            -(-(num_channels * times[g] - sizes[g]) // slots), 1
        )
        if max_r is not None:  # a cap below 1 leaves no candidate
            bound = np.minimum(bound, max(max_r, 0))
        parent = np.repeat(np.arange(slots.shape[0]), bound)
        ends = np.cumsum(bound)
        candidate = np.arange(1, parent.shape[0] + 1) - np.repeat(
            ends - bound, bound
        )
        child_slots = candidate * slots[parent] + sizes[g]
        lower = _tail_bounds(child_slots + rest[g], p_h, t_h, num_channels)
        live = np.flatnonzero(lower < best_delay - 1e-12)
        for start in range(0, live.shape[0], BLOCK_ROWS):
            block = live[start:start + BLOCK_ROWS]
            if start:
                block = block[lower[block] < best_delay - 1e-12]
                if not block.shape[0]:
                    continue
            rows = np.column_stack((prefix[parent[block]], candidate[block]))
            if stage == h:
                scan(rows)
            else:
                search(child_slots[block], rows, stage + 1)

    if h == 1:
        best_delay = paper_group_delay((1,), sizes, times, num_channels)
    else:
        # The root: stage 1's content is G_1 once, and no r is chosen.
        search(
            np.array([sizes[0]], dtype=np.int64),
            np.empty((1, 0), dtype=np.int64),
            2,
        )

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
            # 1..cap in order; one batch reproduces that scan exactly.
            rows = [(*prefix, c, 1) for c in range(1, cap + 1)]
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
