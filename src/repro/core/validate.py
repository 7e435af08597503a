"""Validity checking for broadcast programs (Section 3.1).

The paper defines a *valid broadcast program* by two conditions:

1. every page ``p_{i,j}`` is broadcast at least once between the program
   start and time ``t_i`` (so a client tuning in right at the start still
   meets its deadline), and
2. the time between consecutive broadcasts of ``p_{i,j}`` never exceeds
   ``t_i``.

Because broadcast programs repeat cyclically, condition 2 is checked on the
*cyclic* gaps (including the wrap-around gap from the last appearance back
to the first in the next cycle); together with condition 1 this is exactly
"no matter when a client starts to listen, it waits at most ``t_i``".

The checker returns a structured report rather than a bare boolean so tests
and the CLI can explain *why* a program is invalid (which page, which gap).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.core.errors import ProgramValidationError
from repro.core.pages import ProblemInstance
from repro.core.program import AppearanceIndex, BroadcastProgram

__all__ = [
    "ViolationKind",
    "Violation",
    "ValidationReport",
    "validate_program",
    "assert_valid_program",
    "worst_case_wait",
]


class ViolationKind(Enum):
    """The ways a program can fail the Section 3.1 validity conditions."""

    MISSING_PAGE = "missing-page"
    LATE_FIRST_APPEARANCE = "late-first-appearance"
    GAP_EXCEEDS_EXPECTED_TIME = "gap-exceeds-expected-time"
    UNKNOWN_PAGE = "unknown-page"


@dataclass(frozen=True, slots=True)
class Violation:
    """One validity violation, with enough context to debug it."""

    kind: ViolationKind
    page_id: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind.value}] page {self.page_id}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a program against an instance.

    Attributes:
        violations: Every violation found (empty iff the program is valid).
        max_excess_wait: Worst slack beyond the expected time over all pages
            and arrival instants — 0 for a valid program; for invalid
            programs this is the worst-case extra wait a client can suffer.
    """

    violations: tuple[Violation, ...]
    max_excess_wait: float

    @property
    def ok(self) -> bool:
        """True iff the program satisfies both validity conditions."""
        return not self.violations

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.ok:
            return "valid broadcast program"
        return (
            f"invalid: {len(self.violations)} violation(s), worst excess "
            f"wait {self.max_excess_wait:.2f} slots"
        )


def worst_case_wait(program: BroadcastProgram, page_id: int) -> int:
    """Longest wait any client can experience for ``page_id``.

    Equals the largest cyclic gap: a client arriving immediately after a
    broadcast starts waits the full gap to the next one.
    """
    return max(program.cyclic_gaps(page_id))


def validate_program(
    program: BroadcastProgram, instance: ProblemInstance
) -> ValidationReport:
    """Check the two Section 3.1 conditions for every page of ``instance``.

    Pages present in the program but absent from the instance are also
    flagged (schedulers must not invent pages).  Each page's first slot
    and widest cyclic gap are compared with its expected time in array
    operations over the program's appearance index; violations are then
    listed for the failing pages only, in instance page order.

    Args:
        program: The broadcast program to check.
        instance: The problem instance defining pages and expected times.

    Returns:
        A :class:`ValidationReport`; ``report.ok`` is the validity verdict.
    """
    index = AppearanceIndex.from_program(program)
    table = instance.page_table()
    page_ids = table[:, 0].astype(np.int64)
    times = table[:, 1].astype(np.int64)
    # Each instance page's index row (-1 when off air); a row no page
    # claims is an unknown page, and rows ascend by page id.
    rows = index.rows_for(page_ids)
    claimed = np.zeros(index.page_ids.shape[0], dtype=bool)
    claimed[rows[rows >= 0]] = True
    violations = [
        Violation(
            ViolationKind.UNKNOWN_PAGE,
            extra,
            "appears in the program but not in the instance",
        )
        for extra in index.page_ids[~claimed].tolist()
    ]

    # Per row, plus a trailing entry for row -1.  Condition 1: first
    # appearance within the first t_i slots (0-based: slot index strictly
    # below t_i means the broadcast begins no later than the paper's
    # 1-based time t_i).  Condition 2: every cyclic gap within t_i.
    starts = index.offsets[:-1]
    widest = np.zeros(starts.shape[0] + 1, dtype=np.int64)
    if starts.size:
        widest[:-1] = np.maximum.reduceat(index.gaps, starts)
    widest = widest[rows]
    first = np.append(index.slots[starts], 0)[rows]
    missing = rows < 0
    late = ~missing & (first >= times)
    wide = ~missing & (widest > times)
    max_excess: float = 0.0
    if missing.any():
        max_excess = float("inf")
    elif wide.any():
        max_excess = int((widest - times)[wide].max())

    for k in np.flatnonzero(missing | late | wide).tolist():
        page_id, expected = int(page_ids[k]), int(times[k])
        if missing[k]:
            violations.append(
                Violation(
                    ViolationKind.MISSING_PAGE, page_id, "never broadcast"
                )
            )
            continue
        if late[k]:
            violations.append(
                Violation(
                    ViolationKind.LATE_FIRST_APPEARANCE,
                    page_id,
                    f"first broadcast at slot {int(first[k])} (0-based) "
                    f"but expected time is {expected}",
                )
            )
        gaps = index.row_slots(page_id)[1]
        violations.extend(
            Violation(
                ViolationKind.GAP_EXCEEDS_EXPECTED_TIME,
                page_id,
                f"gap of {gap} slots exceeds expected time {expected}",
            )
            for gap in gaps[gaps > expected].tolist()
        )

    return ValidationReport(
        violations=tuple(violations), max_excess_wait=max_excess
    )


def assert_valid_program(
    program: BroadcastProgram, instance: ProblemInstance
) -> None:
    """Raise :class:`ProgramValidationError` if the program is invalid.

    Used as a post-condition by SUSC (which guarantees validity under
    sufficient channels) and by tests.
    """
    report = validate_program(program, instance)
    if not report.ok:
        details = "; ".join(str(v) for v in report.violations[:5])
        more = (
            f" (+{len(report.violations) - 5} more)"
            if len(report.violations) > 5
            else ""
        )
        raise ProgramValidationError(f"{report.summary()}: {details}{more}")
