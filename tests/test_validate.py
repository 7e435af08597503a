"""Unit tests for the Section-3.1 validity checker."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import minimum_channels
from repro.core.errors import ProgramValidationError
from repro.core.pages import instance_from_counts
from repro.core.pamad import schedule_pamad
from repro.core.program import BroadcastProgram
from repro.core.susc import schedule_susc
from repro.core.validate import (
    ValidationReport,
    Violation,
    ViolationKind,
    assert_valid_program,
    validate_program,
    worst_case_wait,
)


@pytest.fixture
def tiny_instance():
    """Two pages with t=2, one with t=4."""
    return instance_from_counts([2, 1], [2, 4])


def _valid_program(tiny_instance) -> BroadcastProgram:
    """Channel 0 alternates pages 1/2; channel 1 carries page 3 every 4."""
    program = BroadcastProgram(num_channels=2, cycle_length=4)
    for slot in (0, 2):
        program.assign(0, slot, 1)
    for slot in (1, 3):
        program.assign(0, slot, 2)
    program.assign(1, 0, 3)
    return program


class TestValidPrograms:
    def test_valid_program_passes(self, tiny_instance):
        report = validate_program(_valid_program(tiny_instance), tiny_instance)
        assert report.ok
        assert report.max_excess_wait == 0
        assert report.summary() == "valid broadcast program"

    def test_assert_valid_is_silent(self, tiny_instance):
        assert_valid_program(_valid_program(tiny_instance), tiny_instance)


class TestViolations:
    def test_missing_page(self, tiny_instance):
        program = _valid_program(tiny_instance)
        program.clear(1, 0)  # remove page 3 entirely
        report = validate_program(program, tiny_instance)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert ViolationKind.MISSING_PAGE in kinds
        assert report.max_excess_wait == float("inf")

    def test_late_first_appearance(self, tiny_instance):
        program = BroadcastProgram(num_channels=2, cycle_length=4)
        # page 1 (t=2) first appears at slot 2 — too late for an
        # at-the-start listener, even though its cyclic gaps are fine.
        program.assign(0, 2, 1)
        program.assign(0, 0, 2)
        program.assign(1, 2, 2)
        program.assign(1, 0, 3)
        report = validate_program(program, tiny_instance)
        kinds = [v.kind for v in report.violations]
        assert ViolationKind.LATE_FIRST_APPEARANCE in kinds
        # page 1's cyclic gap is 4 > 2, so the gap violation fires too
        assert ViolationKind.GAP_EXCEEDS_EXPECTED_TIME in kinds

    def test_gap_violation_with_excess(self, tiny_instance):
        program = _valid_program(tiny_instance)
        program.clear(0, 2)  # page 1 now only at slot 0: gap 4 > t=2
        report = validate_program(program, tiny_instance)
        gap_violations = [
            v
            for v in report.violations
            if v.kind is ViolationKind.GAP_EXCEEDS_EXPECTED_TIME
        ]
        assert len(gap_violations) == 1
        assert gap_violations[0].page_id == 1
        assert report.max_excess_wait == 2

    def test_unknown_page_flagged(self, tiny_instance):
        program = _valid_program(tiny_instance)
        program.assign(1, 1, 99)
        report = validate_program(program, tiny_instance)
        unknown = [
            v
            for v in report.violations
            if v.kind is ViolationKind.UNKNOWN_PAGE
        ]
        assert [v.page_id for v in unknown] == [99]

    def test_violation_str_is_informative(self, tiny_instance):
        program = _valid_program(tiny_instance)
        program.clear(0, 2)
        report = validate_program(program, tiny_instance)
        text = str(report.violations[0])
        assert "page 1" in text
        assert "gap" in text

    def test_assert_valid_raises_with_details(self, tiny_instance):
        program = _valid_program(tiny_instance)
        program.clear(1, 0)
        with pytest.raises(ProgramValidationError, match="never broadcast"):
            assert_valid_program(program, tiny_instance)

    def test_summary_counts_violations(self, tiny_instance):
        program = _valid_program(tiny_instance)
        program.clear(0, 2)
        report = validate_program(program, tiny_instance)
        assert "1 violation" in report.summary()


class TestWorstCaseWait:
    def test_equals_largest_gap(self, tiny_instance):
        program = _valid_program(tiny_instance)
        assert worst_case_wait(program, 1) == 2
        assert worst_case_wait(program, 3) == 4

    def test_uneven_gaps(self):
        program = BroadcastProgram(num_channels=1, cycle_length=10)
        program.assign(0, 0, 7)
        program.assign(0, 3, 7)
        assert worst_case_wait(program, 7) == 7


# ----------------------------------------------------------------------
# The array checker against the page-by-page loop it replaced
# ----------------------------------------------------------------------


def validate_program_reference(
    program: BroadcastProgram, instance
) -> ValidationReport:
    """The literal page-by-page check: every page's slot list and every
    cyclic gap, in instance page order, after the unknown pages."""
    violations: list[Violation] = []
    max_excess = 0.0
    known_ids = {page.page_id for page in instance.pages()}
    for extra in sorted(program.page_ids() - known_ids):
        violations.append(
            Violation(
                kind=ViolationKind.UNKNOWN_PAGE,
                page_id=extra,
                detail="appears in the program but not in the instance",
            )
        )
    for page in instance.pages():
        slots = program.appearance_slots(page.page_id)
        if not slots:
            violations.append(
                Violation(
                    kind=ViolationKind.MISSING_PAGE,
                    page_id=page.page_id,
                    detail="never broadcast",
                )
            )
            max_excess = float("inf")
            continue
        first = slots[0]
        if first >= page.expected_time:
            violations.append(
                Violation(
                    kind=ViolationKind.LATE_FIRST_APPEARANCE,
                    page_id=page.page_id,
                    detail=(
                        f"first broadcast at slot {first} (0-based) but "
                        f"expected time is {page.expected_time}"
                    ),
                )
            )
        for gap in program.cyclic_gaps(page.page_id):
            if gap > page.expected_time:
                violations.append(
                    Violation(
                        kind=ViolationKind.GAP_EXCEEDS_EXPECTED_TIME,
                        page_id=page.page_id,
                        detail=(
                            f"gap of {gap} slots exceeds expected time "
                            f"{page.expected_time}"
                        ),
                    )
                )
                max_excess = max(max_excess, gap - page.expected_time)
    return ValidationReport(
        violations=tuple(violations), max_excess_wait=max_excess
    )


@st.composite
def checked_programs(draw):
    """An instance and a program to check: SUSC's (valid), PAMAD's at
    any budget up to the floor (valid or not), or either one degraded —
    cells cleared, unknown pages and extra copies written in."""
    h = draw(st.integers(1, 4))
    base = draw(st.integers(1, 4))
    ratio = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(1, 8), min_size=h, max_size=h))
    instance = instance_from_counts(
        sizes, [base * ratio**i for i in range(h)]
    )
    floor = minimum_channels(instance)
    if draw(st.booleans()):
        program = schedule_susc(instance).program
    else:
        channels = draw(st.integers(1, floor))
        program = schedule_pamad(instance, channels).program
    cells = [
        (channel, slot)
        for channel in range(program.num_channels)
        for slot in range(program.cycle_length)
    ]
    ids = [page.page_id for page in instance.pages()]
    for _ in range(draw(st.integers(0, 6))):
        channel, slot = draw(st.sampled_from(cells))
        program.clear(channel, slot)
        page = draw(st.none() | st.sampled_from(ids) | st.integers(900, 903))
        if page is not None:
            program.assign(channel, slot, page)
    if draw(st.booleans()):
        for channel, slot in cells:
            if program.get(channel, slot) == ids[-1]:
                program.clear(channel, slot)  # one page goes off air
    return instance, program


class TestArrayCheckMatchesLoop:
    @given(case=checked_programs())
    @settings(max_examples=80, deadline=None)
    def test_report_equals_page_loop(self, case):
        instance, program = case
        got = validate_program(program, instance)
        want = validate_program_reference(program, instance)
        assert got.violations == want.violations
        assert repr(got.max_excess_wait) == repr(want.max_excess_wait)
        assert got.summary() == want.summary()
