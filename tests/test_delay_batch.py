"""Batched delay kernels must exact-match their scalar twins.

The frequency searches and the serving layer call the ``*_batch`` entry
points in :mod:`repro.core.delay` on whole candidate/page batches; the
pruned searches reproduce the reference argmin (tie-breaks included)
only if every batched value is *bit-identical* to the scalar model, so
these properties compare with ``==``, never ``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import minimum_channels
from repro.core.delay import (
    normalized_group_delay,
    normalized_group_delay_batch,
    page_average_delay,
    page_average_delay_batch,
    page_miss_probability,
    page_miss_probability_batch,
    paper_group_delay,
    paper_group_delay_batch,
)
from repro.core.errors import ReproError, SimulationError
from repro.core.pages import instance_from_counts
from repro.core.pamad import schedule_pamad

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def ladders(draw, max_groups=4, max_size=12, max_base=4, max_ratio=3):
    """``(sizes, times)`` on a geometric expected-time ladder.

    ``max_groups=1`` cases exercise the degenerate single-group
    instances the batch kernels must handle like any other.
    """
    h = draw(st.integers(1, max_groups))
    base = draw(st.integers(1, max_base))
    ratio = draw(st.integers(2, max_ratio)) if h > 1 else 1
    sizes = tuple(
        draw(st.lists(st.integers(1, max_size), min_size=h, max_size=h))
    )
    times = tuple(base * ratio**i for i in range(h))
    return sizes, times


@st.composite
def objective_cases(draw):
    """A ladder of up to 10 groups, a channel budget, and a batch of
    frequency rows — small frequencies (clamped, zero-delay terms) or
    any up to 2**20 (long weights, large cycles)."""
    sizes, times = draw(ladders(max_groups=10))
    h = len(sizes)
    num_channels = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    top = draw(st.sampled_from((6, 2**20)))
    rows = draw(
        st.lists(
            st.lists(st.integers(1, top), min_size=h, max_size=h),
            min_size=m,
            max_size=m,
        )
    )
    return rows, sizes, times, num_channels


@st.composite
def scheduled_programs(draw):
    """A PAMAD program at a random (possibly taut) channel budget."""
    sizes, times = draw(ladders())
    instance = instance_from_counts(sizes, times)
    channels = draw(st.integers(1, minimum_channels(instance)))
    schedule = schedule_pamad(instance, channels)
    return instance, schedule.program


# ----------------------------------------------------------------------
# Objective kernels (Equations 2 / Section 4.1) over frequency batches
# ----------------------------------------------------------------------


class TestObjectiveBatches:
    @given(case=objective_cases())
    @settings(max_examples=60, deadline=None)
    def test_paper_batch_matches_scalar_bitwise(self, case):
        rows, sizes, times, num_channels = case
        expected = [
            paper_group_delay(row, sizes, times, num_channels)
            for row in rows
        ]
        got = paper_group_delay_batch(rows, sizes, times, num_channels)
        assert got.dtype == np.float64
        assert list(got) == expected

    @given(case=objective_cases())
    @settings(max_examples=60, deadline=None)
    def test_normalized_batch_matches_scalar_bitwise(self, case):
        rows, sizes, times, num_channels = case
        expected = [
            normalized_group_delay(row, sizes, times, num_channels)
            for row in rows
        ]
        got = normalized_group_delay_batch(
            rows, sizes, times, num_channels
        )
        assert got.dtype == np.float64
        assert list(got) == expected

    @pytest.mark.parametrize(
        "batch", [paper_group_delay_batch, normalized_group_delay_batch]
    )
    def test_row_validation(self, batch):
        with pytest.raises(SimulationError, match="must be 2-D"):
            batch([1, 2], (3, 4), (2, 4), 2)
        with pytest.raises(SimulationError, match="lengths differ"):
            batch([[1, 2]], (3,), (2,), 2)


# ----------------------------------------------------------------------
# Measurement kernels over page batches of concrete programs
# ----------------------------------------------------------------------


class TestMeasurementBatches:
    @given(case=scheduled_programs())
    @settings(max_examples=40, deadline=None)
    def test_average_delay_batch_matches_scalar_bitwise(self, case):
        instance, program = case
        pages = list(instance.pages())
        page_ids = [page.page_id for page in pages]
        times = [page.expected_time for page in pages]
        got = page_average_delay_batch(program, page_ids, times)
        expected = [
            page_average_delay(program, page_id, time)
            for page_id, time in zip(page_ids, times)
        ]
        assert list(got) == expected

    @given(case=scheduled_programs())
    @settings(max_examples=40, deadline=None)
    def test_miss_probability_batch_matches_scalar_bitwise(self, case):
        instance, program = case
        pages = list(instance.pages())
        page_ids = [page.page_id for page in pages]
        times = [page.expected_time for page in pages]
        got = page_miss_probability_batch(program, page_ids, times)
        expected = [
            page_miss_probability(program, page_id, time)
            for page_id, time in zip(page_ids, times)
        ]
        assert list(got) == expected

    @pytest.mark.parametrize(
        "batch", [page_average_delay_batch, page_miss_probability_batch]
    )
    def test_empty_batch_returns_empty_array(self, batch):
        instance = instance_from_counts((2,), (4,))
        program = schedule_pamad(instance, 1).program
        out = batch(program, [], [])
        assert out.shape == (0,)

    @pytest.mark.parametrize(
        "batch", [page_average_delay_batch, page_miss_probability_batch]
    )
    def test_length_mismatch_rejected(self, batch):
        instance = instance_from_counts((2,), (4,))
        program = schedule_pamad(instance, 1).program
        with pytest.raises(SimulationError, match="expected times"):
            batch(program, [1, 2], [4])

    @pytest.mark.parametrize(
        "batch", [page_average_delay_batch, page_miss_probability_batch]
    )
    def test_absent_page_rejected(self, batch):
        instance = instance_from_counts((2,), (4,))
        program = schedule_pamad(instance, 1).program
        with pytest.raises(ReproError, match="does not appear"):
            batch(program, [999], [4])
