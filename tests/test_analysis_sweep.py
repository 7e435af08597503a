"""Unit tests for the channel-sweep harness."""

from __future__ import annotations

import math

import pytest

from repro.analysis.sweep import (
    channel_sweep,
    default_channel_points,
    sweep_table,
)
from repro.core.errors import ReproError
from repro.engine import available_schedulers, get_scheduler


class TestSchedulerRegistry:
    def test_known_names(self):
        assert set(available_schedulers()) == {
            "pamad", "m-pb", "opt", "flat", "disks", "online", "susc",
        }

    def test_lookup_case_insensitive(self):
        assert get_scheduler("PAMAD") is get_scheduler("pamad")

    def test_mpb_alias(self):
        assert get_scheduler("mpb") is get_scheduler("m-pb")

    def test_unknown_name(self):
        with pytest.raises(ReproError, match="unknown scheduler"):
            get_scheduler("magic")

    def test_unknown_name_lists_sorted_choices(self):
        with pytest.raises(ReproError) as excinfo:
            get_scheduler("magic")
        listed = str(excinfo.value).split("choose from ")[1].split(", ")
        assert listed == sorted(listed)


class TestDefaultChannelPoints:
    def test_small_range_is_dense(self):
        assert default_channel_points(5) == [1, 2, 3, 4, 5]

    def test_large_range_subsamples(self):
        points = default_channel_points(64, max_points=10)
        assert points[0] == 1
        assert points[-1] == 64
        assert len(points) <= 10
        assert points == sorted(set(points))

    def test_rejects_zero(self):
        with pytest.raises(ReproError):
            default_channel_points(0)


class TestChannelSweep:
    def test_sweep_shape(self, fig2_instance):
        points = channel_sweep(
            fig2_instance,
            algorithms=("pamad", "m-pb"),
            channel_points=(1, 2, 3),
            num_requests=200,
            seed=0,
        )
        assert len(points) == 6
        assert {p.algorithm for p in points} == {"pamad", "m-pb"}
        assert {p.channels for p in points} == {1, 2, 3}

    def test_defaults_cover_full_range(self, sec31_instance):
        points = channel_sweep(
            sec31_instance, algorithms=("pamad",), num_requests=100
        )
        assert {p.channels for p in points} == {1, 2}

    def test_points_carry_measurements(self, fig2_instance):
        (point,) = channel_sweep(
            fig2_instance,
            algorithms=("pamad",),
            channel_points=(2,),
            num_requests=300,
            seed=1,
        )
        assert point.analytic_delay > 0
        assert point.simulated_delay > 0
        assert 0 <= point.miss_ratio <= 1
        assert point.cycle_length > 0
        assert point.elapsed_seconds >= 0

    def test_deterministic_given_seed(self, fig2_instance):
        kwargs = dict(
            algorithms=("pamad",),
            channel_points=(2,),
            num_requests=300,
            seed=9,
        )
        a = channel_sweep(fig2_instance, **kwargs)
        b = channel_sweep(fig2_instance, **kwargs)
        assert a[0].simulated_delay == b[0].simulated_delay


class TestSweepTable:
    def test_pivot(self, fig2_instance):
        points = channel_sweep(
            fig2_instance,
            algorithms=("pamad", "m-pb"),
            channel_points=(1, 3),
            num_requests=100,
        )
        table = sweep_table(points, title="t")
        assert list(table.columns) == ["channels", "pamad", "m-pb"]
        assert table.column("channels") == [1, 3]

    def test_missing_cells_are_nan(self, fig2_instance):
        points = channel_sweep(
            fig2_instance,
            algorithms=("pamad",),
            channel_points=(1,),
            num_requests=100,
        )
        table = sweep_table(points, title="t")
        assert not math.isnan(table.rows[0][1])

    def test_metric_selection(self, fig2_instance):
        points = channel_sweep(
            fig2_instance,
            algorithms=("pamad",),
            channel_points=(2,),
            num_requests=100,
        )
        table = sweep_table(points, title="t", metric="cycle_length")
        assert table.rows[0][1] == points[0].cycle_length
