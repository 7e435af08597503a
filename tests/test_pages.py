"""Unit tests for the data model (pages, groups, problem instances)."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidInstanceError
from repro.core.pages import Group, Page, ProblemInstance, instance_from_counts


class TestPage:
    def test_fields(self):
        page = Page(page_id=7, group_index=2, expected_time=4)
        assert page.page_id == 7
        assert page.group_index == 2
        assert page.expected_time == 4

    def test_str_mentions_group_and_time(self):
        page = Page(page_id=7, group_index=2, expected_time=4)
        assert "7" in str(page)
        assert "t=4" in str(page)

    def test_rejects_zero_expected_time(self):
        with pytest.raises(InvalidInstanceError):
            Page(page_id=1, group_index=1, expected_time=0)

    def test_rejects_negative_expected_time(self):
        with pytest.raises(InvalidInstanceError):
            Page(page_id=1, group_index=1, expected_time=-3)

    def test_rejects_zero_group_index(self):
        with pytest.raises(InvalidInstanceError):
            Page(page_id=1, group_index=0, expected_time=2)

    def test_rejects_negative_page_id(self):
        # -1 marks a free cell in the packed program grid.
        with pytest.raises(InvalidInstanceError, match="page -1"):
            Page(page_id=-1, group_index=1, expected_time=2)

    def test_negative_ids_rejected_before_scheduling(self):
        with pytest.raises(InvalidInstanceError, match="page -2"):
            instance_from_counts([2, 2], [2, 4], first_page_id=-2)

    def test_is_hashable_and_immutable(self):
        page = Page(page_id=1, group_index=1, expected_time=2)
        assert hash(page) == hash(Page(page_id=1, group_index=1, expected_time=2))
        with pytest.raises(AttributeError):
            page.page_id = 9  # type: ignore[misc]


class TestGroup:
    def _pages(self, count, group_index=1, expected_time=2, start=1):
        return tuple(
            Page(page_id=start + i, group_index=group_index, expected_time=expected_time)
            for i in range(count)
        )

    def test_size_and_len(self):
        group = Group(index=1, expected_time=2, pages=self._pages(3))
        assert group.size == 3
        assert len(group) == 3

    def test_iteration_yields_pages_in_order(self):
        pages = self._pages(3)
        group = Group(index=1, expected_time=2, pages=pages)
        assert tuple(group) == pages

    def test_rejects_empty_group(self):
        with pytest.raises(InvalidInstanceError, match="no pages"):
            Group(index=1, expected_time=2, pages=())

    def test_rejects_mismatched_expected_time(self):
        pages = self._pages(2, expected_time=4)
        with pytest.raises(InvalidInstanceError, match="expected"):
            Group(index=1, expected_time=2, pages=pages)

    def test_rejects_page_claiming_other_group(self):
        pages = self._pages(2, group_index=3)
        with pytest.raises(InvalidInstanceError, match="claims group"):
            Group(index=1, expected_time=2, pages=pages)


class TestProblemInstance:
    def test_paper_notation_accessors(self, fig2_instance):
        assert fig2_instance.h == 3
        assert fig2_instance.n == 11
        assert fig2_instance.group_sizes == (3, 5, 3)
        assert fig2_instance.expected_times == (2, 4, 8)
        assert fig2_instance.max_expected_time == 8
        assert fig2_instance.ratio == 2
        assert fig2_instance.is_uniform_ladder

    def test_group_lookup_is_one_based(self, fig2_instance):
        assert fig2_instance.group(1).expected_time == 2
        assert fig2_instance.group(3).expected_time == 8

    def test_group_lookup_out_of_range(self, fig2_instance):
        with pytest.raises(InvalidInstanceError):
            fig2_instance.group(0)
        with pytest.raises(InvalidInstanceError):
            fig2_instance.group(4)

    def test_page_lookup(self, fig2_instance):
        page = fig2_instance.page(4)
        assert page.group_index == 2
        assert page.expected_time == 4

    def test_page_lookup_unknown(self, fig2_instance):
        with pytest.raises(InvalidInstanceError, match="unknown page"):
            fig2_instance.page(99)

    def test_pages_iterate_in_group_order(self, fig2_instance):
        ids = [page.page_id for page in fig2_instance.pages()]
        assert ids == list(range(1, 12))

    def test_susc_order_is_ascending_expected_time(self, fig2_instance):
        times = [p.expected_time for p in fig2_instance.pages_sorted_for_susc()]
        assert times == sorted(times)

    def test_single_group_ratio_is_one(self, single_group_instance):
        assert single_group_instance.ratio == 1
        assert single_group_instance.is_uniform_ladder

    def test_divisibility_ladder_accepted(self):
        # 2 -> 8 skips the rung at 4; divisible, therefore schedulable.
        instance = instance_from_counts([2, 2], [2, 8])
        assert not instance.is_uniform_ladder or instance.ratio == 4

    def test_non_uniform_ladder_has_no_ratio(self):
        instance = instance_from_counts([1, 1, 1], [2, 4, 16])
        assert not instance.is_uniform_ladder
        with pytest.raises(InvalidInstanceError, match="uniform"):
            instance.ratio

    def test_rejects_non_divisible_times(self):
        with pytest.raises(InvalidInstanceError, match="divisibility"):
            instance_from_counts([1, 1], [2, 5])

    def test_rejects_non_increasing_times(self):
        with pytest.raises(InvalidInstanceError, match="increasing"):
            instance_from_counts([1, 1], [4, 4])

    def test_rejects_empty_instance(self):
        with pytest.raises(InvalidInstanceError):
            ProblemInstance(groups=())

    def test_rejects_misnumbered_groups(self):
        pages = (Page(page_id=1, group_index=2, expected_time=2),)
        group = Group(index=2, expected_time=2, pages=pages)
        with pytest.raises(InvalidInstanceError, match="numbered"):
            ProblemInstance(groups=(group,))

    def test_rejects_duplicate_page_ids(self):
        g1 = Group(
            index=1,
            expected_time=2,
            pages=(Page(page_id=1, group_index=1, expected_time=2),),
        )
        g2 = Group(
            index=2,
            expected_time=4,
            pages=(Page(page_id=1, group_index=2, expected_time=4),),
        )
        with pytest.raises(InvalidInstanceError, match="duplicate"):
            ProblemInstance(groups=(g1, g2))

    def test_str_shows_group_summary(self, fig2_instance):
        text = str(fig2_instance)
        assert "h=3" in text
        assert "n=11" in text
        assert "G2(P=5, t=4)" in text


class TestInstanceFromCounts:
    def test_sequential_page_ids(self):
        instance = instance_from_counts([2, 3], [2, 4])
        assert [p.page_id for p in instance.pages()] == [1, 2, 3, 4, 5]

    def test_first_page_id_offset(self):
        instance = instance_from_counts([2], [2], first_page_id=10)
        assert [p.page_id for p in instance.pages()] == [10, 11]

    def test_mismatched_lengths(self):
        with pytest.raises(InvalidInstanceError, match="group sizes"):
            instance_from_counts([1, 2], [2])

    def test_empty_inputs(self):
        with pytest.raises(InvalidInstanceError, match="at least one"):
            instance_from_counts([], [])

    def test_zero_size_group(self):
        with pytest.raises(InvalidInstanceError, match="positive"):
            instance_from_counts([2, 0], [2, 4])

    def test_group_indices_match_position(self):
        instance = instance_from_counts([1, 1, 1], [2, 4, 8])
        assert [g.index for g in instance.groups] == [1, 2, 3]
