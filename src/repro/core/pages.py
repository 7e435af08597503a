"""Data model for broadcast pages, groups and problem instances.

The paper (Section 2) works with ``n`` data pages partitioned into ``h``
groups ``G_1 .. G_h``.  Every page of group ``G_i`` carries the same
*expected time* ``t_i`` — the longest a client is willing to wait for that
page — and the expected times form a geometric ladder ``t_{i+1} = c * t_i``
for a positive integer ratio ``c``.  ``P_i`` denotes the number of pages in
group ``G_i``.

This module provides:

* :class:`Page` — one broadcast page ``p_{i,j}`` with its expected time.
* :class:`Group` — one group ``G_i`` (pages sharing an expected time).
* :class:`ProblemInstance` — the full scheduling input, with validation of
  the paper's structural assumptions and convenience accessors used by
  every scheduler in the library.

All three types are immutable value objects: schedulers never mutate their
input, which keeps experiment sweeps trivially re-runnable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.errors import InvalidInstanceError

__all__ = ["Page", "Group", "ProblemInstance", "instance_from_counts"]


@dataclass(frozen=True, slots=True)
class Page:
    """A single broadcast data page ``p_{i,j}``.

    Attributes:
        page_id: Globally unique identifier of the page (the paper numbers
            pages 1..n; any non-negative integer id works here).
        group_index: 1-based index ``i`` of the group the page belongs to.
        expected_time: The group's expected time ``t_i`` in slot units.
    """

    page_id: int
    group_index: int
    expected_time: int

    def __post_init__(self) -> None:
        if self.page_id < 0:
            # Negative ids are reserved for program-level markers: -1 is
            # the packed grid's free cell, -2 an air-index segment.
            raise InvalidInstanceError(
                f"page {self.page_id}: page_id must be >= 0"
            )
        if self.expected_time <= 0:
            raise InvalidInstanceError(
                f"page {self.page_id}: expected_time must be positive, "
                f"got {self.expected_time}"
            )
        if self.group_index <= 0:
            raise InvalidInstanceError(
                f"page {self.page_id}: group_index must be 1-based positive, "
                f"got {self.group_index}"
            )

    def __str__(self) -> str:
        return f"p[{self.group_index},{self.page_id}](t={self.expected_time})"


@dataclass(frozen=True, slots=True)
class Group:
    """A group ``G_i`` of pages sharing the expected time ``t_i``.

    Attributes:
        index: 1-based group index ``i``.
        expected_time: The shared expected time ``t_i``.
        pages: The pages of the group, in stable order.  The paper notes the
            intra-group order is unimportant (Algorithm 1, step 1).
    """

    index: int
    expected_time: int
    pages: tuple[Page, ...]

    def __post_init__(self) -> None:
        if not self.pages:
            raise InvalidInstanceError(f"group {self.index} has no pages")
        for page in self.pages:
            if page.expected_time != self.expected_time:
                raise InvalidInstanceError(
                    f"group {self.index}: page {page.page_id} has expected "
                    f"time {page.expected_time}, group has {self.expected_time}"
                )
            if page.group_index != self.index:
                raise InvalidInstanceError(
                    f"group {self.index}: page {page.page_id} claims group "
                    f"{page.group_index}"
                )

    @property
    def size(self) -> int:
        """``P_i`` — the number of pages in this group."""
        return len(self.pages)

    def __len__(self) -> int:
        return len(self.pages)

    def __iter__(self) -> Iterator[Page]:
        return iter(self.pages)


def _check_divisibility_ladder(times: Sequence[int]) -> None:
    """Every consecutive expected-time pair must divide evenly.

    The paper assumes the stricter uniform ladder ``t_{i+1} = c * t_i``;
    every algorithm in this library only needs ``t_i | t_{i+1}`` (which the
    uniform ladder implies), and the weaker requirement keeps instances
    derived by dropping whole groups (see :mod:`repro.baselines.drop`)
    schedulable.  SUSC's Theorems 3.2/3.3 rely on this divisibility.
    """
    for a, b in zip(times, times[1:]):
        if b % a != 0:
            raise InvalidInstanceError(
                f"expected times {list(times)} are not a divisibility "
                f"ladder: {b} is not an integer multiple of {a}"
            )


@dataclass(frozen=True)
class ProblemInstance:
    """A complete scheduling input: groups on a geometric expected-time ladder.

    This is the object every scheduler in the library consumes.  It enforces
    the assumptions of Section 2:

    * group expected times are strictly increasing,
    * ``t_{i+1} = c * t_i`` for one positive integer ``c`` shared by all
      consecutive pairs,
    * page identifiers are unique across the instance.

    Attributes:
        groups: The groups ``G_1 .. G_h`` ordered by ascending expected time.
    """

    groups: tuple[Group, ...]
    _pages_by_id: Mapping[int, Page] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _page_table: np.ndarray | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if not self.groups:
            raise InvalidInstanceError("instance has no groups")
        times = [group.expected_time for group in self.groups]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidInstanceError(
                f"group expected times must be strictly increasing, got {times}"
            )
        _check_divisibility_ladder(times)
        for position, group in enumerate(self.groups, start=1):
            if group.index != position:
                raise InvalidInstanceError(
                    f"group at position {position} has index {group.index}; "
                    "groups must be numbered 1..h in ladder order"
                )
        by_id: dict[int, Page] = {}
        for page in self.pages():
            if page.page_id in by_id:
                raise InvalidInstanceError(
                    f"duplicate page id {page.page_id}"
                )
            by_id[page.page_id] = page
        object.__setattr__(self, "_pages_by_id", by_id)

    # ------------------------------------------------------------------
    # Paper-notation accessors
    # ------------------------------------------------------------------

    @property
    def h(self) -> int:
        """Number of groups ``h``."""
        return len(self.groups)

    @property
    def n(self) -> int:
        """Total number of pages ``n``."""
        return sum(group.size for group in self.groups)

    @property
    def is_uniform_ladder(self) -> bool:
        """True iff ``t_{i+1} = c * t_i`` for one shared ratio ``c``.

        The paper's Section-2 assumption.  Instances produced by dropping
        whole groups may be non-uniform (ratios that are powers of ``c``);
        every scheduler here still handles them.
        """
        times = [g.expected_time for g in self.groups]
        if len(times) < 2:
            return True
        ratio = times[1] // times[0]
        return all(b == ratio * a for a, b in zip(times, times[1:]))

    @property
    def ratio(self) -> int:
        """The uniform ladder ratio ``c`` with ``t_{i+1} = c * t_i``.

        Raises:
            InvalidInstanceError: If the instance is a divisibility ladder
                but not a uniform one (check :attr:`is_uniform_ladder`).
        """
        if not self.is_uniform_ladder:
            raise InvalidInstanceError(
                "instance has no uniform ladder ratio; expected times are "
                f"{[g.expected_time for g in self.groups]}"
            )
        times = [g.expected_time for g in self.groups]
        return times[1] // times[0] if len(times) > 1 else 1

    @property
    def expected_times(self) -> tuple[int, ...]:
        """``(t_1, .., t_h)``."""
        return tuple(group.expected_time for group in self.groups)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        """``(P_1, .., P_h)``."""
        return tuple(group.size for group in self.groups)

    @property
    def max_expected_time(self) -> int:
        """``t_h`` — the largest expected time, SUSC's major-cycle length."""
        return self.groups[-1].expected_time

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def group(self, index: int) -> Group:
        """Return group ``G_index`` (1-based, following the paper)."""
        if not 1 <= index <= self.h:
            raise InvalidInstanceError(
                f"group index {index} out of range 1..{self.h}"
            )
        return self.groups[index - 1]

    def page(self, page_id: int) -> Page:
        """Return the page with the given id."""
        try:
            return self._pages_by_id[page_id]
        except KeyError:
            raise InvalidInstanceError(f"unknown page id {page_id}") from None

    def pages(self) -> Iterator[Page]:
        """Iterate over all pages in ascending-expected-time group order."""
        return itertools.chain.from_iterable(self.groups)

    def page_table(self) -> np.ndarray:
        """Per page, in :meth:`pages` order, the read-only float64 row
        ``(page_id, expected_time, group_index)``.

        Built on first call and kept for the instance's lifetime: the
        client measurement indexes it once per request stream, and a
        sweep measures one instance many times.
        """
        if self._page_table is None:
            table = np.array(
                [
                    (page.page_id, page.expected_time, page.group_index)
                    for page in self.pages()
                ],
                dtype=np.float64,
            )
            table.flags.writeable = False
            object.__setattr__(self, "_page_table", table)
        return self._page_table

    def __getstate__(self) -> dict:
        """Pickle without the page table; the copy rebuilds it on demand."""
        return {**self.__dict__, "_page_table": None}

    def pages_sorted_for_susc(self) -> list[Page]:
        """All pages in the order Algorithm 1 consumes them.

        Ascending expected time; intra-group order as given (the paper notes
        it is unimportant).
        """
        return list(self.pages())

    def __str__(self) -> str:
        parts = ", ".join(
            f"G{g.index}(P={g.size}, t={g.expected_time})" for g in self.groups
        )
        return f"ProblemInstance(h={self.h}, n={self.n}: {parts})"


def instance_from_counts(
    sizes: Sequence[int],
    expected_times: Sequence[int],
    first_page_id: int = 1,
) -> ProblemInstance:
    """Build a :class:`ProblemInstance` from ``P_i`` counts and ``t_i`` times.

    This is the most common construction path: the paper's experiments are
    all specified as ``(P_1..P_h, t_1..t_h)`` pairs (e.g. Figure 2's
    ``P = (3, 5, 3)``, ``t = (2, 4, 8)``).  Page ids are assigned
    sequentially starting at ``first_page_id``, mirroring the paper's
    page-1..page-11 numbering.

    Args:
        sizes: Number of pages per group, ``P_1 .. P_h``.
        expected_times: Expected time per group, ``t_1 .. t_h``; must form a
            geometric ladder with integer ratio.
        first_page_id: Id of the first generated page.

    Returns:
        The validated problem instance.

    Raises:
        InvalidInstanceError: If the inputs are inconsistent.
    """
    if len(sizes) != len(expected_times):
        raise InvalidInstanceError(
            f"got {len(sizes)} group sizes but {len(expected_times)} "
            "expected times"
        )
    if not sizes:
        raise InvalidInstanceError("at least one group is required")
    groups: list[Group] = []
    next_id = first_page_id
    for index, (size, time) in enumerate(
        zip(sizes, expected_times), start=1
    ):
        if size <= 0:
            raise InvalidInstanceError(
                f"group {index}: size must be positive, got {size}"
            )
        pages = tuple(
            Page(page_id=next_id + j, group_index=index, expected_time=time)
            for j in range(size)
        )
        next_id += size
        groups.append(Group(index=index, expected_time=time, pages=pages))
    return ProblemInstance(groups=tuple(groups))
