"""The live page catalog — a mutable view over the paper's frozen input.

Every scheduler in the library consumes an immutable
:class:`~repro.core.pages.ProblemInstance`.  The live runtime needs the
same structural guarantees (groups on a divisibility ladder, unique page
ids) over a catalog that changes while the system runs.
:class:`LiveCatalog` is that bridge: a ``page_id -> expected_time``
mapping with mutation primitives, an exact Theorem-3.1 load computation
(so admission control can judge a mutation *before* applying it), and
:meth:`to_instance` snapshots that feed the unchanged schedulers.

The catalog deliberately does not enforce the ladder on every mutation —
it enforces it when a snapshot is taken, which is the moment a scheduler
would actually rely on it.  Mutation generators draw expected times from
one ladder, so any subset of the live times keeps consecutive
divisibility automatically.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Iterable, Mapping

from repro.core.errors import InvalidInstanceError
from repro.core.intmath import ceil_div
from repro.core.pages import Group, Page, ProblemInstance

__all__ = ["LiveCatalog", "deadline_histogram", "required_channels_of"]


def deadline_histogram(expected_times: Iterable[int]) -> dict[int, int]:
    """Count pages per deadline: the ``expected_time -> page count``
    histogram of a sequence of page deadlines, keyed in first-seen order.

    Theorem 3.1's floor (:func:`required_channels_of`) and the PAMAD
    delay model both read a catalog through this histogram alone.
    """
    return dict(Counter(expected_times))


def required_channels_of(histogram: Mapping[int, int]) -> int:
    """Theorem 3.1's bound from an ``expected_time -> page count`` histogram.

    Exact integer arithmetic over the distinct deadlines, matching
    :func:`repro.core.bounds.minimum_channels` on every ladder catalog;
    an empty histogram needs zero channels.
    """
    if not histogram:
        return 0
    common = math.lcm(*histogram.keys())
    numerator = sum(
        (common // expected) * count
        for expected, count in histogram.items()
    )
    return ceil_div(numerator, common)


class LiveCatalog:
    """A mutable ``page_id -> expected_time`` catalog with exact load math.

    Beside the mapping it keeps a page count per deadline, so the
    Theorem-3.1 load — of the catalog or of a one-page edit of it —
    costs one pass over the distinct deadlines, not over the pages.
    """

    def __init__(self, pages: ProblemInstance | Mapping[int, int]) -> None:
        if isinstance(pages, ProblemInstance):
            self._times: dict[int, int] = {
                page.page_id: page.expected_time for page in pages.pages()
            }
        else:
            self._times = {int(k): int(v) for k, v in pages.items()}
        if not self._times:
            raise InvalidInstanceError("catalog needs at least one page")
        for page_id, expected in self._times.items():
            if expected <= 0:
                raise InvalidInstanceError(
                    f"page {page_id}: expected_time must be positive, "
                    f"got {expected}"
                )
        self._counts = deadline_histogram(self._times.values())
        self._required: int | None = None
        self._instance: ProblemInstance | None = None
        self._load_terms: list[float] | None = None

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    def __contains__(self, page_id: object) -> bool:
        return page_id in self._times

    def expected_time(self, page_id: int) -> int:
        """The current deadline of ``page_id``."""
        try:
            return self._times[page_id]
        except KeyError:
            raise InvalidInstanceError(
                f"unknown page id {page_id}"
            ) from None

    def pages(self) -> dict[int, int]:
        """A snapshot copy of the ``page_id -> expected_time`` mapping."""
        return dict(self._times)

    def deadline_counts(self) -> dict[int, int]:
        """A snapshot copy of the ``expected_time -> page count`` histogram."""
        return dict(self._counts)

    def pages_at(self, expected_time: int) -> list[int]:
        """The ids of the pages with deadline ``expected_time``, ascending."""
        return sorted(
            page_id
            for page_id, expected in self._times.items()
            if expected == expected_time
        )

    # ------------------------------------------------------------------
    # Mutation primitives
    # ------------------------------------------------------------------

    def insert(self, page_id: int, expected_time: int) -> None:
        """Add a new page; rejects duplicates and non-positive deadlines."""
        if page_id in self._times:
            raise InvalidInstanceError(
                f"page {page_id} is already in the catalog"
            )
        if expected_time <= 0:
            raise InvalidInstanceError(
                f"expected_time must be positive, got {expected_time}"
            )
        self._times[page_id] = expected_time
        self._count(expected_time, 1)

    def remove(self, page_id: int) -> None:
        """Drop a page; the catalog must never become empty."""
        if page_id not in self._times:
            raise InvalidInstanceError(f"unknown page id {page_id}")
        if len(self._times) == 1:
            raise InvalidInstanceError(
                "cannot remove the last page of the catalog"
            )
        self._count(self._times.pop(page_id), -1)

    def retune(self, page_id: int, expected_time: int) -> None:
        """Change a page's deadline in place."""
        if page_id not in self._times:
            raise InvalidInstanceError(f"unknown page id {page_id}")
        if expected_time <= 0:
            raise InvalidInstanceError(
                f"expected_time must be positive, got {expected_time}"
            )
        self._count(self._times[page_id], -1)
        self._times[page_id] = expected_time
        self._count(expected_time, 1)

    def _count(self, expected_time: int, delta: int) -> None:
        """Move one page into (``+1``) or out of (``-1``) a deadline."""
        count = self._counts.get(expected_time, 0) + delta
        if count:
            self._counts[expected_time] = count
        else:
            del self._counts[expected_time]
        self._required = None
        self._instance = None
        self._load_terms = None

    # ------------------------------------------------------------------
    # Theorem-3.1 load
    # ------------------------------------------------------------------

    def required_channels(self) -> int:
        """Theorem 3.1's ``ceil(sum_i P_i / t_i)`` in exact arithmetic.

        Computed from the per-deadline page counts (no instance
        construction) and kept until the next mutation; matches
        :func:`repro.core.bounds.minimum_channels` on every snapshot.
        """
        if self._required is None:
            self._required = required_channels_of(self._counts)
        return self._required

    def required_after(
        self, *, add: int | None = None, drop: int | None = None
    ) -> int:
        """The requirement with one more page of deadline ``add`` and/or
        one fewer of deadline ``drop``, priced without mutating the
        catalog — admission's what-if probe: an insert adds, a removal
        drops, a retune does both.
        """
        histogram = dict(self._counts)
        if drop is not None:
            histogram[drop] -= 1
            if not histogram[drop]:
                del histogram[drop]
        if add is not None:
            histogram[add] = histogram.get(add, 0) + 1
        return required_channels_of(histogram)

    def channel_load(self, extra: Iterable[int] = ()) -> float:
        """The fractional demand ``sum_i P_i / t_i`` in channel units.

        ``extra`` appends the deadlines of pages not in the catalog.  The
        terms are one builtin ``sum`` in catalog order, then ``extra``'s
        order, so the result is the float a mapping of the same pages in
        that order sums to, on every interpreter's ``sum``.  The
        catalog's terms are kept until its next mutation.
        """
        if self._load_terms is None:
            self._load_terms = [
                1.0 / expected for expected in self._times.values()
            ]
        return sum(
            chain(self._load_terms, (1.0 / expected for expected in extra))
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def to_instance(self) -> ProblemInstance:
        """An immutable snapshot for the schedulers.

        Pages sharing an expected time become one group; groups are
        numbered 1..h in ascending-deadline order with pages in page-id
        order, so equal catalogs produce fingerprint-equal instances
        (the engine's program cache keys on that).  The snapshot is
        kept until the next mutation.

        Raises:
            InvalidInstanceError: If the live expected times no longer
                form a divisibility ladder.
        """
        if self._instance is None:
            self._instance = self._snapshot()
        return self._instance

    def _snapshot(self) -> ProblemInstance:
        by_time: dict[int, list[int]] = {}
        for page_id, expected in self._times.items():
            by_time.setdefault(expected, []).append(page_id)
        groups = []
        for index, expected in enumerate(sorted(by_time), start=1):
            pages = tuple(
                Page(
                    page_id=page_id,
                    group_index=index,
                    expected_time=expected,
                )
                for page_id in sorted(by_time[expected])
            )
            groups.append(
                Group(index=index, expected_time=expected, pages=pages)
            )
        return ProblemInstance(groups=tuple(groups))

    def __repr__(self) -> str:
        times = sorted(set(self._times.values()))
        return (
            f"LiveCatalog(pages={len(self._times)}, times={times}, "
            f"load={self.channel_load():.3f})"
        )
