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
from typing import Mapping

from repro.core.errors import InvalidInstanceError
from repro.core.intmath import ceil_div
from repro.core.pages import Group, Page, ProblemInstance

__all__ = ["LiveCatalog"]


class LiveCatalog:
    """A mutable ``page_id -> expected_time`` catalog with exact load math."""

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

    def copy(self) -> "LiveCatalog":
        """An independent copy (admission control probes candidates on it).

        The entries were validated on their way in, so the copy takes
        them as they are instead of going back through ``__init__``.
        """
        clone = LiveCatalog.__new__(LiveCatalog)
        clone._times = dict(self._times)
        return clone

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

    def remove(self, page_id: int) -> None:
        """Drop a page; the catalog must never become empty."""
        if page_id not in self._times:
            raise InvalidInstanceError(f"unknown page id {page_id}")
        if len(self._times) == 1:
            raise InvalidInstanceError(
                "cannot remove the last page of the catalog"
            )
        del self._times[page_id]

    def retune(self, page_id: int, expected_time: int) -> None:
        """Change a page's deadline in place."""
        if page_id not in self._times:
            raise InvalidInstanceError(f"unknown page id {page_id}")
        if expected_time <= 0:
            raise InvalidInstanceError(
                f"expected_time must be positive, got {expected_time}"
            )
        self._times[page_id] = expected_time

    # ------------------------------------------------------------------
    # Theorem-3.1 load
    # ------------------------------------------------------------------

    def required_channels(self) -> int:
        """Theorem 3.1's ``ceil(sum_i P_i / t_i)`` in exact arithmetic.

        Computed directly on the mapping (no instance construction), so
        admission control can probe candidate catalogs cheaply; matches
        :func:`repro.core.bounds.minimum_channels` on every snapshot.
        """
        common = math.lcm(*set(self._times.values()))
        numerator = sum(
            common // expected for expected in self._times.values()
        )
        return ceil_div(numerator, common)

    def channel_load(self) -> float:
        """The fractional demand ``sum_i P_i / t_i`` in channel units."""
        return sum(1.0 / expected for expected in self._times.values())

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def to_instance(self) -> ProblemInstance:
        """An immutable snapshot for the schedulers.

        Pages sharing an expected time become one group; groups are
        numbered 1..h in ascending-deadline order with pages in page-id
        order, so equal catalogs produce fingerprint-equal instances
        (the engine's program cache keys on that).

        Raises:
            InvalidInstanceError: If the live expected times no longer
                form a divisibility ladder.
        """
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
