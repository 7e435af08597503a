"""The multi-channel broadcast program ``B`` (Section 3.2).

A broadcast program is conceptually a 2-D array: each row is a broadcast
channel, each column is a time slot, and the whole grid repeats cyclically
with period ``cycle_length`` (the paper's major cycle ``t_major``; ``t_h``
for SUSC programs).  A cell holds at most one page id.

Indexing convention: **0-based** channels and slots throughout the code
(the paper is 1-based; :meth:`BroadcastProgram.render` shows 1-based labels
so its output can be compared against the paper's Figure 2 directly).

The grid is deliberately a plain list-of-lists rather than a numpy array:
cells hold optional page ids, programs are small (``N x t_major``), and the
schedulers probe single cells far more often than they scan rows.  An
int64 mirror of it (:meth:`BroadcastProgram.packed_grid`, :data:`FREE`
marking empty cells) serves the array consumers.

Every question a client asks of a program — when does page ``p`` next
air, how often, on which channels — is answered by one
:class:`AppearanceIndex`, built from the packed grid by a single stable
argsort.  The program builds it on first demand and shares it with
its copies; the index's arrays never change.  A page-level edit
(:meth:`~BroadcastProgram.assign_page`/:meth:`~BroadcastProgram.
clear_page`) swaps in a new index with that one page's row spliced
(:meth:`AppearanceIndex.with_row`), while a single-cell
:meth:`~BroadcastProgram.assign`/:meth:`~BroadcastProgram.clear` drops
it: the schedulers build grids cell by cell before anything is asked.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.errors import (
    InvalidInstanceError,
    SimulationError,
    SlotConflictError,
)

__all__ = [
    "FREE",
    "SlotRef",
    "AppearanceIndex",
    "BroadcastProgram",
    "batch_waits",
]

FREE = -1
"""The packed grid's free-cell marker; no page may use this id."""


@dataclass(frozen=True, slots=True, order=True)
class SlotRef:
    """A reference to one cell of a broadcast program.

    Ordering is (slot, channel): earlier airtime first, which is the order
    clients experience and the order placement algorithms scan columns.
    """

    slot: int
    channel: int

    def __str__(self) -> str:
        return f"(ch={self.channel}, slot={self.slot})"


def _cyclic_gaps(
    slots: np.ndarray, offsets: np.ndarray, cycle: int
) -> np.ndarray:
    """Gap from each slot to its row's next one, the last wrapping."""
    last = offsets[1:] - 1
    following = np.arange(1, slots.shape[0] + 1)
    following[last] = offsets[:-1]
    gaps = slots[following] - slots
    gaps[last] += cycle
    return gaps


def _gather(
    offsets: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and flat positions of ``rows`` (``-1``: empty) re-packed."""
    present = rows >= 0
    starts = np.where(present, offsets[rows], 0)
    counts = np.where(present, offsets[rows + 1] - starts, 0)
    packed = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=packed[1:])
    take = np.repeat(starts - packed[:-1], counts) + np.arange(packed[-1])
    return packed, take


def _splice(
    values: np.ndarray, start: int, stop: int, middle: np.ndarray
) -> np.ndarray:
    """``values`` with ``values[start:stop]`` replaced by ``middle``."""
    return np.concatenate((values[:start], middle, values[stop:]))


def _splice_offsets(
    offsets: np.ndarray, row: int, present: bool, length: int
) -> tuple[np.ndarray, int, int]:
    """Row offsets after row ``row`` takes ``length`` entries.

    ``present`` says whether the row exists now; a zero ``length``
    leaves the row out.  Returns the new offsets and the flat span
    ``[start, stop)`` the row occupies in the old arrays (empty when it
    is new).
    """
    start = int(offsets[row])
    stop = int(offsets[row + 1]) if present else start
    tail = offsets[row + 1 + present:] + (length - (stop - start))
    head = offsets[:row + 1]
    if length:
        middle = np.array([start + length], dtype=np.int64)
        return np.concatenate((head, middle, tail)), start, stop
    return np.concatenate((head, tail)), start, stop


@dataclass(frozen=True, eq=False)
class AppearanceIndex:
    """Every page's appearances in one program, as flat int64 arrays.

    Row ``r`` is page ``page_ids[r]``: its ascending distinct slots are
    ``slots[offsets[r]:offsets[r + 1]]``, with the cyclic gap from each
    to the next at the same positions of ``gaps`` (a row's gaps sum to
    ``cycle_length``); its cells, in airtime ``(slot, channel)`` order,
    are ``cell_slots``/``cell_channels[cell_offsets[r]:cell_offsets[r +
    1]]``.  A program's own index has its pages sorted by id and no
    empty row.  Derived tables (the scalar queries' Python-list views,
    the row lookups, the wait kernels' keys and table) are built on
    first use and cached on the instance, so they die with it; the
    wait table's first use comes once the wait queries the index has
    answered have paid for building it (:meth:`_wait_table`).
    """

    cycle_length: int
    page_ids: np.ndarray
    offsets: np.ndarray
    slots: np.ndarray
    gaps: np.ndarray
    cell_offsets: np.ndarray
    cell_slots: np.ndarray
    cell_channels: np.ndarray
    _counts: dict[int, int] | None = field(init=False, repr=False)
    _slot_rows: dict[int, list[int]] | None = field(init=False, repr=False)
    _gap_rows: dict[int, list[int]] | None = field(init=False, repr=False)
    _answered: int = field(init=False, repr=False)

    @classmethod
    def from_packed(cls, packed: np.ndarray) -> "AppearanceIndex":
        """Index a packed int64 grid (:data:`FREE` marks empty cells)."""
        num_channels, cycle = packed.shape
        # Column-major order numbers the cells by airtime (slot, then
        # channel); a stable sort by page id keeps that order per page.
        flat = packed.T.ravel()
        cells = np.flatnonzero(flat != FREE)
        cells = cells[np.argsort(flat[cells], kind="stable")]
        pids = flat[cells]
        cell_slots, cell_channels = np.divmod(cells, num_channels)
        first_cell = np.ones(pids.shape[0], dtype=bool)
        first_cell[1:] = pids[1:] != pids[:-1]
        distinct = first_cell.copy()
        distinct[1:] |= cell_slots[1:] != cell_slots[:-1]
        slots = cell_slots[distinct]
        offsets = np.append(
            np.flatnonzero(first_cell[distinct]), slots.shape[0]
        )
        return cls(
            cycle_length=cycle,
            page_ids=pids[first_cell],
            offsets=offsets,
            slots=slots,
            gaps=_cyclic_gaps(slots, offsets, cycle),
            cell_offsets=np.append(
                np.flatnonzero(first_cell), pids.shape[0]
            ),
            cell_slots=cell_slots,
            cell_channels=cell_channels,
        )

    @classmethod
    def from_program(
        cls,
        program: "BroadcastProgram",
        page_ids: Iterable[int] | None = None,
    ) -> "AppearanceIndex":
        """``program``'s own index, or with rows for ``page_ids`` in order.

        Re-rowing is a gather; pages absent from the program get empty
        rows (callers decide whether that is an error or an off-air
        observation).
        """
        index = program._appearance_index()
        if page_ids is None:
            return index
        ids = np.asarray(list(page_ids), dtype=np.int64)
        rows = index.rows_for(ids)
        offsets, take = _gather(index.offsets, rows)
        cell_offsets, cell_take = _gather(index.cell_offsets, rows)
        return cls(
            cycle_length=index.cycle_length,
            page_ids=ids,
            offsets=offsets,
            slots=index.slots[take],
            gaps=index.gaps[take],
            cell_offsets=cell_offsets,
            cell_slots=index.cell_slots[cell_take],
            cell_channels=index.cell_channels[cell_take],
        )

    # ------------------------------------------------------------------
    # One page's row
    # ------------------------------------------------------------------

    def _find_row(self, page_id: int) -> int:
        """The row of ``page_id``, or ``-1`` when it is not indexed."""
        row = int(np.searchsorted(self.page_ids, page_id))
        if row < self.page_ids.shape[0] and self.page_ids[row] == page_id:
            return row
        return -1

    def row_cells(self, page_id: int) -> tuple[np.ndarray, np.ndarray]:
        """``page_id``'s cells as ``(channels, slots)``, in airtime order.

        Both arrays are empty for a page the index does not hold.
        """
        row = self._find_row(page_id)
        if row < 0:
            return self.cell_channels[:0], self.cell_slots[:0]
        start, stop = self.cell_offsets[row:row + 2].tolist()
        return (
            self.cell_channels[start:stop],
            self.cell_slots[start:stop],
        )

    def row_slots(self, page_id: int) -> tuple[np.ndarray, np.ndarray]:
        """``page_id``'s ascending distinct slots and their cyclic gaps.

        Both arrays are empty for a page the index does not hold.
        """
        row = self._find_row(page_id)
        if row < 0:
            return self.slots[:0], self.gaps[:0]
        start, stop = self.offsets[row:row + 2].tolist()
        return self.slots[start:stop], self.gaps[start:stop]

    def with_row(
        self, page_id: int, channels, slots
    ) -> "AppearanceIndex":
        """A new index whose row for ``page_id`` holds exactly these cells.

        ``channels[k], slots[k]`` name the page's cells, in any order;
        none removes its row (and an absent page with none returns this
        index unchanged).  Every other row is sliced out of this index's
        arrays and concatenated around the new one, so the result equals
        :meth:`from_packed` of the edited grid array for array, dtypes
        included, at a cost set by the array lengths rather than by a
        sort of the grid.  Like any fresh index, it has answered no wait
        queries and built no derived table yet.
        """
        channels = np.asarray(channels, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        count = slots.shape[0]
        row = int(np.searchsorted(self.page_ids, page_id))
        present = bool(
            row < self.page_ids.shape[0] and self.page_ids[row] == page_id
        )
        if not present and not count:
            return self
        if count > 1:
            order = np.lexsort((channels, slots))
            channels, slots = channels[order], slots[order]
        distinct = np.ones(count, dtype=bool)
        distinct[1:] = slots[1:] != slots[:-1]
        row_slots = slots[distinct]
        row_gaps = np.empty_like(row_slots)
        if count:
            np.subtract(row_slots[1:], row_slots[:-1], out=row_gaps[:-1])
            row_gaps[-1] = row_slots[0] + self.cycle_length - row_slots[-1]
        page_ids = self.page_ids
        if not (present and count):
            page_ids = _splice(
                page_ids,
                row,
                row + present,
                np.array([page_id] if count else [], dtype=np.int64),
            )
        offsets, start, stop = _splice_offsets(
            self.offsets, row, present, row_slots.shape[0]
        )
        cell_offsets, cell_start, cell_stop = _splice_offsets(
            self.cell_offsets, row, present, count
        )
        return AppearanceIndex(
            cycle_length=self.cycle_length,
            page_ids=page_ids,
            offsets=offsets,
            slots=_splice(self.slots, start, stop, row_slots),
            gaps=_splice(self.gaps, start, stop, row_gaps),
            cell_offsets=cell_offsets,
            cell_slots=_splice(self.cell_slots, cell_start, cell_stop, slots),
            cell_channels=_splice(
                self.cell_channels, cell_start, cell_stop, channels
            ),
        )

    # ------------------------------------------------------------------
    # Lazy views for the program's scalar queries
    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        # Filled on first use.  Plain attributes, not cached properties,
        # which read markedly slower: the scalar queries read these once
        # per page per metric and once per simulated request.
        object.__setattr__(self, "_counts", None)
        object.__setattr__(self, "_slot_rows", None)
        object.__setattr__(self, "_gap_rows", None)
        # Wait queries answered so far; see :meth:`_wait_table`.
        object.__setattr__(self, "_answered", 0)

    def _build_counts(self) -> dict[int, int]:
        """``_counts``: page id -> appearance cells, in row order."""
        counts = dict(
            zip(self.page_ids.tolist(), np.diff(self.cell_offsets).tolist())
        )
        object.__setattr__(self, "_counts", counts)
        return counts

    def _split(self, name: str, values: np.ndarray) -> dict[int, list[int]]:
        flat = values.tolist()
        bounds = self.offsets.tolist()
        rows = dict(
            zip(
                self.page_ids.tolist(),
                [flat[a:b] for a, b in zip(bounds, bounds[1:])],
            )
        )
        object.__setattr__(self, name, rows)
        return rows

    def _build_slot_rows(self) -> dict[int, list[int]]:
        """``_slot_rows``: page id -> ascending distinct slots."""
        return self._split("_slot_rows", self.slots)

    def _build_gap_rows(self) -> dict[int, list[int]]:
        """``_gap_rows``: page id -> cyclic gaps."""
        return self._split("_gap_rows", self.gaps)

    # ------------------------------------------------------------------
    # Batch lookups for the wait kernels
    # ------------------------------------------------------------------

    @cached_property
    def _row_lut(self) -> np.ndarray | None:
        """Dense ``id -> row`` table, or ``None`` for sparse id spaces."""
        if not self.page_ids.size:
            return None
        top = int(self.page_ids.max())
        if (
            int(self.page_ids.min()) < 0
            or top > 4 * self.page_ids.size + 1024
        ):
            return None
        lut = np.full(top + 2, -1, dtype=np.int64)
        lut[self.page_ids] = np.arange(
            self.page_ids.shape[0], dtype=np.int64
        )
        return lut

    def rows_for(self, page_ids: np.ndarray) -> np.ndarray:
        """Resolve many page ids to row indices (``-1`` = not indexed).

        A cached ``id -> row`` lookup table turns resolution into one
        gather when the id space is dense (the common case: page ids
        grow by insertion); sparse id spaces fall back to a
        ``searchsorted`` over the sorted ``page_ids``.
        """
        lut = self._row_lut
        page_ids = np.asarray(page_ids, dtype=np.int64)
        if lut is not None:
            top = lut.shape[0] - 2
            safe = np.where(
                (page_ids >= 0) & (page_ids <= top), page_ids, top + 1
            )
            return lut[safe]
        if not self.page_ids.size:
            return np.full(page_ids.shape[0], -1, dtype=np.int64)
        pos = np.searchsorted(self.page_ids, page_ids)
        pos = np.minimum(pos, self.page_ids.shape[0] - 1)
        return np.where(self.page_ids[pos] == page_ids, pos, -1)

    @cached_property
    def _row_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot integer sort keys and each row's first position.

        ``keys[k] = slot + row * cycle`` is globally sorted because each
        row's slots are sorted within ``[0, cycle)``, which lets
        :func:`batch_waits` resolve a whole mixed-page batch with one
        ``searchsorted`` instead of a Python loop per distinct page.
        ``firsts[row]`` is the flat position of the row's first slot
        (``-1`` for off-air rows).  Integer keys, not biased floats:
        ``arrival + row * cycle`` can round across a slot boundary,
        breaking bit-identity with the scalar kernel.
        """
        counts = np.diff(self.offsets)
        row_of_slot = np.repeat(
            np.arange(counts.shape[0], dtype=np.int64), counts
        )
        keys = self.slots + row_of_slot * self.cycle_length
        firsts = np.where(counts > 0, self.offsets[:-1], -1)
        return keys, firsts

    #: Memory cap on the dense wait table: past this many row x arrival
    #: cells the wait kernel binary-searches however many queries the
    #: index answers.
    _WAIT_LUT_MAX_CELLS = 1 << 16

    #: What the dense wait table costs and saves, in nanoseconds: a
    #: build is a fixed ~30 µs of numpy calls plus ~0.8 ns a cell, and
    #: each query it answers takes ~75 ns less than the binary search.
    #: Measured over whole :func:`batch_waits` calls and builds on PAMAD
    #: programs of 9k-63k cells on a 2-vCPU host.
    _TABLE_BUILD_NS = 30_000
    _TABLE_CELL_NS = 0.8
    _TABLE_QUERY_SAVING_NS = 75

    @cached_property
    def _wait_table_price(self) -> int:
        """The dense wait table's build cost, counted in queries.

        The number of queries whose search-path surplus pays for
        building the table's ``rows x (cycle + 1)`` cells.
        """
        cells = self.page_ids.shape[0] * (self.cycle_length + 1)
        return math.ceil(
            (self._TABLE_BUILD_NS + cells * self._TABLE_CELL_NS)
            / self._TABLE_QUERY_SAVING_NS
        )

    def _wait_table(self, batch: int) -> np.ndarray | None:
        """The dense wait table for a batch of ``batch`` queries, or ``None``.

        Ski rental: the index binary-searches while the queries it has
        answered, this batch included, cost less than building the
        table (:attr:`_wait_table_price`), and builds the table once
        they reach that price.  The total then never exceeds about
        twice the cheaper choice made in hindsight.  Every mutation
        gives a program a fresh index (a row patch or, later, a
        rebuild), so under catalog churn the few listeners between two
        mutations never pay for a table, while
        long listener runs on one program build it in their first
        batches.  ``None`` also when :attr:`_wait_lut` is.
        """
        answered = self._answered + batch
        object.__setattr__(self, "_answered", answered)
        if answered < self._wait_table_price:
            return None
        return self._wait_lut

    @cached_property
    def _wait_lut(self) -> np.ndarray | None:
        """Dense next-appearance table, built by :meth:`_wait_table`.

        ``lut[row * (cycle + 1) + c]`` is the slot a request arriving at
        any time with ``ceil(arrival) == c`` waits for — the row's first
        slot ``>= c``, or its first slot plus one cycle when the arrival
        is past the row's last appearance.  This turns the whole wait
        search into one gather; ``None`` when the table would pass
        :attr:`_WAIT_LUT_MAX_CELLS` or any row is empty (the search path
        owns the off-air error).

        A row's table is its slots, each repeated over the arrivals it
        serves (``s0 + 1`` of them for the first, the slot difference
        for the rest), followed by the wrapped first slot ``s0 + cycle``
        repeated ``cycle - s_last`` times: one ``np.repeat`` over the
        whole index.
        """
        counts = np.diff(self.offsets)
        cycle = self.cycle_length
        if (
            counts.size == 0
            or counts.shape[0] * (cycle + 1) > self._WAIT_LUT_MAX_CELLS
            or bool((counts == 0).any())
        ):
            return None
        starts = self.offsets[:-1]
        lasts = self.offsets[1:] - 1
        # Row r's values sit at [offsets[r] + r, offsets[r + 1] + r]:
        # its slots, then the wrapped first slot.
        wraps = lasts + 1 + np.arange(counts.shape[0])
        values = np.empty(self.slots.shape[0] + counts.shape[0], np.int64)
        repeats = np.empty_like(values)
        keep = np.ones(values.shape[0], dtype=bool)
        keep[wraps] = False
        values[keep] = self.slots
        values[wraps] = self.slots[starts] + cycle
        spans = np.empty_like(self.slots)
        spans[1:] = self.slots[1:] - self.slots[:-1]
        spans[starts] = self.slots[starts] + 1
        repeats[keep] = spans
        repeats[wraps] = cycle - self.slots[lasts]
        return np.repeat(values, repeats)


def batch_waits(
    index: AppearanceIndex,
    rows: np.ndarray,
    arrivals: np.ndarray,
) -> np.ndarray:
    """Waiting times for many (page row, arrival) pairs in one pass.

    Bit-identical to calling :meth:`BroadcastProgram.wait_time` per
    request: arrivals are reduced into ``[0, cycle)`` with ``fmod``
    (exactly Python's ``%`` for the non-negative times used here), the
    next appearance is found with a single ``searchsorted`` over the
    whole batch, and the wrapped case computes ``(first_slot + cycle) -
    arrival`` in the scalar's operation order.  The search runs on
    integer keys ``slot + row * cycle`` against needles ``ceil(arrival)
    + row * cycle`` — exact arithmetic, and for integer slots ``slot >=
    arrival`` iff ``slot >= ceil(arrival)``, so positions match the
    scalar scan even for arrivals within one ULP of a slot boundary.
    Once the queries the index has answered reach the build cost of its
    dense wait table (:meth:`AppearanceIndex._wait_table`), the search
    becomes a gather from that table.  Rows must be on air (non-empty);
    callers mask off-air pages first.

    Args:
        index: An appearance index (a program's own or a re-rowed one).
        rows: Row index (into ``index.page_ids``) per request.
        arrivals: Arrival time per request (any non-negative float).

    Returns:
        float64 wait per request, in request order.

    Raises:
        SimulationError: If a row is outside ``[0, len(index.page_ids))``
            or names an off-air page.
    """
    arrivals = np.fmod(
        np.asarray(arrivals, dtype=np.float64), index.cycle_length
    )
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size:
        low, high = int(rows.min()), int(rows.max())
        if low < 0 or high >= index.page_ids.shape[0]:
            raise SimulationError(
                f"row {low if low < 0 else high} out of range "
                f"0..{index.page_ids.shape[0] - 1}"
            )
    lut = index._wait_table(rows.shape[0])
    if lut is not None:
        # Dense fast path: one gather instead of a binary search.  The
        # table stores exact integer slot values (wrap pre-applied), so
        # the subtraction below is the scalar's final operation verbatim
        # — bit-identity holds along both paths.
        cells = np.ceil(arrivals).astype(np.int64)
        cells += rows * (index.cycle_length + 1)
        return lut[cells] - arrivals
    keys, firsts = index._row_keys
    row_firsts = firsts[rows]
    if row_firsts.size and row_firsts.min() < 0:
        bad = rows[row_firsts < 0]
        raise SimulationError(
            f"page {int(index.page_ids[bad.min()])} does not appear in "
            "the program"
        )
    cycle = index.cycle_length
    needles = np.ceil(arrivals).astype(np.int64) + rows * cycle
    pos = np.searchsorted(keys, needles, side="left")
    wrapped = pos == index.offsets[rows + 1]
    next_slot = index.slots[np.where(wrapped, row_firsts, pos)]
    return np.where(wrapped, next_slot + cycle, next_slot) - arrivals


class BroadcastProgram:
    """A cyclic ``num_channels x cycle_length`` broadcast schedule.

    The program owns its grid; schedulers fill it through :meth:`assign`,
    which refuses to overwrite an occupied cell so double-placement bugs
    surface immediately instead of silently corrupting the schedule.
    """

    def __init__(self, num_channels: int, cycle_length: int) -> None:
        if num_channels <= 0:
            raise InvalidInstanceError(
                f"num_channels must be positive, got {num_channels}"
            )
        if cycle_length <= 0:
            raise InvalidInstanceError(
                f"cycle_length must be positive, got {cycle_length}"
            )
        self._num_channels = num_channels
        self._cycle_length = cycle_length
        self._grid: list[list[int | None]] = [
            [None] * cycle_length for _ in range(num_channels)
        ]
        # Appearance index of the grid; None until queried, and again
        # after any mutation.
        self._index: AppearanceIndex | None = None
        # Packed int64 mirror of the grid (FREE = empty), built lazily by
        # :meth:`packed_grid` and kept in sync cell-by-cell on mutation.
        # The array-kernel constructors seed it for free, so consumers
        # like the live re-plan patcher never pay an O(grid) conversion.
        self._packed = None
        # Bumped on every cell mutation; see :attr:`version`.
        self._version = 0

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_channels(self) -> int:
        """Number of broadcast channels (grid rows)."""
        return self._num_channels

    @property
    def cycle_length(self) -> int:
        """Major-cycle length ``t_major`` in slots (grid columns)."""
        return self._cycle_length

    @property
    def total_slots(self) -> int:
        """Total number of cells in one cycle."""
        return self._num_channels * self._cycle_length

    @property
    def version(self) -> int:
        """Mutation stamp: incremented by every :meth:`assign`/:meth:`clear`.

        External caches keyed on ``(id(program), program.version)`` stay
        coherent across in-place repairs without subscribing to every
        mutation.
        """
        return self._version

    # ------------------------------------------------------------------
    # Cell access
    # ------------------------------------------------------------------

    def _check_cell(self, channel: int, slot: int) -> None:
        if not 0 <= channel < self._num_channels:
            raise InvalidInstanceError(
                f"channel {channel} out of range 0..{self._num_channels - 1}"
            )
        if not 0 <= slot < self._cycle_length:
            raise InvalidInstanceError(
                f"slot {slot} out of range 0..{self._cycle_length - 1}"
            )

    def get(self, channel: int, slot: int) -> int | None:
        """Return the page id at a cell, or ``None`` if the cell is free."""
        self._check_cell(channel, slot)
        return self._grid[channel][slot]

    def is_free(self, channel: int, slot: int) -> bool:
        """True if the cell holds no page."""
        return self.get(channel, slot) is None

    def assign(self, channel: int, slot: int, page_id: int) -> None:
        """Place ``page_id`` at ``(channel, slot)``.

        Raises:
            InvalidInstanceError: If ``page_id`` is the reserved
                :data:`FREE` marker.
            SlotConflictError: If the cell is already occupied.
        """
        self._check_cell(channel, slot)
        if page_id == FREE:
            raise InvalidInstanceError(
                f"page id {FREE} is reserved for free cells"
            )
        occupant = self._grid[channel][slot]
        if occupant is not None:
            raise SlotConflictError(
                f"slot (ch={channel}, slot={slot}) already holds page "
                f"{occupant}; cannot place page {page_id}"
            )
        self._grid[channel][slot] = page_id
        self._index = None
        if self._packed is not None:
            self._packed[channel, slot] = page_id
        self._version += 1

    def clear(self, channel: int, slot: int) -> int | None:
        """Remove and return the page at a cell (``None`` if it was free)."""
        self._check_cell(channel, slot)
        occupant = self._grid[channel][slot]
        if occupant is not None:
            self._grid[channel][slot] = None
            self._index = None
            if self._packed is not None:
                self._packed[channel, slot] = FREE
            self._version += 1
        return occupant

    def assign_page(self, page_id: int, channels, slots) -> None:
        """Place ``page_id`` at every cell ``(channels[k], slots[k])``.

        The checks and the :attr:`version` count of one :meth:`assign`
        per cell, all made on the packed mirror before any cell is
        written; a built appearance index is kept current by patching
        ``page_id``'s row (:meth:`AppearanceIndex.with_row`) instead of
        being dropped.

        Raises:
            InvalidInstanceError: If ``page_id`` is :data:`FREE`, a cell
                is out of range or the two sequences differ in shape.
            SlotConflictError: If a cell is occupied or named twice.
        """
        channels = np.asarray(channels, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        if channels.ndim != 1 or channels.shape != slots.shape:
            raise InvalidInstanceError(
                f"page {page_id}: {channels.shape} channels for "
                f"{slots.shape} slots"
            )
        if page_id == FREE:
            raise InvalidInstanceError(
                f"page id {FREE} is reserved for free cells"
            )
        if not slots.size:
            return
        self._check_cell(int(channels.min()), int(slots.min()))
        self._check_cell(int(channels.max()), int(slots.max()))
        packed = self.packed_grid()
        occupants = packed[channels, slots]
        if (occupants != FREE).any():
            at = int(np.flatnonzero(occupants != FREE)[0])
            raise SlotConflictError(
                f"slot (ch={int(channels[at])}, slot={int(slots[at])}) "
                f"already holds page {int(occupants[at])}; cannot place "
                f"page {page_id}"
            )
        keys = np.sort(slots * self._num_channels + channels)
        if (keys[1:] == keys[:-1]).any():
            raise SlotConflictError(f"page {page_id} names one cell twice")
        packed[channels, slots] = page_id
        grid = self._grid
        for channel, slot in zip(channels.tolist(), slots.tolist()):
            grid[channel][slot] = page_id
        self._version += slots.shape[0]
        index = self._index
        if index is not None:
            held_channels, held_slots = index.row_cells(page_id)
            if held_slots.size:
                channels = np.concatenate((held_channels, channels))
                slots = np.concatenate((held_slots, slots))
            self._index = index.with_row(page_id, channels, slots)

    def clear_page(self, page_id: int) -> int:
        """Free every cell holding ``page_id``; returns how many it freed.

        One :meth:`clear` per cell, except that a built appearance index
        loses ``page_id``'s row (:meth:`AppearanceIndex.with_row`)
        instead of being dropped.
        """
        index = self._index
        if index is not None:
            channels, slots = index.row_cells(page_id)
        else:
            channels, slots = np.nonzero(self.packed_grid() == page_id)
        freed = int(slots.shape[0])
        if not freed:
            return 0
        grid = self._grid
        for channel, slot in zip(channels.tolist(), slots.tolist()):
            grid[channel][slot] = None
        if self._packed is not None:
            self._packed[channels, slots] = FREE
        self._version += freed
        if index is not None:
            self._index = index.with_row(page_id, (), ())
        return freed

    # ------------------------------------------------------------------
    # Scans used by the schedulers
    # ------------------------------------------------------------------

    def free_slot_in_channel_window(
        self, channel: int, window: int
    ) -> int | None:
        """First free slot index in ``channel`` among slots ``0..window-1``.

        This is the inner scan of the paper's GetAvailableSlot (Algorithm 2):
        the window is the page's expected time ``t_i``.
        """
        limit = min(window, self._cycle_length)
        row = self._grid[channel]
        for slot in range(limit):
            if row[slot] is None:
                return slot
        return None

    def free_channel_in_column(self, slot: int) -> int | None:
        """First channel with a free cell in column ``slot`` (Algorithm 4 scan)."""
        self._check_cell(0, slot)
        for channel in range(self._num_channels):
            if self._grid[channel][slot] is None:
                return channel
        return None

    def free_cells(self) -> Iterator[SlotRef]:
        """Iterate over all free cells in (slot, channel) order."""
        for slot in range(self._cycle_length):
            for channel in range(self._num_channels):
                if self._grid[channel][slot] is None:
                    yield SlotRef(slot=slot, channel=channel)

    def occupancy(self) -> float:
        """Fraction of cells holding a page."""
        used = self.total_slots - sum(
            row.count(None) for row in self._grid
        )
        return used / self.total_slots

    # ------------------------------------------------------------------
    # Appearance queries (the client's view)
    # ------------------------------------------------------------------

    def _appearance_index(self) -> AppearanceIndex:
        if self._index is None:
            self._index = AppearanceIndex.from_packed(self.packed_grid())
        return self._index

    # The scalar queries below inline ``self._index or ...`` and the
    # index's ``view or build`` reads: they run once per page per metric
    # and once per simulated request, so every extra call shows.

    def _count_view(self) -> dict[int, int]:
        index = self._index or self._appearance_index()
        return index._counts or index._build_counts()

    def page_ids(self) -> set[int]:
        """All page ids appearing at least once in the program."""
        return set(self._count_view())

    def appearances(self, page_id: int) -> list[SlotRef]:
        """All cells holding ``page_id``, sorted by airtime."""
        channels, slots = self._appearance_index().row_cells(page_id)
        return [
            SlotRef(slot=slot, channel=channel)
            for slot, channel in zip(slots.tolist(), channels.tolist())
        ]

    def appearance_slots(self, page_id: int) -> list[int]:
        """Sorted slot indices at which ``page_id`` is broadcast.

        A page may appear on any channel; a client with the program index
        tunes to whichever channel carries the next appearance, so only the
        slot (column) matters for waiting time.
        """
        index = self._index or self._appearance_index()
        rows = index._slot_rows or index._build_slot_rows()
        return [*rows.get(page_id, ())]

    def broadcast_count(self, page_id: int) -> int:
        """Number of appearances of ``page_id`` in one cycle (``s_{i,j}``)."""
        index = self._index or self._appearance_index()
        return (index._counts or index._build_counts()).get(page_id, 0)

    def page_counts(self) -> Counter[int]:
        """Appearance count per page id."""
        return Counter(self._count_view())

    def cyclic_gaps(self, page_id: int) -> list[int]:
        """Cyclic gaps between consecutive appearances of ``page_id``.

        The gaps partition the cycle: they always sum to ``cycle_length``.
        A page appearing once has a single gap equal to the whole cycle.
        """
        index = self._index or self._appearance_index()
        try:
            return [*(index._gap_rows or index._build_gap_rows())[page_id]]
        except KeyError:
            raise InvalidInstanceError(
                f"page {page_id} does not appear in the program"
            ) from None

    def wait_time(self, page_id: int, arrival: float) -> float:
        """Time from ``arrival`` until the next broadcast start of ``page_id``.

        ``arrival`` is a (possibly fractional) time in ``[0, cycle_length)``;
        a client arriving exactly when the page starts waits zero.
        """
        index = self._index or self._appearance_index()
        slots = (index._slot_rows or index._build_slot_rows()).get(page_id)
        if slots is None:
            raise InvalidInstanceError(
                f"page {page_id} does not appear in the program"
            )
        if not 0 <= arrival < self._cycle_length:
            arrival %= self._cycle_length
        # The first slot >= arrival, found by bisection.
        at = bisect_left(slots, arrival)
        if at < len(slots):
            return slots[at] - arrival
        return slots[0] + self._cycle_length - arrival

    # ------------------------------------------------------------------
    # Bulk construction
    # ------------------------------------------------------------------

    @classmethod
    def from_grid(
        cls, grid: Sequence[Sequence[int | None]]
    ) -> "BroadcastProgram":
        """Build a program from a complete grid in one pass.

        Equivalent to constructing an empty program and :meth:`assign`-ing
        every non-``None`` cell in row-major order, but without per-cell
        bounds and conflict checks (each cell is written exactly once by
        construction).  Fast placement kernels materialise their result
        through this path.
        """
        if not grid or not grid[0]:
            raise InvalidInstanceError("grid must be non-empty")
        cycle_length = len(grid[0])
        program = cls(num_channels=len(grid), cycle_length=cycle_length)
        rows = program._grid
        for channel, row in enumerate(grid):
            if len(row) != cycle_length:
                raise InvalidInstanceError(
                    f"grid row {channel} has {len(row)} slots, expected "
                    f"{cycle_length}"
                )
            rows[channel] = list(row)
            if FREE in rows[channel]:
                raise InvalidInstanceError(
                    f"grid row {channel} holds page id {FREE}, which is "
                    "reserved for free cells"
                )
        return program

    @classmethod
    def from_array(cls, array) -> "BroadcastProgram":
        """Build a program from an int array grid (:data:`FREE` marks empty).

        The vectorised placement kernels finish holding a numpy
        ``(num_channels, cycle_length)`` int grid; this converts it in
        bulk (one C-level pass per row, no per-cell Python loop).
        """
        arr = np.asarray(array)
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidInstanceError("grid must be a non-empty 2-D array")
        program = cls(
            num_channels=arr.shape[0], cycle_length=arr.shape[1]
        )
        program._load_packed(arr.astype(np.int64))
        return program

    def _load_packed(self, packed) -> None:
        """Adopt an owned int64 ``packed`` grid; the index is deferred.

        Shape, list grid and packed mirror all come from ``packed``.
        :attr:`version` is the caller's.
        """
        cells = packed.astype(object)
        cells[packed == FREE] = None
        self._num_channels, self._cycle_length = packed.shape
        self._grid = cells.tolist()
        self._index = None
        self._packed = packed

    def copy(self) -> "BroadcastProgram":
        """An independent copy of this program.

        The grid rows and the packed mirror are duplicated; the
        appearance index is immutable, so the clone shares it until
        either side mutates.  The live re-plan patcher copies the on-air
        program this way before editing one group's cells.
        """
        clone = BroadcastProgram(
            num_channels=self._num_channels,
            cycle_length=self._cycle_length,
        )
        clone._grid = [list(row) for row in self._grid]
        clone._index = self._index
        if self._packed is not None:
            clone._packed = self._packed.copy()
        return clone

    def grid_rows(self) -> list[list[int | None]]:
        """A copy of the raw grid, row per channel (for bulk consumers)."""
        return [list(row) for row in self._grid]

    def packed_grid(self):
        """The grid as an int64 numpy array, :data:`FREE` marking free cells.

        The array is the program's internal mirror — treat it as
        read-only and ``.copy()`` before editing.  Programs built by the
        array kernels (:meth:`from_array`) carry it from birth; for
        others the first call pays one O(grid) conversion, after which
        :meth:`assign`/:meth:`clear` keep it in sync cell-by-cell.  The
        live re-plan patcher runs entirely on this mirror, which is what
        makes its taut-budget patches microsecond-scale.
        """
        if self._packed is None:
            self._packed = np.asarray(
                [
                    [FREE if cell is None else cell for cell in row]
                    for row in self._grid
                ],
                dtype=np.int64,
            )
        return self._packed

    # ------------------------------------------------------------------
    # Serialisation and rendering
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly representation of the program."""
        return {
            "num_channels": self._num_channels,
            "cycle_length": self._cycle_length,
            "grid": [list(row) for row in self._grid],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "BroadcastProgram":
        """Rebuild a program produced by :meth:`to_dict`."""
        program = cls(
            num_channels=int(data["num_channels"]),
            cycle_length=int(data["cycle_length"]),
        )
        grid: Sequence[Sequence[int | None]] = data["grid"]
        if len(grid) != program.num_channels:
            raise InvalidInstanceError(
                f"grid has {len(grid)} rows, expected {program.num_channels}"
            )
        for channel, row in enumerate(grid):
            if len(row) != program.cycle_length:
                raise InvalidInstanceError(
                    f"grid row {channel} has {len(row)} slots, expected "
                    f"{program.cycle_length}"
                )
            for slot, page_id in enumerate(row):
                if page_id is not None:
                    program.assign(channel, slot, int(page_id))
        return program

    def __getstate__(self) -> dict:
        """Pickle as the packed int64 grid plus :attr:`version`.

        Everything else — the nested-list grid and the appearance index —
        is derived from the grid, outweighs it several times over and
        costs far more to pickle.  Sweep results cross the process pool
        this way, so the wire carries one contiguous array per program
        and the receiving side rebuilds the rest lazily on first use.
        """
        return {"packed": self.packed_grid(), "version": self._version}

    def __setstate__(self, state: dict) -> None:
        """Rebuild a pickled program the way :meth:`from_array` does."""
        self._load_packed(state["packed"].astype(np.int64))
        self._version = state["version"]

    def to_json(self, indent: int | None = None) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "BroadcastProgram":
        """Deserialise a program from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def render(self, cell_width: int | None = None) -> str:
        """Pretty-print the grid in the style of the paper's Figure 2.

        Rows are channels, columns are time slots (labelled 1-based like the
        paper), empty cells show ``.``.
        """
        if cell_width is None:
            widest = max(
                (len(str(pid)) for pid in self._count_view()),
                default=1,
            )
            cell_width = max(widest, len(str(self._cycle_length))) + 1
        lines = []
        header = "time".rjust(6) + "".join(
            str(slot + 1).rjust(cell_width)
            for slot in range(self._cycle_length)
        )
        lines.append(header)
        for channel, row in enumerate(self._grid):
            cells = "".join(
                (str(page) if page is not None else ".").rjust(cell_width)
                for page in row
            )
            lines.append(f"ch{channel + 1}".rjust(6) + cells)
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BroadcastProgram):
            return NotImplemented
        return self._grid == other._grid

    def __repr__(self) -> str:
        return (
            f"BroadcastProgram(channels={self._num_channels}, "
            f"cycle={self._cycle_length}, "
            f"pages={self._appearance_index().page_ids.shape[0]}, "
            f"occupancy={self.occupancy():.2f})"
        )
