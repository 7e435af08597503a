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
schedulers probe single cells far more often than they scan rows.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.core.errors import InvalidInstanceError, SlotConflictError

__all__ = ["SlotRef", "BroadcastProgram"]


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
        # page_id -> sorted-on-demand list of SlotRef; the source of
        # truth for appearance queries.  ``None`` means "not built yet":
        # bulk constructors (:meth:`from_grid` / :meth:`from_array`)
        # defer the table and the first appearance query derives it from
        # the grid in one row-major pass — so building a program costs
        # O(rows copied) and consumers that never ask for appearances
        # (placement benchmarks, grid diffs) never pay for SlotRefs.
        self._appearances: dict[int, list[SlotRef]] | None = {}
        # Memoised derived tables, invalidated per page on any mutation
        # of that page's cells.  Delay evaluation calls appearance_slots/
        # cyclic_gaps once per page per metric, so repeated evaluation of
        # a finished program (the common analysis pattern) pays the sort
        # exactly once.
        self._slots_cache: dict[int, list[int]] = {}
        self._gaps_cache: dict[int, list[int]] = {}
        # Packed int64 mirror of the grid (-1 = free), built lazily by
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
        mutation (the appearance-index memo in
        :mod:`repro.analysis.vectorized` is the canonical consumer).
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

    def _appearance_table(self) -> dict[int, list[SlotRef]]:
        """The appearance table, derived from the grid on first demand."""
        table = self._appearances
        if table is None:
            table = {}
            for channel, row in enumerate(self._grid):
                for slot, page_id in enumerate(row):
                    if page_id is not None:
                        refs = table.get(page_id)
                        if refs is None:
                            table[page_id] = refs = []
                        refs.append(SlotRef(slot=slot, channel=channel))
            self._appearances = table
        return table

    def assign(self, channel: int, slot: int, page_id: int) -> None:
        """Place ``page_id`` at ``(channel, slot)``.

        Raises:
            SlotConflictError: If the cell is already occupied.
        """
        self._check_cell(channel, slot)
        occupant = self._grid[channel][slot]
        if occupant is not None:
            raise SlotConflictError(
                f"slot (ch={channel}, slot={slot}) already holds page "
                f"{occupant}; cannot place page {page_id}"
            )
        appearances = self._appearance_table()
        self._grid[channel][slot] = page_id
        appearances.setdefault(page_id, []).append(
            SlotRef(slot=slot, channel=channel)
        )
        self._slots_cache.pop(page_id, None)
        self._gaps_cache.pop(page_id, None)
        if self._packed is not None:
            self._packed[channel, slot] = page_id
        self._version += 1

    def clear(self, channel: int, slot: int) -> int | None:
        """Remove and return the page at a cell (``None`` if it was free)."""
        self._check_cell(channel, slot)
        occupant = self._grid[channel][slot]
        if occupant is not None:
            appearances = self._appearance_table()
            self._grid[channel][slot] = None
            refs = appearances[occupant]
            refs.remove(SlotRef(slot=slot, channel=channel))
            if not refs:
                del appearances[occupant]
            self._slots_cache.pop(occupant, None)
            self._gaps_cache.pop(occupant, None)
            if self._packed is not None:
                self._packed[channel, slot] = -1
            self._version += 1
        return occupant

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

    def page_ids(self) -> set[int]:
        """All page ids appearing at least once in the program."""
        return set(self._appearance_table())

    def appearances(self, page_id: int) -> list[SlotRef]:
        """All cells holding ``page_id``, sorted by airtime."""
        return sorted(self._appearance_table().get(page_id, []))

    def appearance_slots(self, page_id: int) -> list[int]:
        """Sorted slot indices at which ``page_id`` is broadcast.

        A page may appear on any channel; a client with the program index
        tunes to whichever channel carries the next appearance, so only the
        slot (column) matters for waiting time.
        """
        cached = self._slots_cache.get(page_id)
        if cached is None:
            cached = sorted(
                {
                    ref.slot
                    for ref in self._appearance_table().get(page_id, [])
                }
            )
            self._slots_cache[page_id] = cached
        return list(cached)

    def broadcast_count(self, page_id: int) -> int:
        """Number of appearances of ``page_id`` in one cycle (``s_{i,j}``)."""
        return len(self._appearance_table().get(page_id, []))

    def page_counts(self) -> Counter[int]:
        """Appearance count per page id."""
        return Counter(
            {
                page_id: len(refs)
                for page_id, refs in self._appearance_table().items()
            }
        )

    def cyclic_gaps(self, page_id: int) -> list[int]:
        """Cyclic gaps between consecutive appearances of ``page_id``.

        The gaps partition the cycle: they always sum to ``cycle_length``.
        A page appearing once has a single gap equal to the whole cycle.
        """
        cached = self._gaps_cache.get(page_id)
        if cached is None:
            slots = self.appearance_slots(page_id)
            if not slots:
                raise InvalidInstanceError(
                    f"page {page_id} does not appear in the program"
                )
            if len(slots) == 1:
                cached = [self._cycle_length]
            else:
                cached = [b - a for a, b in zip(slots, slots[1:])]
                cached.append(self._cycle_length - slots[-1] + slots[0])
            self._gaps_cache[page_id] = cached
        return list(cached)

    def wait_time(self, page_id: int, arrival: float) -> float:
        """Time from ``arrival`` until the next broadcast start of ``page_id``.

        ``arrival`` is a (possibly fractional) time in ``[0, cycle_length)``;
        a client arriving exactly when the page starts waits zero.
        """
        slots = self.appearance_slots(page_id)
        if not slots:
            raise InvalidInstanceError(
                f"page {page_id} does not appear in the program"
            )
        if not 0 <= arrival < self._cycle_length:
            arrival %= self._cycle_length
        for slot in slots:
            if slot >= arrival:
                return slot - arrival
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
        through this path.  The appearance table is deferred: building it
        per cell would dominate large constructions, and the first
        appearance query derives the identical table from the grid.
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
        program._appearances = None
        return program

    @classmethod
    def from_array(cls, array) -> "BroadcastProgram":
        """Build a program from an int array grid (``-1`` marks empty).

        The vectorised placement kernels finish holding a numpy
        ``(num_channels, cycle_length)`` int grid; this converts it in
        bulk (one C-level pass per row, no per-cell Python loop) and
        defers the appearance table exactly like :meth:`from_grid`.
        """
        import numpy as np

        arr = np.asarray(array)
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidInstanceError("grid must be a non-empty 2-D array")
        program = cls(
            num_channels=arr.shape[0], cycle_length=arr.shape[1]
        )
        program._load_packed(arr.astype(np.int64))
        return program

    def _load_packed(self, packed) -> None:
        """Adopt an owned int64 ``packed`` grid; derived tables deferred.

        Shape, list grid and packed mirror all come from ``packed``; the
        appearance table is left to be derived on first demand and the
        slot/gap memos start empty.  :attr:`version` is the caller's.
        """
        cells = packed.astype(object)
        cells[packed < 0] = None
        self._num_channels, self._cycle_length = packed.shape
        self._grid = cells.tolist()
        self._appearances = None
        self._slots_cache = {}
        self._gaps_cache = {}
        self._packed = packed

    def copy(self) -> "BroadcastProgram":
        """An independent copy of this program (grid and appearances).

        A structural copy, not a rebuild: the per-cell containers are
        duplicated but the :class:`SlotRef` objects (immutable) and the
        memoised appearance tables are shared/copied as-is, so copying
        costs list duplication rather than re-deriving every reference.
        A deferred appearance table stays deferred in the clone.
        The live re-plan patcher copies the on-air program this way
        before editing one group's cells.
        """
        clone = BroadcastProgram(
            num_channels=self._num_channels,
            cycle_length=self._cycle_length,
        )
        clone._grid = [list(row) for row in self._grid]
        if self._appearances is None:
            clone._appearances = None
        else:
            clone._appearances = {
                page_id: list(refs)
                for page_id, refs in self._appearances.items()
            }
        clone._slots_cache = {
            page_id: list(slots)
            for page_id, slots in self._slots_cache.items()
        }
        clone._gaps_cache = {
            page_id: list(gaps)
            for page_id, gaps in self._gaps_cache.items()
        }
        if self._packed is not None:
            clone._packed = self._packed.copy()
        return clone

    def grid_rows(self) -> list[list[int | None]]:
        """A copy of the raw grid, row per channel (for bulk consumers)."""
        return [list(row) for row in self._grid]

    def packed_grid(self):
        """The grid as an int64 numpy array, ``-1`` marking free cells.

        The array is the program's internal mirror — treat it as
        read-only and ``.copy()`` before editing.  Programs built by the
        array kernels (:meth:`from_array`) carry it from birth; for
        others the first call pays one O(grid) conversion, after which
        :meth:`assign`/:meth:`clear` keep it in sync cell-by-cell.  The
        live re-plan patcher runs entirely on this mirror, which is what
        makes its taut-budget patches microsecond-scale.
        """
        if self._packed is None:
            import numpy as np

            self._packed = np.asarray(
                [
                    [-1 if cell is None else cell for cell in row]
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

        Every other attribute is derived from the grid: the nested-list
        grid, the appearance table and the slot/gap memos together
        outweigh the packed grid several times over and cost far more
        to pickle.  Sweep results cross the process pool this way, so
        the wire carries one contiguous array per program and the
        receiving side rebuilds the derived tables lazily on first use.
        """
        return {"packed": self.packed_grid(), "version": self._version}

    def __setstate__(self, state: dict) -> None:
        """Rebuild a pickled program the way :meth:`from_array` does."""
        import numpy as np

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
                (len(str(pid)) for pid in self._appearance_table()),
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
            f"pages={len(self._appearance_table())}, "
            f"occupancy={self.occupancy():.2f})"
        )
