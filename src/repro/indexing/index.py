"""(1, m) air indexing over broadcast programs.

Battery-powered clients cannot afford to listen continuously while
waiting for their page: the classic remedy (Imielinski & Viswanathan,
cited as [13] by the paper, and the hybrid-index work [10]) interleaves
**index segments** with the data so a client can read one index, learn
when its page will air, and *doze* until then.

This module implements the canonical **(1, m) scheme** on top of any
:class:`~repro.core.program.BroadcastProgram`:

* the data cycle is cut into ``m`` equal buckets per channel;
* an index segment (occupying ``index_slots`` slots) is prepended to each
  bucket; the index describes the *entire* cycle, so one read suffices;
* a client tunes in, listens until the next index segment starts, reads
  it, sleeps, and wakes exactly for its page's next data slot.

Two costs move in opposite directions as ``m`` grows — the classic
trade-off this substrate lets the benchmarks reproduce:

* **access time** (arrival -> data received) grows, because every index
  copy dilutes the cycle;
* **tuning time** (slots spent actively listening) shrinks, because the
  next index is at most ``cycle/m`` away.

Index slots are materialised in the expanded program under the reserved
page id :data:`INDEX_SLOT` (``-2``; ``-1`` is the packed grid's free-cell
marker :data:`~repro.core.program.FREE`, which no page may use), so the
expanded grid remains an ordinary :class:`BroadcastProgram` and all
existing tooling (appearance queries, rendering, serialisation,
pickling, occupancy) keeps working.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import InvalidInstanceError
from repro.core.intmath import ceil_div
from repro.core.program import BroadcastProgram

__all__ = ["INDEX_SLOT", "AccessResult", "IndexedProgram", "build_indexed_program"]

INDEX_SLOT = -2
"""Reserved page id marking an index segment slot in the expanded grid."""


@dataclass(frozen=True)
class AccessResult:
    """The cost of one indexed access.

    Attributes:
        access_time: Slots from arrival until the page download completes
            (the latency a user perceives).
        tuning_time: Slots the receiver was actively listening — the
            energy cost: initial probe + index segment + the data slot.
        doze_time: Slots spent in doze mode (access - tuning).
    """

    access_time: float
    tuning_time: float
    doze_time: float


def _slot_of_next(slots: list[int], arrival: float, cycle: int) -> int:
    """First slot in ``slots`` (sorted) at or after ``arrival``, cyclically.

    Returns an *absolute* slot offset measured from cycle start, possibly
    beyond ``cycle`` when the next occurrence wraps.
    """
    for slot in slots:
        if slot >= arrival:
            return slot
    return slots[0] + cycle


class IndexedProgram:
    """A (1, m)-indexed view of a broadcast program.

    Args:
        program: The underlying data program (any scheduler's output).
        m: Index replication factor — index segments per channel per cycle.
        index_slots: Slots one index segment occupies (directory size in
            slot units; 1 models a compact index, larger values a page
            directory that spans several packets).
        pointer_packets: The literature's standard refinement — every data
            packet carries the offset of the next index segment, so the
            client's initial probe costs one active slot and it dozes
            until the index.  With ``False`` the client must listen
            continuously until the index arrives (no pointers on air).
    """

    def __init__(
        self,
        program: BroadcastProgram,
        m: int = 1,
        index_slots: int = 1,
        pointer_packets: bool = True,
    ) -> None:
        if m < 1:
            raise InvalidInstanceError(f"m must be >= 1, got {m}")
        if index_slots < 1:
            raise InvalidInstanceError(
                f"index_slots must be >= 1, got {index_slots}"
            )
        if m * index_slots > 4 * program.cycle_length:
            raise InvalidInstanceError(
                f"index overhead (m={m} x {index_slots} slots) dwarfs the "
                f"data cycle of {program.cycle_length}"
            )
        self._data = program
        self._m = m
        self._index_slots = index_slots
        self._pointer_packets = pointer_packets
        # Bucket boundaries in *data* slots: bucket k covers data slots
        # [ceil(k*D/m), ceil((k+1)*D/m)).  With m > D the starts collide;
        # more than one index per data slot is meaningless, so the
        # effective m is clamped to the distinct starts.
        data_cycle = program.cycle_length
        self._bucket_starts = sorted(
            {ceil_div(data_cycle * k, m) for k in range(m)}
        )
        self._m = len(self._bucket_starts)
        self._expanded = self._build_expanded()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _expanded_slot(self, data_slot: int) -> int:
        """Map a data-slot index to its slot in the expanded cycle."""
        # Index segments inserted before each bucket start at/below slot.
        inserted = sum(
            1 for start in self._bucket_starts if start <= data_slot
        )
        return data_slot + inserted * self._index_slots

    def _build_expanded(self) -> BroadcastProgram:
        data = self._data
        expanded_cycle = (
            data.cycle_length + self._m * self._index_slots
        )
        expanded = BroadcastProgram(
            num_channels=data.num_channels, cycle_length=expanded_cycle
        )
        # Index segments (on every channel, aligned across channels so a
        # client can read the index wherever it tunes).
        for start in self._bucket_starts:
            base = self._expanded_slot(start) - self._index_slots
            for offset in range(self._index_slots):
                for channel in range(data.num_channels):
                    expanded.assign(channel, base + offset, INDEX_SLOT)
        # Data slots, shifted by the indexes inserted before them.
        for channel in range(data.num_channels):
            for slot in range(data.cycle_length):
                page = data.get(channel, slot)
                if page is not None:
                    expanded.assign(
                        channel, self._expanded_slot(slot), page
                    )
        return expanded

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def data_program(self) -> BroadcastProgram:
        """The underlying (index-free) data program."""
        return self._data

    @property
    def expanded_program(self) -> BroadcastProgram:
        """The materialised grid including index segments."""
        return self._expanded

    @property
    def m(self) -> int:
        """Index replication factor."""
        return self._m

    @property
    def cycle_length(self) -> int:
        """Expanded cycle length (data + index overhead)."""
        return self._expanded.cycle_length

    @property
    def overhead_fraction(self) -> float:
        """Share of airtime spent on index segments."""
        return (self._m * self._index_slots) / self.cycle_length

    def index_starts(self) -> list[int]:
        """Expanded-slot offsets where each index segment begins."""
        return [
            self._expanded_slot(start) - self._index_slots
            for start in self._bucket_starts
        ]

    # ------------------------------------------------------------------
    # Client access model
    # ------------------------------------------------------------------

    def access(self, page_id: int, arrival: float) -> AccessResult:
        """Cost of one selective-tuning access.

        Protocol: listen from ``arrival`` until the next index segment
        begins (active), read the whole segment (active), doze, wake for
        the page's next data slot after the index read completes, download
        it (active).

        Args:
            page_id: The requested page (must appear in the data program).
            arrival: Arrival time in expanded-cycle units.

        Returns:
            An :class:`AccessResult`; ``tuning_time <= access_time`` and
            ``tuning + doze == access`` always hold.
        """
        cycle = self.cycle_length
        arrival %= cycle
        index_starts = sorted(self.index_starts())
        next_index = _slot_of_next(index_starts, arrival, cycle)
        index_done = next_index + self._index_slots

        # Raises InvalidInstanceError when the page is not on air.
        wait_after_index = self._expanded.wait_time(
            page_id, index_done % cycle
        )
        access_time = (index_done - arrival) + wait_after_index + 1
        pre_index_wait = next_index - arrival
        if self._pointer_packets:
            # One probe slot to read a pointer packet, then doze until
            # the index (the probe cannot exceed the actual wait).
            probe = min(1.0, pre_index_wait)
        else:
            probe = pre_index_wait
        tuning_time = (
            probe
            + self._index_slots  # reading the index
            + 1  # downloading the page
        )
        doze_time = access_time - tuning_time
        return AccessResult(
            access_time=access_time,
            tuning_time=tuning_time,
            doze_time=doze_time,
        )

    def average_costs(
        self, page_id: int, samples_per_slot: int = 4
    ) -> AccessResult:
        """Average access/tuning/doze over arrivals across one cycle.

        Deterministic quadrature (``samples_per_slot`` evenly spaced
        arrivals per slot) rather than Monte Carlo, so tests get exact
        reproducibility.
        """
        cycle = self.cycle_length
        total_access = total_tuning = total_doze = 0.0
        count = cycle * samples_per_slot
        for k in range(count):
            arrival = k / samples_per_slot
            result = self.access(page_id, arrival)
            total_access += result.access_time
            total_tuning += result.tuning_time
            total_doze += result.doze_time
        return AccessResult(
            access_time=total_access / count,
            tuning_time=total_tuning / count,
            doze_time=total_doze / count,
        )


def build_indexed_program(
    program: BroadcastProgram, m: int = 1, index_slots: int = 1
) -> IndexedProgram:
    """Convenience constructor for :class:`IndexedProgram`."""
    return IndexedProgram(program, m=m, index_slots=index_slots)
