"""Federation-wide Theorem-3.1 admission control.

A federation of N station shards, each holding ``budget`` channels,
must enforce the paper's bound *globally*: a page insert that does not
fit its home shard is not simply rejected — the federation may *spill*
it to the least-loaded shard with headroom, queue it (one global FIFO,
not N local ones) until load drops anywhere, and only then reject.  The
:class:`GlobalAdmissionController` owns that decision and the shadow
state behind it: a per-shard ``page_id -> expected_time`` mirror plus a
per-shard expected-time histogram, so every verdict probes the exact
``ceil(sum_i P_i / t_i)`` requirement (the same arithmetic as
:meth:`repro.live.catalog.LiveCatalog.required_channels`) in
O(distinct deadlines) per event instead of O(pages).

Verdict semantics deliberately mirror the per-shard
:class:`~repro.live.admission.AdmissionController` — duplicate pages
reject, removals of unknown or last pages reject, over-budget retunes
reject — so a shard replaying its routed sub-trace with local admission
enabled agrees with the global decision; the federation adds only the
cross-shard verdicts (``spilled`` placement, the global queue).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.core.errors import SimulationError
from repro.live.catalog import required_channels_of
from repro.live.mutations import MutationEvent

__all__ = [
    "GlobalAdmissionDecision",
    "GlobalAdmissionController",
    "required_channels_of",
]


@dataclass(frozen=True, slots=True)
class GlobalAdmissionDecision:
    """One federation-level admission verdict.

    Attributes:
        time: Slot at which the decision was taken.
        kind: The mutation kind decided on, or ``queue_drain`` for a
            globally queued insert re-admitted after load dropped.
        page_id: The page concerned.
        verdict: ``admitted`` / ``queued`` / ``rejected``.
        shard: The shard the verdict places the page on (``None`` for
            queued/rejected verdicts).
        home: The shard the ring pinned the page's group to.
        required_channels: Theorem-3.1 requirement of the *deciding*
            shard's candidate catalog (the home shard's for rejections).
        budget: The per-shard channel budget judged against.
        reason: Machine-stable explanation; the per-shard vocabulary
            (``fits-budget`` / ``exceeds-budget`` / ``queue-full`` /
            ``duplicate-page`` / ``unknown-page`` / ``last-page``) plus
            the federation's ``spilled`` (admitted off-home).
    """

    time: float
    kind: str
    page_id: int
    verdict: str
    shard: int | None
    home: int | None
    required_channels: int
    budget: int
    reason: str

    def as_dict(self) -> dict:
        return {
            "time": self.time,
            "kind": self.kind,
            "page_id": self.page_id,
            "verdict": self.verdict,
            "shard": self.shard,
            "home": self.home,
            "required_channels": self.required_channels,
            "budget": self.budget,
            "reason": self.reason,
        }


class GlobalAdmissionController:
    """Per-shard headroom tracking plus one federation-wide FIFO queue.

    Args:
        initial: ``shard -> {page_id: expected_time}`` — the t=0
            partition; every shard must be present (possibly empty).
        budget: Per-shard channel budget the bound is judged against.
        queue_limit: Capacity of the *global* insert queue.
        enabled: When False every mutation is admitted at its home shard
            unconditionally (the control arm; pair it with per-shard
            services running with admission off).
    """

    def __init__(
        self,
        initial: Mapping[int, Mapping[int, int]],
        budget: int,
        *,
        queue_limit: int = 16,
        enabled: bool = True,
    ) -> None:
        if budget < 1:
            raise SimulationError(f"budget must be >= 1, got {budget}")
        if queue_limit < 0:
            raise SimulationError(
                f"queue_limit must be >= 0, got {queue_limit}"
            )
        if not initial:
            raise SimulationError("federation needs at least one shard")
        self.budget = int(budget)
        self.queue_limit = int(queue_limit)
        self.enabled = enabled
        self._pages: dict[int, dict[int, int]] = {}
        self._times: dict[int, dict[int, int]] = {}
        self._location: dict[int, int] = {}
        for shard, pages in sorted(initial.items()):
            self._pages[int(shard)] = {}
            self._times[int(shard)] = {}
            for page_id, expected in pages.items():
                self._apply_insert(int(shard), int(page_id), int(expected))
        # Queue entries remember the home shard computed at enqueue
        # time, so drains re-try the pinned placement first.
        self._queue: list[tuple[MutationEvent, int]] = []
        self.counters: dict[str, int] = {
            "admitted": 0,
            "queued": 0,
            "rejected": 0,
            "drained": 0,
            "spilled": 0,
        }

    # ------------------------------------------------------------------
    # Shadow state
    # ------------------------------------------------------------------

    @property
    def shards(self) -> tuple[int, ...]:
        return tuple(sorted(self._pages))

    def locate(self, page_id: int) -> int | None:
        """The shard currently holding ``page_id``, if any."""
        return self._location.get(page_id)

    @property
    def locations(self) -> Mapping[int, int]:
        """Read-only live view of the ``page_id -> shard`` shadow state.

        The columnar router rebuilds its page-location lookup table
        from this view after every catalog event instead of calling
        :meth:`locate` once per listener.
        """
        return MappingProxyType(self._location)

    def pages(self, shard: int) -> dict[int, int]:
        """Snapshot of one shard's ``page_id -> expected_time`` mirror."""
        return dict(self._pages[shard])

    def page_count(self, shard: int) -> int:
        return len(self._pages[shard])

    def channel_load(self, shard: int) -> float:
        """Fractional demand ``sum_i 1/t_i`` of one shard."""
        return sum(
            count / expected
            for expected, count in self._times[shard].items()
        )

    def required_channels(self, shard: int) -> int:
        return required_channels_of(self._times[shard])

    def _apply_insert(self, shard: int, page_id: int, expected: int) -> None:
        self._pages[shard][page_id] = expected
        times = self._times[shard]
        times[expected] = times.get(expected, 0) + 1
        self._location[page_id] = shard

    def _apply_remove(self, shard: int, page_id: int) -> None:
        expected = self._pages[shard].pop(page_id)
        times = self._times[shard]
        times[expected] -= 1
        if not times[expected]:
            del times[expected]
        del self._location[page_id]

    def move_page(self, page_id: int, source: int, target: int) -> None:
        """Re-home a page (the rebalancer's shadow-state update)."""
        if self._location.get(page_id) != source:
            raise SimulationError(
                f"page {page_id} is not on shard {source}"
            )
        expected = self._pages[source][page_id]
        self._apply_remove(source, page_id)
        self._apply_insert(target, page_id, expected)

    def required_with(self, shard: int, expected: int) -> int:
        """Theorem-3.1 requirement of ``shard`` plus one hypothetical page.

        The what-if probe behind every placement decision: the shard's
        current expected-time histogram with one more page of deadline
        ``expected``, priced without mutating any state.  Public because
        the drift rebalancer (see
        :meth:`repro.federation.service.FederatedBroadcastService`)
        asks the same question before moving a page — a move is only
        legal when the target stays within budget.
        """
        histogram = dict(self._times[shard])
        histogram[expected] = histogram.get(expected, 0) + 1
        return required_channels_of(histogram)

    def _required_retuned(
        self, shard: int, old: int, new: int
    ) -> int:
        histogram = dict(self._times[shard])
        histogram[old] -= 1
        if not histogram[old]:
            del histogram[old]
        histogram[new] = histogram.get(new, 0) + 1
        return required_channels_of(histogram)

    def _fit_shard(self, expected: int, home: int) -> int | None:
        """Home if it fits, else the least-loaded shard with headroom."""
        if self.required_with(home, expected) <= self.budget:
            return home
        candidates = sorted(
            (self.channel_load(shard), shard)
            for shard in self._pages
            if shard != home
        )
        for _, shard in candidates:
            if self.required_with(shard, expected) <= self.budget:
                return shard
        return None

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    def _decision(
        self,
        event: MutationEvent,
        verdict: str,
        shard: int | None,
        home: int | None,
        required: int,
        reason: str,
        *,
        kind: str | None = None,
        time: float | None = None,
    ) -> GlobalAdmissionDecision:
        self.counters[verdict] += 1
        return GlobalAdmissionDecision(
            time=event.time if time is None else time,
            kind=event.kind if kind is None else kind,
            page_id=event.page_id,
            verdict=verdict,
            shard=shard,
            home=home,
            required_channels=required,
            budget=self.budget,
            reason=reason,
        )

    def decide_insert(
        self, event: MutationEvent, home: int
    ) -> GlobalAdmissionDecision:
        """Place an insert: home, spill, global queue, or reject."""
        if event.page_id in self._location:
            return self._decision(
                event, "rejected", None, home,
                self.required_channels(home), "duplicate-page",
            )
        expected = int(event.expected_time or 0)
        if not self.enabled:
            self._apply_insert(home, event.page_id, expected)
            return self._decision(
                event, "admitted", home, home,
                self.required_channels(home), "admission-disabled",
            )
        shard = self._fit_shard(expected, home)
        if shard is not None:
            required = self.required_with(shard, expected)
            self._apply_insert(shard, event.page_id, expected)
            if shard == home:
                return self._decision(
                    event, "admitted", shard, home, required, "fits-budget"
                )
            self.counters["spilled"] += 1
            return self._decision(
                event, "admitted", shard, home, required, "spilled"
            )
        required = self.required_with(home, expected)
        if len(self._queue) < self.queue_limit:
            self._queue.append((event, home))
            return self._decision(
                event, "queued", None, home, required, "exceeds-budget"
            )
        return self._decision(
            event, "rejected", None, home, required, "queue-full"
        )

    def decide_retune(self, event: MutationEvent) -> GlobalAdmissionDecision:
        """Retune in place on the owning shard; breaching retunes reject."""
        shard = self._location.get(event.page_id)
        if shard is None:
            return self._decision(
                event, "rejected", None, None, 0, "unknown-page"
            )
        old = self._pages[shard][event.page_id]
        new = int(event.expected_time or 0)
        required = self._required_retuned(shard, old, new)
        if not self.enabled:
            self._apply_remove(shard, event.page_id)
            self._apply_insert(shard, event.page_id, new)
            return self._decision(
                event, "admitted", shard, shard, required,
                "admission-disabled",
            )
        if required <= self.budget:
            self._apply_remove(shard, event.page_id)
            self._apply_insert(shard, event.page_id, new)
            return self._decision(
                event, "admitted", shard, shard, required, "fits-budget"
            )
        return self._decision(
            event, "rejected", shard, shard, required, "exceeds-budget"
        )

    def decide_remove(self, event: MutationEvent) -> GlobalAdmissionDecision:
        """Remove from the owning shard; unknown/last-page removals reject."""
        shard = self._location.get(event.page_id)
        if shard is None:
            return self._decision(
                event, "rejected", None, None, 0, "unknown-page"
            )
        if len(self._pages[shard]) == 1:
            return self._decision(
                event, "rejected", shard, shard,
                self.required_channels(shard), "last-page",
            )
        self._apply_remove(shard, event.page_id)
        return self._decision(
            event, "admitted", shard, shard,
            self.required_channels(shard), "shrinks-load",
        )

    # ------------------------------------------------------------------
    # Global queue
    # ------------------------------------------------------------------

    @property
    def queued(self) -> tuple[MutationEvent, ...]:
        """Inserts waiting federation-wide for capacity, FIFO order."""
        return tuple(event for event, _ in self._queue)

    def drain(self, now: float) -> list[GlobalAdmissionDecision]:
        """Re-admit queued inserts that now fit somewhere, FIFO order."""
        decisions: list[GlobalAdmissionDecision] = []
        remaining: list[tuple[MutationEvent, int]] = []
        for event, home in self._queue:
            expected = int(event.expected_time or 0)
            shard = self._fit_shard(expected, home)
            if shard is None:
                remaining.append((event, home))
                continue
            required = self.required_with(shard, expected)
            self._apply_insert(shard, event.page_id, expected)
            self.counters["drained"] += 1
            if shard != home:
                self.counters["spilled"] += 1
            decisions.append(
                self._decision(
                    event, "admitted", shard, home, required,
                    "fits-budget" if shard == home else "spilled",
                    kind="queue_drain", time=now,
                )
            )
        self._queue = remaining
        return decisions

    def as_dict(self) -> dict:
        """Summary block for run manifests (the ``federation.admission``)."""
        return {
            "enabled": self.enabled,
            "budget": self.budget,
            "queue_limit": self.queue_limit,
            "queue_depth": len(self._queue),
            "shards": len(self._pages),
            **{k: int(v) for k, v in sorted(self.counters.items())},
        }
