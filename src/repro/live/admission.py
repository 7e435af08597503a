"""SLO-driven admission control for catalog mutations.

The paper's Theorem 3.1 says a catalog needs ``ceil(sum_i P_i / t_i)``
channels for a *valid* program — the structural form of the service's
SLO ("no client waits longer than its page's expected time").  A live
system with a fixed channel budget must therefore treat that bound as an
admission criterion: a ``page_insert`` (or a deadline-tightening
``page_retune``) that would push the requirement above the budget cannot
be honoured without breaking the promise already made to every tuned-in
client.

:class:`AdmissionController` owns that decision.  Inserts that would
breach the budget are *queued* (FIFO, bounded) and retried whenever the
load drops — a later removal or relaxation drains the queue — and
rejected outright only when the queue is full.  Retunes that would
breach are rejected immediately (the page stays on air at its old
deadline).  Every verdict is recorded as an :class:`AdmissionDecision`,
the unit the run manifest and the live event log are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.errors import SimulationError
from repro.live.catalog import LiveCatalog, required_channels_of
from repro.live.mutations import MutationEvent

__all__ = ["VERDICTS", "AdmissionDecision", "AdmissionController"]

VERDICTS = ("admitted", "queued", "rejected")


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """One admission verdict, with the load evidence behind it.

    Attributes:
        time: Slot at which the decision was taken.
        kind: The mutation kind decided on (``page_insert`` /
            ``page_retune`` / ``page_remove``), or ``queue_drain`` for a
            previously queued insert re-admitted after the load dropped.
        page_id: The page concerned.
        verdict: One of :data:`VERDICTS`.
        required_channels: Theorem-3.1 requirement of the catalog the
            verdict would produce (the *candidate* catalog for admits,
            the unchanged one for rejections).
        budget: The channel budget the requirement was judged against.
        reason: Short machine-stable explanation (``fits-budget``,
            ``exceeds-budget``, ``queue-full``, ``unknown-page``,
            ``duplicate-page``, ``admission-disabled``, ...).
    """

    time: float
    kind: str
    page_id: int
    verdict: str
    required_channels: int
    budget: int
    reason: str

    def as_dict(self) -> dict:
        return {
            "time": self.time,
            "kind": self.kind,
            "page_id": self.page_id,
            "verdict": self.verdict,
            "required_channels": self.required_channels,
            "budget": self.budget,
            "reason": self.reason,
        }


class AdmissionController:
    """Budget-guarding admission for inserts and retunes.

    Args:
        budget: Channel budget ``N_real`` the Theorem-3.1 requirement is
            judged against.
        queue_limit: Maximum inserts waiting for capacity; beyond it new
            over-budget inserts are rejected.
        enabled: When False every mutation is admitted unchanged — the
            control arm of the EXT11 experiment (the scheduler then
            falls back to PAMAD's minimum-delay compromise).
    """

    def __init__(
        self,
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
        self.budget = budget
        self.queue_limit = queue_limit
        self.enabled = enabled
        self._queue: list[MutationEvent] = []
        self.counters: dict[str, int] = {
            "admitted": 0,
            "queued": 0,
            "rejected": 0,
            "drained": 0,
        }

    # ------------------------------------------------------------------
    # Queue
    # ------------------------------------------------------------------

    @property
    def queued(self) -> tuple[MutationEvent, ...]:
        """Inserts currently waiting for capacity, FIFO order."""
        return tuple(self._queue)

    def drain(
        self, catalog: LiveCatalog, now: float
    ) -> tuple[list[MutationEvent], list[AdmissionDecision]]:
        """Re-admit queued inserts that now fit the budget.

        The queue is scanned in FIFO order; entries that fit are
        admitted (and their pages assumed inserted into ``catalog`` by
        the caller, so later entries are judged against the grown load),
        entries that still do not fit stay queued.  Returns the admitted
        events and the matching decisions.
        """
        admitted: list[MutationEvent] = []
        decisions: list[AdmissionDecision] = []
        remaining: list[MutationEvent] = []
        # The per-deadline page counts of the catalog plus the inserts
        # admitted so far in this drain.
        histogram = catalog.deadline_counts()
        for event in self._queue:
            expected = event.expected_time
            histogram[expected] = histogram.get(expected, 0) + 1
            required = required_channels_of(histogram)
            if required <= self.budget:
                admitted.append(event)
                self.counters["drained"] += 1
                self.counters["admitted"] += 1
                decisions.append(
                    AdmissionDecision(
                        time=now,
                        kind="queue_drain",
                        page_id=event.page_id,
                        verdict="admitted",
                        required_channels=required,
                        budget=self.budget,
                        reason="fits-budget",
                    )
                )
            else:
                histogram[expected] -= 1
                if not histogram[expected]:
                    del histogram[expected]
                remaining.append(event)
        self._queue = remaining
        return admitted, decisions

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    def _decision(
        self,
        event: MutationEvent,
        verdict: str,
        required: int,
        reason: str,
    ) -> AdmissionDecision:
        self.counters[verdict] += 1
        return AdmissionDecision(
            time=event.time,
            kind=event.kind,
            page_id=event.page_id,
            verdict=verdict,
            required_channels=required,
            budget=self.budget,
            reason=reason,
        )

    def decide_insert(
        self, catalog: LiveCatalog, event: MutationEvent
    ) -> AdmissionDecision:
        """Judge a ``page_insert`` against the budget (queue on breach)."""
        if event.page_id in catalog:
            return self._decision(
                event, "rejected", catalog.required_channels(),
                "duplicate-page",
            )
        required = catalog.required_after(add=event.expected_time)
        if not self.enabled:
            return self._decision(
                event, "admitted", required, "admission-disabled"
            )
        if required <= self.budget:
            return self._decision(event, "admitted", required, "fits-budget")
        if len(self._queue) < self.queue_limit:
            self._queue.append(event)
            return self._decision(event, "queued", required, "exceeds-budget")
        return self._decision(event, "rejected", required, "queue-full")

    def decide_retune(
        self, catalog: LiveCatalog, event: MutationEvent
    ) -> AdmissionDecision:
        """Judge a ``page_retune``; tightening past the budget is rejected."""
        if event.page_id not in catalog:
            return self._decision(
                event, "rejected", catalog.required_channels(),
                "unknown-page",
            )
        required = catalog.required_after(
            add=event.expected_time,
            drop=catalog.expected_time(event.page_id),
        )
        if not self.enabled:
            return self._decision(
                event, "admitted", required, "admission-disabled"
            )
        if required <= self.budget:
            return self._decision(event, "admitted", required, "fits-budget")
        return self._decision(event, "rejected", required, "exceeds-budget")

    def decide_remove(
        self, catalog: LiveCatalog, event: MutationEvent
    ) -> AdmissionDecision:
        """Judge a ``page_remove``; removals only ever shrink the load."""
        if event.page_id not in catalog:
            return self._decision(
                event, "rejected", catalog.required_channels(),
                "unknown-page",
            )
        if len(catalog) == 1:
            return self._decision(
                event, "rejected", catalog.required_channels(),
                "last-page",
            )
        required = catalog.required_after(
            drop=catalog.expected_time(event.page_id)
        )
        return self._decision(event, "admitted", required, "shrinks-load")

    def as_dict(self) -> dict:
        """Summary block for run manifests."""
        return {
            "enabled": self.enabled,
            "budget": self.budget,
            "queue_limit": self.queue_limit,
            "queue_depth": len(self._queue),
            **{k: int(v) for k, v in sorted(self.counters.items())},
        }
