"""Theorem-3.1 admission control over per-shard catalog ledgers.

The paper's Theorem 3.1 says a catalog needs ``ceil(sum_i P_i / t_i)``
channels for a *valid* program — the structural form of the service's
SLO ("no client waits longer than its page's expected time").  A system
with a fixed channel budget per station must therefore treat that bound
as an admission criterion: a ``page_insert`` (or a deadline-tightening
``page_retune``) that would push a station's requirement above its
budget cannot be honoured without breaking the promise already made to
every tuned-in client.

:class:`AdmissionController` owns that decision for one or many
stations.  Each station (shard) keeps one
:class:`~repro.live.catalog.LiveCatalog` ledger; the requirement is a
function of a ledger's per-deadline page counts alone, so every verdict
is priced by the ledger's own what-if probe
(:meth:`~repro.live.catalog.LiveCatalog.required_after`) and an
admitted mutation is applied to the ledger by the controller itself.
A page lives on the shard whose ledger holds it.

Placement is the only policy.  An insert tries its *home* shard, then
spills to the least-loaded other shard with headroom, then waits in one
FIFO queue (bounded), and is rejected only when the queue is full.
Queued inserts are retried whenever load drops — a later removal or
relaxation drains the queue.  Retunes that would breach are rejected
immediately (the page stays on air at its old deadline).  A live
service is the one-shard case (home only); a federation passes each
insert's ring-pinned home.  Every verdict is an
:class:`AdmissionDecision`, the unit the run manifests, the live event
log and the federation router are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.core.errors import SimulationError
from repro.live.catalog import LiveCatalog
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
        shard: The shard the verdict places the page on (``None`` for
            queued and for most rejected verdicts).
        home: The shard the insert was pinned to, or the shard holding
            the page a retune or removal names.
        required_channels: Theorem-3.1 requirement of the deciding
            shard's catalog as the verdict leaves it (the candidate
            catalog for admits, the home shard's for rejections; ``0``
            when the verdict has no home).
        budget: The per-shard channel budget judged against.
        reason: Short machine-stable explanation (``fits-budget``,
            ``spilled``, ``exceeds-budget``, ``queue-full``,
            ``unknown-page``, ``duplicate-page``, ``last-page``,
            ``shrinks-load``, ``admission-disabled``).
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
        """The event-log entry: the verdict without its placement."""
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
    """Budget-guarding admission over one ledger per shard.

    Args:
        ledgers: ``shard -> LiveCatalog``; the controller applies every
            admitted mutation to these catalogs (a live service passes
            ``{0: its catalog}``).
        budget: Per-shard channel budget ``N_real`` the Theorem-3.1
            requirement is judged against.
        queue_limit: Maximum inserts waiting for capacity; beyond it new
            over-budget inserts are rejected.
        enabled: When False every mutation is admitted at its home
            unchanged — the control arm of the EXT11 experiment (the
            scheduler then falls back to PAMAD's minimum-delay
            compromise).
    """

    def __init__(
        self,
        ledgers: Mapping[int, LiveCatalog],
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
        if not ledgers:
            raise SimulationError("admission needs at least one shard")
        self.ledgers: dict[int, LiveCatalog] = dict(sorted(ledgers.items()))
        self.budget = budget
        self.queue_limit = queue_limit
        self.enabled = enabled
        # Entries keep the home computed at enqueue time, so drains try
        # the pinned placement first.
        self._queue: list[tuple[MutationEvent, int]] = []
        self.counters: dict[str, int] = {
            "admitted": 0,
            "queued": 0,
            "rejected": 0,
            "drained": 0,
            "spilled": 0,
        }

    # ------------------------------------------------------------------
    # Ledger reads
    # ------------------------------------------------------------------

    def locate(self, page_id: int) -> int | None:
        """The shard whose ledger holds ``page_id``, if any."""
        for shard, ledger in self.ledgers.items():
            if page_id in ledger:
                return shard
        return None

    def channel_load(self, shard: int) -> float:
        """Fractional demand of one shard: ``sum(count / t)`` over its
        deadline histogram, the float spill order and the drift
        rebalancer compare."""
        return sum(
            count / expected
            for expected, count in self.ledgers[shard]
            .deadline_counts()
            .items()
        )

    def _fit(self, expected: int, home: int) -> int | None:
        """Home if it fits, else the least-loaded shard with headroom."""
        if self.ledgers[home].required_after(add=expected) <= self.budget:
            return home
        for _, shard in sorted(
            (self.channel_load(shard), shard)
            for shard in self.ledgers
            if shard != home
        ):
            if (
                self.ledgers[shard].required_after(add=expected)
                <= self.budget
            ):
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
    ) -> AdmissionDecision:
        self.counters[verdict] += 1
        return AdmissionDecision(
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

    def _unknown_page(self, event: MutationEvent) -> AdmissionDecision:
        # No ledger holds the page.  Its home is unambiguous only when
        # there is one shard; otherwise the verdict names none and
        # reports no requirement.
        home = next(iter(self.ledgers)) if len(self.ledgers) == 1 else None
        required = (
            0 if home is None else self.ledgers[home].required_channels()
        )
        return self._decision(
            event, "rejected", None, home, required, "unknown-page"
        )

    def decide_insert(
        self, event: MutationEvent, home: int
    ) -> AdmissionDecision:
        """Place an insert: home, spill, queue (on breach), or reject.

        A page on a ledger or waiting in the queue is a duplicate.
        """
        if self.locate(event.page_id) is not None or any(
            queued.page_id == event.page_id for queued, _ in self._queue
        ):
            return self._decision(
                event, "rejected", None, home,
                self.ledgers[home].required_channels(), "duplicate-page",
            )
        expected = event.expected_time
        shard = self._fit(expected, home) if self.enabled else home
        if shard is None:
            required = self.ledgers[home].required_after(add=expected)
            if len(self._queue) < self.queue_limit:
                self._queue.append((event, home))
                return self._decision(
                    event, "queued", None, home, required, "exceeds-budget"
                )
            return self._decision(
                event, "rejected", None, home, required, "queue-full"
            )
        ledger = self.ledgers[shard]
        ledger.insert(event.page_id, expected)
        if not self.enabled:
            reason = "admission-disabled"
        elif shard == home:
            reason = "fits-budget"
        else:
            reason = "spilled"
            self.counters["spilled"] += 1
        return self._decision(
            event, "admitted", shard, home, ledger.required_channels(),
            reason,
        )

    def decide_retune(self, event: MutationEvent) -> AdmissionDecision:
        """Retune in place on the owning shard; breaching retunes reject."""
        shard = self.locate(event.page_id)
        if shard is None:
            return self._unknown_page(event)
        ledger = self.ledgers[shard]
        required = ledger.required_after(
            add=event.expected_time,
            drop=ledger.expected_time(event.page_id),
        )
        if self.enabled and required > self.budget:
            return self._decision(
                event, "rejected", shard, shard, required, "exceeds-budget"
            )
        ledger.retune(event.page_id, event.expected_time)
        return self._decision(
            event, "admitted", shard, shard, required,
            "fits-budget" if self.enabled else "admission-disabled",
        )

    def decide_remove(self, event: MutationEvent) -> AdmissionDecision:
        """Remove from the owning shard; unknown/last-page removals reject."""
        shard = self.locate(event.page_id)
        if shard is None:
            return self._unknown_page(event)
        ledger = self.ledgers[shard]
        if len(ledger) == 1:
            return self._decision(
                event, "rejected", shard, shard,
                ledger.required_channels(), "last-page",
            )
        ledger.remove(event.page_id)
        return self._decision(
            event, "admitted", shard, shard, ledger.required_channels(),
            "shrinks-load",
        )

    # ------------------------------------------------------------------
    # Queue
    # ------------------------------------------------------------------

    @property
    def queued(self) -> tuple[MutationEvent, ...]:
        """Inserts currently waiting for capacity, FIFO order."""
        return tuple(event for event, _ in self._queue)

    def drain(self, now: float) -> Iterator[AdmissionDecision]:
        """Re-admit queued inserts that now fit somewhere, FIFO order.

        A generator: each re-admitted page is already in its shard's
        ledger when its decision is yielded, and the next entry is
        judged only when the caller asks for it — after the caller has
        placed the page.  Entries that still do not fit stay queued.
        """
        index = 0
        while index < len(self._queue):
            event, home = self._queue[index]
            shard = self._fit(event.expected_time, home)
            if shard is None:
                index += 1
                continue
            del self._queue[index]
            ledger = self.ledgers[shard]
            ledger.insert(event.page_id, event.expected_time)
            self.counters["drained"] += 1
            if shard != home:
                self.counters["spilled"] += 1
            yield self._decision(
                event, "admitted", shard, home, ledger.required_channels(),
                "fits-budget" if shard == home else "spilled",
                kind="queue_drain", time=now,
            )

    def as_dict(self) -> dict:
        """Summary block for run manifests (``LiveReport.admission``)."""
        return {
            "enabled": self.enabled,
            "budget": self.budget,
            "queue_limit": self.queue_limit,
            "queue_depth": len(self._queue),
            **{
                name: int(self.counters[name])
                for name in ("admitted", "drained", "queued", "rejected")
            },
        }
