"""Auto-remediation: the detector → proposer → verifier loop.

The live service already reacts to SLO pressure with corrective
re-plans, but a re-plan cannot help when the *load itself* is the
problem: a catalog whose Theorem-3.1 requirement sits above the channel
budget will keep missing deadlines no matter how often it is re-planned.
The control plane closes that loop here:

* **Detector** — watches each service's counters for two breach shapes:
  a *sustained* deadline-miss streak (consecutive missed listeners, not
  just a rolling-rate blip) and *re-plan churn* (full re-plans piling up
  inside a sliding window, the signature of a catalog thrashing at the
  edge of the budget).
* **Proposer** — puts forward up to four candidate actions, in the
  fixed :data:`~repro.api.types.REMEDIATION_ACTIONS` order: relax the
  worst-missing deadline class one rung up the ladder (``retune``), drop
  pages of that class (``shed``), grow the channel budget
  (``add_channel``, bounded), or rebuild the program from scratch
  (``full_replan``).
* **Verifier** — judges every candidate against the paper's own delay
  model *and* a reallocation budget.  A candidate passes only when the
  Eq. 2/3/5/7 predicted delay of its re-planned catalog is zero (the SLO
  is structurally restored) or strictly below the current model delay,
  **and** its estimated page movement stays within the policy's
  ``max_pages_moved`` (the Dynamic-Windows-with-Reallocation idea:
  recovery actions are only acceptable when they move few pages, so
  fixes stay cheap under churn).

The cheapest passing candidate (fewest pages moved, proposal order as
the tie-break) is applied through the live service's own machinery, and
the whole decision — trigger evidence, every candidate with its verdict,
the applied action — is recorded as a
:class:`~repro.api.types.RemediationRecord` bound for the manifest's v6
``control`` block.

Everything here is a pure function of the event stream: detector state
advances only on counter deltas, proposals are derived from the catalog
and SLO tables, and no wall clock is consulted — the determinism
contract of the control plane's byte-identical replay.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Collection, Mapping, Sequence

from repro.api.types import (
    RemediationCandidate,
    RemediationPolicy,
    RemediationRecord,
)
from repro.core.frequencies import pamad_frequencies_for
from repro.core.intmath import ceil_div
from repro.live.catalog import required_channels_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.live.service import LiveBroadcastService

__all__ = ["RemediationEngine", "plan_stats", "queued_deadlines"]

#: Strict-improvement tolerance for the model-delay comparison.
_DELAY_EPS = 1e-9


def plan_stats(
    histogram: Mapping[int, int], budget: int
) -> tuple[int, float, int]:
    """Judge a candidate catalog against a channel budget.

    The catalog is given as its ``expected_time -> page count``
    histogram (:meth:`~repro.live.catalog.LiveCatalog.deadline_counts`):
    Theorem 3.1 and the Eq. 2/3/5/7 model read nothing else, so every
    what-if is a histogram edit, never a copy of the page mapping.

    Returns ``(required_channels, predicted_delay, cycle_length)``:
    the exact Theorem-3.1 requirement, the model delay of the plan the
    budget affords (0.0 when the budget covers the requirement — a
    valid program exists), and that plan's major-cycle length.
    """
    required = required_channels_of(histogram)
    times = sorted(histogram)
    sizes = [histogram[t] for t in times]
    if required <= budget:
        t_h = times[-1]
        frequencies = [ceil_div(t_h, t) for t in times]
        slots = sum(s * p for s, p in zip(frequencies, sizes))
        return required, 0.0, ceil_div(slots, budget)
    assignment = pamad_frequencies_for(sizes, times, budget)
    return (
        required,
        assignment.predicted_delay,
        assignment.cycle_length(sizes),
    )


def queued_deadlines(live: "LiveBroadcastService") -> list[int]:
    """Deadlines of the pages the admission queue would add, FIFO order.

    Every queued insert is a new page: admission refuses an insert whose
    page is catalogued or already queued (``duplicate-page``).  This is
    the load the queue has been promised, which an SLO answer and the
    grown-budget candidate both count as committed.
    """
    return [event.expected_time for event in live.admission.queued]


class RemediationEngine:
    """Per-service detector → proposer → verifier loop.

    Args:
        name: The service the loop watches (stamped into records).
        live: The hosted :class:`~repro.live.service.
            LiveBroadcastService`; the engine reads its counters and
            applies passing actions through its repair machinery.
        policy: The :class:`~repro.api.types.RemediationPolicy`.
    """

    def __init__(
        self,
        name: str,
        live: "LiveBroadcastService",
        policy: RemediationPolicy,
    ) -> None:
        self.name = name
        self.live = live
        self.policy = policy
        self.records: list[RemediationRecord] = []
        self.extra_channels = 0
        self._last_attempt = -math.inf
        self._miss_streak = 0
        self._seen_listeners = 0
        self._seen_misses = 0
        self._seen_replans = 0
        self._replan_times: list[float] = []

    # ------------------------------------------------------------------
    # Detector
    # ------------------------------------------------------------------

    def _sync(self, now: float) -> None:
        """Fold the service's counter deltas into detector state.

        The control plane feeds events one at a time, so the listener
        delta per step is 0 or 1 and the consecutive-miss streak is
        exact: a served listener resets it, a missed one extends it.
        """
        listeners = self.live.counters["listeners"]
        misses = self.live.counters["misses"]
        delta_l = listeners - self._seen_listeners
        delta_m = misses - self._seen_misses
        if delta_l > 0:
            if delta_m == delta_l:
                self._miss_streak += delta_l
            else:
                self._miss_streak = delta_m
        self._seen_listeners = listeners
        self._seen_misses = misses
        replans = self.live.counters["full_replans"]
        if replans > self._seen_replans:
            self._replan_times.extend([now] * (replans - self._seen_replans))
            self._seen_replans = replans
        cutoff = now - self.policy.churn_window
        self._replan_times = [t for t in self._replan_times if t >= cutoff]

    def step(self) -> RemediationRecord | None:
        """Advance the detector; remediate when a breach is sustained.

        Called after every event the control plane feeds the service.
        Returns the record when a detector fired (whether or not any
        candidate passed verification), else ``None``.
        """
        now = self.live.now
        self._sync(now)
        if not self.policy.enabled:
            return None
        if now - self._last_attempt < self.policy.cooldown:
            return None
        trigger: str | None = None
        evidence: dict[str, object] = {}
        if self._miss_streak >= self.policy.miss_streak:
            trigger = "sustained-miss"
            evidence = {
                "miss_streak": self._miss_streak,
                "threshold": self.policy.miss_streak,
            }
        elif len(self._replan_times) >= self.policy.churn_threshold:
            trigger = "replan-churn"
            evidence = {
                "replans_in_window": len(self._replan_times),
                "window": self.policy.churn_window,
                "threshold": self.policy.churn_threshold,
            }
        if trigger is None:
            return None
        record = self._remediate(trigger, evidence, now)
        self.records.append(record)
        self._last_attempt = now
        self._miss_streak = 0
        self._replan_times.clear()
        # The applied action's own re-plan must not read as churn.
        self._seen_replans = self.live.counters["full_replans"]
        return record

    # ------------------------------------------------------------------
    # Proposer
    # ------------------------------------------------------------------

    def _worst_class(self, live_times: Collection[int]) -> int:
        """The catalog deadline class most in breach of its SLO.

        Ranked by per-class miss rate (then miss count, then tightness)
        over ``live_times``, the classes that still have pages in the
        catalog; with no listener evidence yet, the tightest class
        carries the most load per page and is the default suspect.
        """
        ranked = sorted(
            (
                (stats["miss_rate"], stats["misses"], -expected, expected)
                for expected, stats in self.live.slo.per_class().items()
                if expected in live_times
            ),
            reverse=True,
        )
        if ranked:
            return ranked[0][3]
        return min(live_times)

    def _judge(
        self,
        required: int,
        budget: int,
        delay: float,
        current_delay: float,
        moved: int,
    ) -> tuple[bool, str]:
        """The verifier: delay model first, reallocation budget second."""
        if moved > self.policy.max_pages_moved:
            return False, "exceeds-move-budget"
        if required <= budget and delay == 0.0:
            return True, "restores-slo"
        if delay < current_delay - _DELAY_EPS:
            return True, "improves-delay"
        return False, "no-improvement"

    def _remediate(
        self, trigger: str, evidence: dict, now: float
    ) -> RemediationRecord:
        candidates, retune_pages, retune_to, shed_pages = self._propose()
        applied = self._pick(candidates)
        applied_detail: Mapping[str, object] = {}
        if applied is not None:
            applied_detail = applied.detail
            self._apply(applied, retune_pages, retune_to, shed_pages)
        self.live._record(
            "remediation",
            trigger=trigger,
            candidates=len(candidates),
            applied=None if applied is None else applied.action,
        )
        return RemediationRecord(
            service=self.name,
            time=now,
            trigger=trigger,
            evidence=evidence,
            candidates=tuple(candidates),
            applied=None if applied is None else applied.action,
            applied_detail=applied_detail,
        )

    def _propose(
        self,
    ) -> tuple[list[RemediationCandidate], list[int], int | None, list[int]]:
        """Price every enabled candidate action, in proposal order.

        Each candidate is an edit of the catalog's deadline histogram,
        priced by :func:`plan_stats`; only the retune and shed page
        lists read page ids.  Returns the candidates plus what
        :meth:`_apply` needs: the pages to retune and their new
        deadline, and the pages to shed.
        """
        live = self.live
        catalog = live.catalog
        histogram = catalog.deadline_counts()
        budget = live.budget
        total = len(catalog)
        current_required, current_delay, current_cycle = plan_stats(
            histogram, budget
        )
        worst = self._worst_class(histogram)
        ladder = sorted(histogram)
        candidates: list[RemediationCandidate] = []

        retune_to: int | None = None
        retune_pages: list[int] = []
        if self.policy.allow_retune:
            rung = ladder.index(worst)
            # One rung up the divisibility ladder; the top class doubles
            # (2*t_h keeps every divisibility relation intact).
            retune_to = (
                ladder[rung + 1] if rung + 1 < len(ladder) else worst * 2
            )
            retune_pages = catalog.pages_at(worst)
            cand = dict(histogram)
            cand[retune_to] = cand.get(retune_to, 0) + cand.pop(worst)
            required, delay, cycle = plan_stats(cand, budget)
            moved = total if cycle != current_cycle else len(retune_pages)
            passed, reason = self._judge(
                required, budget, delay, current_delay, moved
            )
            candidates.append(
                RemediationCandidate(
                    action="retune",
                    detail={
                        "expected_time": worst,
                        "new_expected_time": retune_to,
                        "pages": len(retune_pages),
                    },
                    required_channels=required,
                    budget=budget,
                    predicted_delay=delay,
                    pages_moved=moved,
                    move_budget=self.policy.max_pages_moved,
                    passed=passed,
                    reason=reason,
                )
            )

        shed_pages: list[int] = []
        if self.policy.allow_shed:
            # Shed highest page ids of the worst class until the load
            # fits the budget (never the whole catalog); when the load
            # already fits, shed one page to relieve SLO pressure.
            cand = dict(histogram)
            for page in reversed(catalog.pages_at(worst)):
                if total - len(shed_pages) == 1:
                    break
                cand[worst] -= 1
                if not cand[worst]:
                    del cand[worst]
                shed_pages.append(page)
                if required_channels_of(cand) <= budget:
                    break
            if shed_pages:
                required, delay, _ = plan_stats(cand, budget)
                # Removals only clear the shed pages' own cells.
                moved = len(shed_pages)
                passed, reason = self._judge(
                    required, budget, delay, current_delay, moved
                )
            else:
                required, delay = current_required, current_delay
                moved, passed, reason = 0, False, "nothing-to-shed"
            candidates.append(
                RemediationCandidate(
                    action="shed",
                    detail={
                        "expected_time": worst,
                        "pages": list(shed_pages),
                    },
                    required_channels=required,
                    budget=budget,
                    predicted_delay=delay,
                    pages_moved=moved,
                    move_budget=self.policy.max_pages_moved,
                    passed=passed,
                    reason=reason,
                )
            )

        if self.policy.allow_add_channel:
            # Growing the budget re-plans everything and lets the
            # admission queue drain, so judge the catalog plus its
            # queued inserts at the grown budget.
            cand = dict(histogram)
            for expected in queued_deadlines(live):
                cand[expected] = cand.get(expected, 0) + 1
            required, delay, _ = plan_stats(cand, budget + 1)
            if self.extra_channels >= self.policy.max_extra_channels:
                passed, reason = False, "channel-cap"
            else:
                passed, reason = self._judge(
                    required, budget + 1, delay, current_delay, total
                )
            candidates.append(
                RemediationCandidate(
                    action="add_channel",
                    detail={
                        "channels": budget + 1,
                        "queued_inserts": len(live.admission.queued),
                    },
                    required_channels=required,
                    budget=budget + 1,
                    predicted_delay=delay,
                    pages_moved=total,
                    move_budget=self.policy.max_pages_moved,
                    passed=passed,
                    reason=reason,
                )
            )

        # A re-plan keeps the catalog: it is priced as it stands.
        passed, reason = self._judge(
            current_required, budget, current_delay, current_delay, total
        )
        candidates.append(
            RemediationCandidate(
                action="full_replan",
                detail={},
                required_channels=current_required,
                budget=budget,
                predicted_delay=current_delay,
                pages_moved=total,
                move_budget=self.policy.max_pages_moved,
                passed=passed,
                reason=reason,
            )
        )
        return candidates, retune_pages, retune_to, shed_pages

    @staticmethod
    def _pick(
        candidates: Sequence[RemediationCandidate],
    ) -> RemediationCandidate | None:
        """Cheapest passing candidate; proposal order breaks ties."""
        passing = [
            (candidate.pages_moved, order, candidate)
            for order, candidate in enumerate(candidates)
            if candidate.passed
        ]
        if not passing:
            return None
        return min(passing)[2]

    # ------------------------------------------------------------------
    # Apply
    # ------------------------------------------------------------------

    def _apply(
        self,
        candidate: RemediationCandidate,
        retune_pages: list[int],
        retune_to: int | None,
        shed_pages: list[int],
    ) -> None:
        """Apply a verified action through the service's own machinery."""
        live = self.live
        if candidate.action == "retune":
            assert retune_to is not None
            for page in retune_pages:
                live.catalog.retune(page, retune_to)
            live._full_replan("remediate-retune")
        elif candidate.action == "shed":
            for page in shed_pages:
                live.catalog.remove(page)
                live._apply_remove(page)
        elif candidate.action == "add_channel":
            live.budget += 1
            live.admission.budget += 1
            self.extra_channels += 1
            live._full_replan("remediate-add-channel")
        else:  # full_replan
            live._full_replan("remediate-full-replan")
        # A removal or relaxation may have opened room for queued
        # inserts; the grown budget certainly did.
        live._drain_queue()
        # Judge the remediated program on its own observations.
        live.slo.reset_window()

    # ------------------------------------------------------------------
    # Manifest block
    # ------------------------------------------------------------------

    def as_dict(self) -> dict:
        """The remediation half of the manifest's ``control`` block."""
        triggers: dict[str, int] = {}
        applied = 0
        for record in self.records:
            triggers[record.trigger] = triggers.get(record.trigger, 0) + 1
            if record.applied is not None:
                applied += 1
        return {
            "policy": self.policy.to_dict(),
            "records": [record.to_dict() for record in self.records],
            "applied": applied,
            "extra_channels": self.extra_channels,
            "triggers": dict(sorted(triggers.items())),
        }
