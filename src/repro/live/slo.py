"""Deadline-miss SLO tracking for the live service.

The paper's quality bar is structural: a *valid* program guarantees no
client ever waits longer than its page's expected time.  The live
runtime cannot always hold that bar — the catalog mutates, admission may
be disabled, and PAMAD programs below the Theorem-3.1 floor trade
validity for average delay — so it needs the operational version of the
same promise: observe every listener, compare waiting time against the
deadline the client was promised, and keep a rolling miss-rate that a
controller can act on.

:class:`SloTracker` does exactly that.  Misses are tracked globally and
per expected-time class (the paper's "group" notion carried over to a
mutating catalog, where group indices are unstable but deadlines are
meaningful), over both the full run and a sliding window of the last
``window`` observations.  :meth:`breached` is the trigger the service
uses to force a full re-plan when repair debt accumulates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.errors import SimulationError

__all__ = ["SloObservation", "SloTracker"]


@dataclass(frozen=True, slots=True)
class SloObservation:
    """One replayed listener, judged against its promised deadline.

    Attributes:
        time: Arrival time of the listener.
        page_id: The page the client asked for.
        expected_time: The deadline the client was promised.
        wait: Observed waiting time in slots; ``None`` when the page was
            not on air at arrival (counts as a miss).
        miss: True when ``wait`` is ``None`` or exceeds the deadline.
    """

    time: float
    page_id: int
    expected_time: int
    wait: float | None
    miss: bool

    def as_dict(self) -> dict:
        return {
            "time": self.time,
            "page_id": self.page_id,
            "expected_time": self.expected_time,
            "wait": self.wait,
            "miss": self.miss,
        }


class SloTracker:
    """Rolling deadline-miss accounting, global and per deadline class.

    Args:
        window: Number of most-recent observations the rolling miss rate
            is computed over.
        target_miss_rate: The SLO threshold; :meth:`breached` fires when
            the rolling rate exceeds it (and the window has filled
            enough to be meaningful).
    """

    def __init__(
        self, window: int = 64, target_miss_rate: float = 0.05
    ) -> None:
        if window < 1:
            raise SimulationError(f"window must be >= 1, got {window}")
        if not 0.0 <= target_miss_rate <= 1.0:
            raise SimulationError(
                f"target_miss_rate must be in [0, 1], got {target_miss_rate}"
            )
        self.window = window
        self.target_miss_rate = target_miss_rate
        self._recent: deque[bool] = deque(maxlen=window)
        self.listeners = 0
        self.misses = 0
        self.total_wait = 0.0
        self.served = 0
        self._per_class: dict[int, dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def observe(
        self,
        time: float,
        page_id: int,
        expected_time: int,
        wait: float | None,
    ) -> SloObservation:
        """Record one listener; returns the judged observation."""
        miss = wait is None or wait > expected_time
        self.listeners += 1
        if miss:
            self.misses += 1
        if wait is not None:
            self.total_wait += wait
            self.served += 1
        self._recent.append(miss)
        bucket = self._per_class.setdefault(
            expected_time, {"listeners": 0, "misses": 0}
        )
        bucket["listeners"] += 1
        if miss:
            bucket["misses"] += 1
        return SloObservation(
            time=time,
            page_id=page_id,
            expected_time=expected_time,
            wait=wait,
            miss=miss,
        )

    def observe_batch(self, expected_times, waits, served, misses) -> None:
        """Fold a whole batch of judged listeners into the tracker.

        Equivalent to calling :meth:`observe` once per listener in
        order, but with the per-listener bookkeeping done in bulk — the
        batched listener engine's half of the determinism contract.
        Counters, the rolling window and per-class buckets are exactly
        sequential (integer arithmetic and ordered appends).
        ``total_wait`` is folded left to right too: ``np.cumsum`` over
        the served waits, the first seeded with the running total, adds
        in strict order, so its last element is the total
        :meth:`observe` would reach, bit for bit (``ndarray.sum`` sums
        pairwise and would not be).

        Args:
            expected_times: Promised deadline per listener (ints).
            waits: Observed wait per listener; entries where ``served``
                is False are ignored (the page was off air).
            served: Bool per listener — was the page on air?
            misses: Bool per listener — deadline missed (off air or
                ``wait > expected``)?  Judged by the caller so the wait
                comparison happens once, vectorised.
        """
        import numpy as np

        miss_arr = np.asarray(misses, dtype=bool)
        served_arr = np.asarray(served, dtype=bool)
        waits_arr = np.asarray(waits, dtype=np.float64)
        exp_arr = np.asarray(expected_times, dtype=np.int64)
        count = int(miss_arr.shape[0])
        if not (
            exp_arr.shape[0] == waits_arr.shape[0]
            == served_arr.shape[0] == count
        ):
            raise SimulationError(
                "observe_batch arrays must share one length, got "
                f"{exp_arr.shape[0]}/{waits_arr.shape[0]}/"
                f"{served_arr.shape[0]}/{count}"
            )
        self.listeners += count
        self.misses += int(miss_arr.sum())
        fold = waits_arr[served_arr]  # a copy, so it is folded in place
        if fold.size:
            fold[0] += self.total_wait
            self.total_wait = float(np.cumsum(fold, out=fold)[-1])
        self.served += int(served_arr.sum())
        # Only the last `window` observations can survive in the deque,
        # so extending with that tail is sequentially equivalent.
        self._recent.extend(miss_arr[-self.window:].tolist())
        if not count:
            return
        top = int(exp_arr.max())
        if int(exp_arr.min()) >= 0 and top <= 4 * count + 1024:
            # Dense deadline classes (the only kind the validators
            # admit): two bincounts replace the per-class masking pass.
            per = np.bincount(exp_arr, minlength=top + 1)
            per_miss = np.bincount(exp_arr[miss_arr], minlength=top + 1)
            for expected in np.flatnonzero(per).tolist():
                bucket = self._per_class.setdefault(
                    expected, {"listeners": 0, "misses": 0}
                )
                bucket["listeners"] += int(per[expected])
                bucket["misses"] += int(per_miss[expected])
        else:
            for expected in np.unique(exp_arr).tolist():
                mask = exp_arr == expected
                bucket = self._per_class.setdefault(
                    int(expected), {"listeners": 0, "misses": 0}
                )
                bucket["listeners"] += int(mask.sum())
                bucket["misses"] += int(miss_arr[mask].sum())

    # ------------------------------------------------------------------
    # Rates
    # ------------------------------------------------------------------

    @property
    def miss_rate(self) -> float:
        """Whole-run miss rate."""
        return self.misses / self.listeners if self.listeners else 0.0

    @property
    def rolling_miss_rate(self) -> float:
        """Miss rate over the last ``window`` observations."""
        if not self._recent:
            return 0.0
        return sum(self._recent) / len(self._recent)

    @property
    def average_wait(self) -> float:
        """Mean wait over listeners that were actually served."""
        return self.total_wait / self.served if self.served else 0.0

    def breached(self) -> bool:
        """True when the rolling miss rate exceeds the SLO target.

        Requires at least half a window of observations so a single
        early miss cannot trigger a re-plan storm.
        """
        if len(self._recent) < max(1, self.window // 2):
            return False
        return self.rolling_miss_rate > self.target_miss_rate

    def reset_window(self) -> None:
        """Forget the rolling window (whole-run totals are kept).

        Called after a corrective re-plan so the new program is judged on
        its own observations instead of inheriting the breach that
        triggered it.
        """
        self._recent.clear()

    def per_class(self) -> dict[int, dict[str, float]]:
        """Miss accounting per promised deadline, sorted by deadline."""
        out: dict[int, dict[str, float]] = {}
        for expected in sorted(self._per_class):
            bucket = self._per_class[expected]
            out[expected] = {
                "listeners": bucket["listeners"],
                "misses": bucket["misses"],
                "miss_rate": (
                    bucket["misses"] / bucket["listeners"]
                    if bucket["listeners"]
                    else 0.0
                ),
            }
        return out

    def as_dict(self) -> dict:
        """Summary block for run manifests."""
        return {
            "listeners": self.listeners,
            "misses": self.misses,
            "miss_rate": round(self.miss_rate, 6),
            "rolling_miss_rate": round(self.rolling_miss_rate, 6),
            "average_wait": round(self.average_wait, 6),
            "window": self.window,
            "target_miss_rate": self.target_miss_rate,
            "per_class": {
                str(expected): {
                    "listeners": stats["listeners"],
                    "misses": stats["misses"],
                    "miss_rate": round(stats["miss_rate"], 6),
                }
                for expected, stats in self.per_class().items()
            },
        }
