"""Parameter sweeps — thin compatibility layer over the BroadcastEngine.

The paper's evaluation sweeps the channel count from 1 up to the minimum
sufficient number and plots AvgD for PAMAD, m-PB and OPT.  The heavy
lifting lives in :mod:`repro.engine`: the scheduler registry is the
engine's public plugin API (:func:`repro.engine.register_scheduler`,
:func:`repro.engine.get_scheduler`), the sweep loop is
:meth:`repro.engine.BroadcastEngine.sweep` (cached, optionally
parallel, manifest-emitting), and this module keeps two entry points:

* :func:`channel_sweep` — runs on the process-wide default engine and
  returns the classic ``list[SweepPoint]``.
* :func:`sweep_table` — unchanged pivoting of points into a table.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.analysis.report import Table
from repro.core.pages import ProblemInstance
from repro.engine.executor import SweepPoint, default_channel_points
from repro.engine.facade import BroadcastEngine, default_engine

__all__ = [
    "default_channel_points",
    "SweepPoint",
    "channel_sweep",
    "sweep_table",
]


def channel_sweep(
    instance: ProblemInstance,
    algorithms: Sequence[str] = ("pamad", "m-pb", "opt"),
    channel_points: Sequence[int] | None = None,
    num_requests: int = 3000,
    seed: int = 0,
    workers: int | None = None,
    engine: BroadcastEngine | None = None,
) -> list[SweepPoint]:
    """Measure AvgD over a grid of channel counts and algorithms.

    Runs on the process-wide :func:`~repro.engine.default_engine` (so
    repeated sweeps hit its program cache) unless an explicit engine is
    given.

    Args:
        instance: The workload (e.g. a Figure-3 paper instance).
        algorithms: Registry names to compare (paper: PAMAD, m-PB, OPT).
        channel_points: Channel counts to evaluate; defaults to
            :func:`default_channel_points` up to the Theorem-3.1 minimum.
        num_requests: Monte-Carlo stream length per cell (paper: 3000).
        seed: Base RNG seed; each cell derives its own deterministic seed.
        workers: Optional pool width (>1 fans cells across processes;
            results are bit-identical to the serial order).
        engine: Optional engine override (isolated cache/telemetry).

    Returns:
        All sweep points, ordered by (channel count, algorithm order).
    """
    result = (engine or default_engine()).sweep(
        instance,
        algorithms=algorithms,
        channel_points=channel_points,
        num_requests=num_requests,
        seed=seed,
        workers=workers,
    )
    return list(result.points)


def sweep_table(
    points: Sequence[SweepPoint],
    title: str,
    metric: str = "simulated_delay",
) -> Table:
    """Pivot sweep points into a channels-by-algorithm table.

    Args:
        points: Output of :func:`channel_sweep`.
        title: Table heading.
        metric: Which :class:`SweepPoint` field fills the cells.
    """
    algorithms = list(dict.fromkeys(p.algorithm for p in points))
    channels = sorted({p.channels for p in points})
    table = Table(title=title, columns=["channels", *algorithms])
    lookup = {(p.algorithm, p.channels): getattr(p, metric) for p in points}
    for count in channels:
        table.add_row(
            count,
            *(
                lookup.get((algorithm, count), math.nan)
                for algorithm in algorithms
            ),
        )
    table.notes.append(f"metric: {metric}")
    return table
