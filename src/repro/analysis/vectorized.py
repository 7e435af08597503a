"""numpy-vectorised delay evaluation for large sweeps, re-exported.

* :func:`~repro.core.delay.paper_group_delay_batch` — Equation (2) for
  many frequency vectors at once;
* :func:`~repro.core.program.batch_waits` — next-appearance waits for
  many requests against an :class:`~repro.core.program.AppearanceIndex`.
  A program's index is built once per program version and shared by
  every reader, so repeated measurements of the same program — a sweep
  cell measured under many seeds, or the live service replaying
  batches of listeners between re-plans — never re-pack it.  It
  answers the Figure-5 measurement
  (:func:`repro.sim.clients.measure_program`) and the live service's
  listener replay alike.

A program's exact AvgD is :func:`repro.core.delay.program_average_delay`
itself, one array pass over the same index.
"""

from __future__ import annotations

from repro.core.delay import paper_group_delay_batch
from repro.core.program import AppearanceIndex, batch_waits

__all__ = [
    "paper_group_delay_batch",
    "AppearanceIndex",
    "batch_waits",
]
