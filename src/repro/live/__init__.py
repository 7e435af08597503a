"""Live broadcast service runtime (DESIGN §9).

The paper plans broadcast programs for a frozen page catalog; this
package turns those planners into a *runtime*.  A
:class:`~repro.live.service.LiveBroadcastService` replays a seeded
:class:`~repro.live.mutations.MutationTrace` (page inserts, removals,
expected-time retunes, listener arrivals) on the deterministic event
loop, keeping a program on air throughout via incremental slot repair
when the Theorem-3.1 bound has slack and full SUSC/PAMAD re-plans
through :class:`~repro.engine.BroadcastEngine` when it does not, with
budget-guarding admission control and a rolling deadline-miss SLO
controller deciding what gets on air at all.

Entry points:

* :func:`repro.workload.generate_mutation_trace` — seeded trace maker;
* :class:`LiveBroadcastService` / :class:`LiveReport` — the runtime;
* :class:`AdmissionController` / :class:`AdmissionDecision` — the
  Theorem-3.1 admission over one :class:`LiveCatalog` ledger per shard,
  shared by the live service (one shard) and the federation router;
* :meth:`repro.engine.BroadcastEngine.live` — the manifested facade op;
* :func:`replay_pull_lwf` — the Longest-Wait-First pull baseline;
* ``repro-air live`` — the CLI front end.
"""

from repro.live.admission import (
    VERDICTS,
    AdmissionController,
    AdmissionDecision,
)
from repro.live.baseline import PullOutcome, replay_pull_lwf
from repro.live.catalog import LiveCatalog
from repro.live.mutations import (
    CATALOG_KINDS,
    MUTATION_KINDS,
    MutationEvent,
    MutationTrace,
    scripted_trace,
)
from repro.live.service import LiveBroadcastService, LiveReport
from repro.live.slo import SloObservation, SloTracker

__all__ = [
    "CATALOG_KINDS",
    "MUTATION_KINDS",
    "VERDICTS",
    "AdmissionController",
    "AdmissionDecision",
    "LiveBroadcastService",
    "LiveCatalog",
    "LiveReport",
    "MutationEvent",
    "MutationTrace",
    "PullOutcome",
    "SloObservation",
    "SloTracker",
    "replay_pull_lwf",
    "scripted_trace",
]
