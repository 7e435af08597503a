"""repro — a reproduction of "Time-Constrained Service on Air" (ICDCS 2005).

Broadcast scheduling for wireless data dissemination under per-page
*expected times*: every client, no matter when it starts listening, should
receive the page it wants within that page's expected time — or, when the
channel budget makes that impossible, with the minimum average extra delay.

The three questions the paper answers, and where the answers live here:

1. *How many channels are minimally required?*
   :func:`repro.core.minimum_channels` (Theorem 3.1).
2. *How to schedule with that minimum?*
   :func:`repro.core.schedule_susc` (the SUSC algorithm — always produces
   a valid program).
3. *How to schedule with fewer channels?*
   :func:`repro.core.schedule_pamad` (the PAMAD heuristic — near-optimal
   average delay), with :mod:`repro.baselines` providing the paper's m-PB
   and OPT comparators.

Quick start::

    from repro import (
        instance_from_counts, plan_channels, schedule_susc, schedule_pamad,
    )

    instance = instance_from_counts(sizes=[3, 5, 3], expected_times=[2, 4, 8])
    plan = plan_channels(instance, available=3)
    schedule = (
        schedule_susc(instance)            # zero delay, needs plan.required
        if plan.sufficient
        else schedule_pamad(instance, 3)   # minimum average delay
    )
    print(schedule.program.render())

For repeated or production-scale work, drive everything through the
engine facade instead — cached scheduling, parallel sweeps, and a JSON
run manifest per call::

    from repro import BroadcastEngine

    engine = BroadcastEngine(workers=4)
    schedule = engine.schedule(instance, "pamad", channels=3)
    sweep = engine.sweep(instance, algorithms=("pamad", "m-pb", "opt"))
    print(sweep.manifest.to_json())

Subpackages:

* :mod:`repro.core` — data model, bounds, SUSC, PAMAD, delay models.
* :mod:`repro.baselines` — m-PB, OPT, drop-pages, flat round-robin.
* :mod:`repro.workload` — Figure-3 distributions and request streams.
* :mod:`repro.sim` — client replay, on-demand queueing, hybrid push/pull.
* :mod:`repro.resilience` — seeded fault timelines, recovery policies,
  churn replay measurement.
* :mod:`repro.live` — live broadcast runtime: mutation traces, admission
  control against the Theorem-3.1 bound, incremental rescheduling, SLO
  tracking, pull (LWF) baseline.
* :mod:`repro.analysis` — sweeps, statistics, experiment registry.
* :mod:`repro.engine` — the BroadcastEngine facade: scheduler registry
  (plugin API), program cache, hardened parallel sweep executor
  (timeout/retry/circuit-breaker), telemetry.
"""

from repro.core import (
    BroadcastProgram,
    ChannelPlan,
    FrequencyAssignment,
    Group,
    InsufficientChannelsError,
    InvalidInstanceError,
    Page,
    PamadSchedule,
    ProblemInstance,
    ProgramValidationError,
    ReproError,
    SchedulingError,
    SuscSchedule,
    ValidationReport,
    assert_valid_program,
    channel_load,
    instance_from_counts,
    instance_from_expected_times,
    minimum_channels,
    pamad_frequencies,
    plan_channels,
    program_average_delay,
    rearrange,
    schedule_pamad,
    schedule_susc,
    validate_program,
)
from repro.live import (
    LiveBroadcastService,
    LiveCatalog,
    MutationEvent,
    MutationTrace,
)
from repro.engine import (
    BroadcastEngine,
    EngineEvaluation,
    FederationResult,
    LiveServiceResult,
    RunManifest,
    ScheduleResult,
    SweepPoint,
    SweepResult,
    available_schedulers,
    default_engine,
    get_scheduler,
    register_scheduler,
)

__version__ = "1.10.0"

__all__ = [
    "BroadcastEngine",
    "BroadcastProgram",
    "ChannelPlan",
    "EngineEvaluation",
    "LiveBroadcastService",
    "LiveCatalog",
    "FederationResult",
    "LiveServiceResult",
    "MutationEvent",
    "MutationTrace",
    "RunManifest",
    "ScheduleResult",
    "SweepPoint",
    "SweepResult",
    "FrequencyAssignment",
    "Group",
    "InsufficientChannelsError",
    "InvalidInstanceError",
    "Page",
    "PamadSchedule",
    "ProblemInstance",
    "ProgramValidationError",
    "ReproError",
    "SchedulingError",
    "SuscSchedule",
    "ValidationReport",
    "__version__",
    "assert_valid_program",
    "available_schedulers",
    "channel_load",
    "default_engine",
    "get_scheduler",
    "register_scheduler",
    "instance_from_counts",
    "instance_from_expected_times",
    "minimum_channels",
    "pamad_frequencies",
    "plan_channels",
    "program_average_delay",
    "rearrange",
    "schedule_pamad",
    "schedule_susc",
    "validate_program",
]
