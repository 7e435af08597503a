"""repro.resilience — fault injection and recovery over the engine/simulator.

The paper proves its guarantees for a static channel count; this package
models what production broadcast infrastructure actually does — lose and
regain transmitters, corrupt individual slot transmissions — and measures
how much of the guarantee each recovery strategy preserves.

* :mod:`repro.resilience.faultplan` — seeded, replayable fault timelines
  (Poisson churn or explicit scripts), JSON-serialisable.
* :mod:`repro.resilience.degrade` — the structural core: what survives
  when channels go silent.
* :mod:`repro.resilience.policies` — recovery policies (``carry_on``,
  ``reschedule_full``, ``reschedule_throttled``, ``shed_load``) and the
  trace-replay harness that scores them from the client's point of view.

The control plane's chaos harness (:mod:`repro.control.chaos`) extends
the same stance — every fault sequence is a pure function of its seed,
so failures are replayable — from broadcast channels to the serving
transport and process lifetime (dropped responses, kill-restarts
recovered from the write-ahead journal).

Typical use::

    from repro.resilience import poisson_churn_plan, compare_policies
    from repro.workload.generator import paper_instance

    instance = paper_instance("uniform")
    plan = poisson_churn_plan(13, horizon=300, seed=7, fail_rate=0.02)
    for outcome in compare_policies(instance, plan):
        print(outcome.policy, outcome.violation_fraction)
"""

from repro.resilience.degrade import (
    DegradedProgram,
    FailureComparison,
    compare_static_failure_sizes,
    silence_channels,
)
from repro.resilience.faultplan import (
    EVENT_KINDS,
    FaultEvent,
    FaultPlan,
    poisson_churn_plan,
    scripted_plan,
    static_failure_plan,
)
from repro.resilience.policies import (
    POLICY_NAMES,
    AirState,
    CarryOn,
    RecoveryPolicy,
    ReplayOutcome,
    RescheduleFull,
    RescheduleThrottled,
    ShedLoad,
    compare_policies,
    default_policies,
    make_policy,
    replay_plan,
)

__all__ = [
    "EVENT_KINDS",
    "POLICY_NAMES",
    "AirState",
    "CarryOn",
    "DegradedProgram",
    "FailureComparison",
    "FaultEvent",
    "FaultPlan",
    "RecoveryPolicy",
    "ReplayOutcome",
    "RescheduleFull",
    "RescheduleThrottled",
    "ShedLoad",
    "compare_policies",
    "compare_static_failure_sizes",
    "default_policies",
    "make_policy",
    "poisson_churn_plan",
    "replay_plan",
    "scripted_plan",
    "silence_channels",
    "static_failure_plan",
]
