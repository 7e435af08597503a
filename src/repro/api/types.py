"""Frozen request/response dataclasses shared by every client.

Each type is a value object with an exact ``to_dict`` / ``from_dict``
JSON round trip; the codec in :mod:`repro.api.codec` wraps those dicts
in a versioned envelope.  The control plane, the CLI and the tests all
build and consume these objects — nothing else crosses the wire.

Design rules:

* every field is JSON-representable (ints, floats, strings, bools,
  tuples of the above, string-keyed mappings);
* ``from_dict`` coerces types defensively (a payload that came off the
  wire is untrusted) and raises :class:`~repro.core.errors.ReproError`
  on structurally invalid input;
* requests carry the *service name* they address; responses echo it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.errors import ReproError
from repro.live.mutations import MutationEvent

__all__ = [
    "Ack",
    "ApiError",
    "CreateServiceRequest",
    "ErrorBudgetQuery",
    "ErrorBudgetReport",
    "FederationCreate",
    "FinishService",
    "ListServices",
    "MAX_EXPECTED_TIME",
    "MAX_QUERY_PAGES",
    "MutationBatch",
    "MutationBatchResult",
    "RemediationCandidate",
    "RemediationPolicy",
    "RemediationRecord",
    "ServiceCreated",
    "ServiceList",
    "ServiceManifest",
    "ShardReport",
    "Shutdown",
    "SloQuery",
    "SloVerdict",
]


def _require(payload: Mapping, key: str):
    try:
        return payload[key]
    except KeyError:
        raise ReproError(
            f"api payload missing required field {key!r}"
        ) from None


def _catalog_from(payload: Mapping) -> dict[int, int]:
    return {int(k): int(v) for k, v in dict(payload).items()}


def _check_expected_times(what: str, times) -> None:
    """Refuse an expected time past :data:`MAX_EXPECTED_TIME`."""
    for expected in times:
        if expected is not None and expected > MAX_EXPECTED_TIME:
            raise ReproError(
                f"{what} expected_time must be <= {MAX_EXPECTED_TIME}, "
                f"got {expected}"
            )


def _catalog_to(catalog: Mapping[int, int]) -> dict[str, int]:
    # JSON objects have string keys; sort for canonical serialisation.
    return {
        str(k): int(catalog[k]) for k in sorted(catalog, key=int)
    }


# ----------------------------------------------------------------------
# Remediation configuration and decision trail
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RemediationPolicy:
    """Configuration of the detector → proposer → verifier loop.

    Attributes:
        enabled: Master switch; when False the control plane only
            observes (the live service's own SLO re-plans still run).
        miss_streak: Consecutive missed listeners that count as a
            *sustained* deadline-miss breach.
        churn_window: Slots of history the re-plan churn detector looks
            back over.
        churn_threshold: Full re-plans within ``churn_window`` slots
            that count as churn.
        cooldown: Minimum slots between remediation attempts.
        max_pages_moved: Reallocation budget — a candidate action whose
            estimated page movement exceeds this fails verification
            (the Farach-Colton dynamic-windows reallocation bound,
            applied to recovery actions).
        allow_retune: Permit relaxing the worst-missing deadline class
            up the ladder.
        allow_shed: Permit removing pages of the worst-missing class.
        allow_add_channel: Permit growing the channel budget.
        max_extra_channels: Ceiling on budget growth over the lifetime
            of the service.
    """

    enabled: bool = True
    miss_streak: int = 8
    churn_window: int = 32
    churn_threshold: int = 3
    cooldown: int = 16
    max_pages_moved: int = 64
    allow_retune: bool = True
    allow_shed: bool = True
    allow_add_channel: bool = True
    max_extra_channels: int = 2

    def __post_init__(self) -> None:
        if self.miss_streak < 1:
            raise ReproError(
                f"miss_streak must be >= 1, got {self.miss_streak}"
            )
        if self.churn_window < 1 or self.churn_threshold < 1:
            raise ReproError(
                "churn_window and churn_threshold must be >= 1, got "
                f"{self.churn_window}/{self.churn_threshold}"
            )
        if self.cooldown < 0:
            raise ReproError(
                f"cooldown must be >= 0, got {self.cooldown}"
            )
        if self.max_pages_moved < 0 or self.max_extra_channels < 0:
            raise ReproError(
                "max_pages_moved and max_extra_channels must be >= 0, "
                f"got {self.max_pages_moved}/{self.max_extra_channels}"
            )

    def to_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "miss_streak": self.miss_streak,
            "churn_window": self.churn_window,
            "churn_threshold": self.churn_threshold,
            "cooldown": self.cooldown,
            "max_pages_moved": self.max_pages_moved,
            "allow_retune": self.allow_retune,
            "allow_shed": self.allow_shed,
            "allow_add_channel": self.allow_add_channel,
            "max_extra_channels": self.max_extra_channels,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RemediationPolicy":
        data = dict(payload)
        return cls(
            enabled=bool(data.get("enabled", True)),
            miss_streak=int(data.get("miss_streak", 8)),
            churn_window=int(data.get("churn_window", 32)),
            churn_threshold=int(data.get("churn_threshold", 3)),
            cooldown=int(data.get("cooldown", 16)),
            max_pages_moved=int(data.get("max_pages_moved", 64)),
            allow_retune=bool(data.get("allow_retune", True)),
            allow_shed=bool(data.get("allow_shed", True)),
            allow_add_channel=bool(data.get("allow_add_channel", True)),
            max_extra_channels=int(data.get("max_extra_channels", 2)),
        )


#: Actions the remediation proposer may put forward.
REMEDIATION_ACTIONS = ("retune", "shed", "add_channel", "full_replan")


@dataclass(frozen=True)
class RemediationCandidate:
    """One proposed recovery action, with its verification evidence.

    Attributes:
        action: One of :data:`REMEDIATION_ACTIONS`.
        detail: Action parameters (pages to shed, class to retune, ...).
        required_channels: Theorem-3.1 requirement of the catalog the
            action would produce.
        budget: The channel budget the action would run under.
        predicted_delay: Eq. 2/3/5/7 model delay of the re-planned
            candidate (0.0 means the SLO is structurally restored).
        pages_moved: Estimated pages whose broadcast slots the action
            moves (the reallocation cost).
        move_budget: The ``max_pages_moved`` bound it was judged against.
        passed: Whether the verifier accepted the candidate.
        reason: Machine-stable verdict explanation.
    """

    action: str
    detail: Mapping[str, object]
    required_channels: int
    budget: int
    predicted_delay: float
    pages_moved: int
    move_budget: int
    passed: bool
    reason: str

    def __post_init__(self) -> None:
        if self.action not in REMEDIATION_ACTIONS:
            raise ReproError(
                f"unknown remediation action {self.action!r}; choose "
                f"from {', '.join(REMEDIATION_ACTIONS)}"
            )

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "detail": dict(self.detail),
            "required_channels": self.required_channels,
            "budget": self.budget,
            "predicted_delay": round(self.predicted_delay, 6),
            "pages_moved": self.pages_moved,
            "move_budget": self.move_budget,
            "passed": self.passed,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RemediationCandidate":
        return cls(
            action=str(_require(payload, "action")),
            detail=dict(payload.get("detail", {})),
            required_channels=int(_require(payload, "required_channels")),
            budget=int(_require(payload, "budget")),
            predicted_delay=float(_require(payload, "predicted_delay")),
            pages_moved=int(_require(payload, "pages_moved")),
            move_budget=int(_require(payload, "move_budget")),
            passed=bool(_require(payload, "passed")),
            reason=str(payload.get("reason", "")),
        )


@dataclass(frozen=True)
class RemediationRecord:
    """One full detector → proposer → verifier → apply cycle.

    Attributes:
        service: The service the remediation ran on.
        time: Simulation time of the triggering observation.
        trigger: ``sustained-miss`` or ``replan-churn``.
        evidence: Detector evidence (streak length, replans counted...).
        candidates: Every proposed action with its verification outcome,
            in proposal order.
        applied: The action that was applied, or ``None`` when no
            candidate passed verification.
        applied_detail: The applied candidate's parameters.
    """

    service: str
    time: float
    trigger: str
    evidence: Mapping[str, object]
    candidates: tuple[RemediationCandidate, ...]
    applied: str | None
    applied_detail: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "service": self.service,
            "time": self.time,
            "trigger": self.trigger,
            "evidence": dict(self.evidence),
            "candidates": [c.to_dict() for c in self.candidates],
            "applied": self.applied,
            "applied_detail": dict(self.applied_detail),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RemediationRecord":
        applied = payload.get("applied")
        return cls(
            service=str(_require(payload, "service")),
            time=float(_require(payload, "time")),
            trigger=str(_require(payload, "trigger")),
            evidence=dict(payload.get("evidence", {})),
            candidates=tuple(
                RemediationCandidate.from_dict(item)
                for item in payload.get("candidates", ())
            ),
            applied=None if applied is None else str(applied),
            applied_detail=dict(payload.get("applied_detail", {})),
        )


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CreateServiceRequest:
    """Stand up a named live broadcast service on the control plane.

    Attributes:
        name: Unique service name on this control plane.
        catalog: Initial ``page_id -> expected_time`` mapping.
        horizon: Session length in slots (events beyond it are refused).
        budget: Channel budget; ``None`` means the Theorem-3.1 minimum
            of the initial catalog (a taut budget).
        admission: Toggle Theorem-3.1 admission control.
        queue_limit: Admission queue capacity.
        slo_window: Rolling miss-rate window width.
        target_miss_rate: Rolling miss-rate SLO threshold.
        replan_cooldown: Minimum slots between SLO-triggered re-plans.
        coalesce_window: Mutation-coalescing window in slots.
        remediation: Auto-remediation configuration.
    """

    name: str
    catalog: Mapping[int, int]
    horizon: int = 256
    budget: int | None = None
    admission: bool = True
    queue_limit: int = 16
    slo_window: int = 64
    target_miss_rate: float = 0.05
    replan_cooldown: int = 8
    coalesce_window: int = 0
    remediation: RemediationPolicy = field(
        default_factory=RemediationPolicy
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("service name must be non-empty")
        if not self.catalog:
            raise ReproError("service catalog must be non-empty")
        _check_expected_times("catalog", self.catalog.values())
        if self.horizon < 1:
            raise ReproError(
                f"horizon must be >= 1, got {self.horizon}"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "catalog": _catalog_to(self.catalog),
            "horizon": self.horizon,
            "budget": self.budget,
            "admission": self.admission,
            "queue_limit": self.queue_limit,
            "slo_window": self.slo_window,
            "target_miss_rate": self.target_miss_rate,
            "replan_cooldown": self.replan_cooldown,
            "coalesce_window": self.coalesce_window,
            "remediation": self.remediation.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CreateServiceRequest":
        budget = payload.get("budget")
        return cls(
            name=str(_require(payload, "name")),
            catalog=_catalog_from(_require(payload, "catalog")),
            horizon=int(payload.get("horizon", 256)),
            budget=None if budget is None else int(budget),
            admission=bool(payload.get("admission", True)),
            queue_limit=int(payload.get("queue_limit", 16)),
            slo_window=int(payload.get("slo_window", 64)),
            target_miss_rate=float(payload.get("target_miss_rate", 0.05)),
            replan_cooldown=int(payload.get("replan_cooldown", 8)),
            coalesce_window=int(payload.get("coalesce_window", 0)),
            remediation=RemediationPolicy.from_dict(
                payload.get("remediation", {})
            ),
        )


@dataclass(frozen=True)
class MutationBatch:
    """A time-ordered batch of catalog mutations and listener arrivals.

    Events reuse :class:`~repro.live.mutations.MutationEvent` — the
    same value object the batch trace layer replays — and must be
    non-decreasing in time, both within the batch and across batches
    streamed to one service.

    ``request_id`` is the idempotency token of the retry layer: a batch
    carrying a non-empty id is applied at most once per control plane —
    a retransmission inside the server's dedup window returns the
    original response without re-applying the events.  The empty
    default means "no dedup", and is omitted from the wire form so
    id-less batches keep their historical byte encoding.
    """

    service: str
    events: tuple[MutationEvent, ...]
    request_id: str = ""

    def __post_init__(self) -> None:
        if not self.service:
            raise ReproError("MutationBatch needs a service name")
        times = [event.time for event in self.events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ReproError(
                "MutationBatch events must be ordered by time"
            )
        _check_expected_times(
            "event", (event.expected_time for event in self.events)
        )

    def to_dict(self) -> dict:
        payload: dict = {
            "service": self.service,
            "events": [event.to_dict() for event in self.events],
        }
        if self.request_id:
            payload["request_id"] = self.request_id
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MutationBatch":
        return cls(
            service=str(_require(payload, "service")),
            events=tuple(
                MutationEvent.from_dict(item)
                for item in payload.get("events", ())
            ),
            request_id=str(payload.get("request_id", "")),
        )


#: Largest ``SloQuery.pages``.  The plane prices a query on its one
#: event-loop thread at one load term per page, so an unbounded count
#: would stall every client; at the cap a query costs ~4 ms (2-vCPU
#: x86_64).
MAX_QUERY_PAGES = 65_536

#: Largest expected time a request may carry, anywhere: a catalog
#: entry, an event, a query.  The longest expected time sets the length
#: of the broadcast cycle the plane builds on its one event-loop thread:
#: ``{1: 2, 2: 2**20}`` takes ~110 ms to plan, and ``2**30`` would ask
#: for a grid of ~8 GB.
MAX_EXPECTED_TIME = 65_536


@dataclass(frozen=True)
class SloQuery:
    """"Is this deadline achievable under this channel budget?"

    Asks whether the service could serve ``pages`` *additional* pages
    at deadline ``expected_time`` without breaking the structural SLO
    (Theorem 3.1 against the current budget, with the admission queue's
    pending inserts counted as committed load).  ``pages=0`` asks about
    the catalog as it stands.
    """

    service: str
    expected_time: int
    pages: int = 1

    def __post_init__(self) -> None:
        if self.expected_time < 1:
            raise ReproError(
                f"expected_time must be >= 1, got {self.expected_time}"
            )
        _check_expected_times("query", (self.expected_time,))
        if not 0 <= self.pages <= MAX_QUERY_PAGES:
            raise ReproError(
                f"pages must be in 0..{MAX_QUERY_PAGES}, got {self.pages}"
            )

    def to_dict(self) -> dict:
        return {
            "service": self.service,
            "expected_time": self.expected_time,
            "pages": self.pages,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SloQuery":
        return cls(
            service=str(_require(payload, "service")),
            expected_time=int(_require(payload, "expected_time")),
            pages=int(payload.get("pages", 1)),
        )


@dataclass(frozen=True)
class ErrorBudgetQuery:
    """Request the per-deadline-class error-budget breakdown."""

    service: str

    def to_dict(self) -> dict:
        return {"service": self.service}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ErrorBudgetQuery":
        return cls(service=str(_require(payload, "service")))


@dataclass(frozen=True)
class FinishService:
    """Close a service: final report, v7 manifest, release the name."""

    service: str

    def to_dict(self) -> dict:
        return {"service": self.service}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FinishService":
        return cls(service=str(_require(payload, "service")))


@dataclass(frozen=True)
class ListServices:
    """Enumerate the services hosted on this control plane."""

    def to_dict(self) -> dict:
        return {}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ListServices":
        return cls()


@dataclass(frozen=True)
class Shutdown:
    """Stop the control plane (open services are finished first)."""

    def to_dict(self) -> dict:
        return {}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Shutdown":
        return cls()


@dataclass(frozen=True)
class FederationCreate:
    """Plan a sharded federation of the given catalog (a pure probe).

    Asks the control plane to partition ``catalog`` across ``shards``
    station shards on the deterministic group-aware consistent-hash
    ring and judge the placement against the per-shard ``budget``
    (Theorem 3.1, exact arithmetic).  The request mutates nothing — the
    plane answers with a :class:`ShardReport` and keeps no state — so a
    client can probe shard counts and budgets before standing stations
    up.

    Attributes:
        name: Federation name, echoed in the report.
        catalog: ``page_id -> expected_time`` mapping to partition;
            must span at least ``shards`` distinct ladder groups.
        shards: Station shard count.
        budget: Per-shard channel budget; ``None`` means the maximum
            Theorem-3.1 requirement over the partitions (every shard
            taut).
        seed: Ring placement seed.
    """

    name: str
    catalog: Mapping[int, int]
    shards: int = 2
    budget: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("federation name must be non-empty")
        if not self.catalog:
            raise ReproError("federation catalog must be non-empty")
        _check_expected_times("catalog", self.catalog.values())
        if self.shards < 1:
            raise ReproError(f"shards must be >= 1, got {self.shards}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "catalog": _catalog_to(self.catalog),
            "shards": self.shards,
            "budget": self.budget,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FederationCreate":
        budget = payload.get("budget")
        return cls(
            name=str(_require(payload, "name")),
            catalog=_catalog_from(_require(payload, "catalog")),
            shards=int(payload.get("shards", 2)),
            budget=None if budget is None else int(budget),
            seed=int(payload.get("seed", 0)),
        )


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceCreated:
    """Acknowledges :class:`CreateServiceRequest` with the initial plan."""

    service: str
    budget: int
    required_channels: int
    algorithm: str
    cycle_length: int
    pages: int

    def to_dict(self) -> dict:
        return {
            "service": self.service,
            "budget": self.budget,
            "required_channels": self.required_channels,
            "algorithm": self.algorithm,
            "cycle_length": self.cycle_length,
            "pages": self.pages,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ServiceCreated":
        return cls(
            service=str(_require(payload, "service")),
            budget=int(_require(payload, "budget")),
            required_channels=int(_require(payload, "required_channels")),
            algorithm=str(_require(payload, "algorithm")),
            cycle_length=int(_require(payload, "cycle_length")),
            pages=int(_require(payload, "pages")),
        )


@dataclass(frozen=True)
class MutationBatchResult:
    """Outcome of streaming one :class:`MutationBatch` into a service."""

    service: str
    applied: int
    admitted: int
    queued: int
    rejected: int
    listeners: int
    misses: int
    replans: int
    remediations: int

    def to_dict(self) -> dict:
        return {
            "service": self.service,
            "applied": self.applied,
            "admitted": self.admitted,
            "queued": self.queued,
            "rejected": self.rejected,
            "listeners": self.listeners,
            "misses": self.misses,
            "replans": self.replans,
            "remediations": self.remediations,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MutationBatchResult":
        return cls(
            service=str(_require(payload, "service")),
            applied=int(_require(payload, "applied")),
            admitted=int(_require(payload, "admitted")),
            queued=int(_require(payload, "queued")),
            rejected=int(_require(payload, "rejected")),
            listeners=int(_require(payload, "listeners")),
            misses=int(_require(payload, "misses")),
            replans=int(_require(payload, "replans")),
            remediations=int(_require(payload, "remediations")),
        )


@dataclass(frozen=True)
class SloVerdict:
    """The answer to an :class:`SloQuery`.

    Attributes:
        service: The service queried.
        achievable: Whether a valid program exists for the candidate
            load under the budget (Theorem 3.1, exact arithmetic).
        required_channels: The Theorem-3.1 requirement of the candidate
            catalog (current pages + queued inserts + queried pages).
        budget: The service's current channel budget.
        headroom: ``budget - required_channels`` (negative when
            unachievable).
        channel_load: The fractional demand ``sum 1/t_i`` of the
            candidate catalog.
        predicted_delay: 0.0 when achievable; otherwise the Eq. 2/3/5/7
            model delay of the best PAMAD compromise at the budget —
            the price of admitting the load anyway.
        queued_pages: Admission-queue inserts counted into the verdict.
        reason: ``fits-budget`` or ``exceeds-budget``.
    """

    service: str
    achievable: bool
    required_channels: int
    budget: int
    headroom: int
    channel_load: float
    predicted_delay: float
    queued_pages: int
    reason: str

    def to_dict(self) -> dict:
        return {
            "service": self.service,
            "achievable": self.achievable,
            "required_channels": self.required_channels,
            "budget": self.budget,
            "headroom": self.headroom,
            "channel_load": round(self.channel_load, 6),
            "predicted_delay": round(self.predicted_delay, 6),
            "queued_pages": self.queued_pages,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SloVerdict":
        return cls(
            service=str(_require(payload, "service")),
            achievable=bool(_require(payload, "achievable")),
            required_channels=int(_require(payload, "required_channels")),
            budget=int(_require(payload, "budget")),
            headroom=int(_require(payload, "headroom")),
            channel_load=float(_require(payload, "channel_load")),
            predicted_delay=float(_require(payload, "predicted_delay")),
            queued_pages=int(payload.get("queued_pages", 0)),
            reason=str(payload.get("reason", "")),
        )


@dataclass(frozen=True)
class ErrorBudgetReport:
    """Per-deadline-class error-budget accounting from the SloTracker.

    ``per_class`` maps the promised deadline (as a string, the JSON key
    form) to ``{"listeners", "misses", "miss_rate",
    "budget_remaining"}`` where ``budget_remaining`` is the fraction of
    the class's error budget (the target miss rate) still unspent —
    1.0 untouched, 0.0 exhausted, negative when overdrawn.
    """

    service: str
    listeners: int
    misses: int
    miss_rate: float
    rolling_miss_rate: float
    target_miss_rate: float
    window: int
    per_class: Mapping[str, Mapping[str, float]]

    def to_dict(self) -> dict:
        return {
            "service": self.service,
            "listeners": self.listeners,
            "misses": self.misses,
            "miss_rate": round(self.miss_rate, 6),
            "rolling_miss_rate": round(self.rolling_miss_rate, 6),
            "target_miss_rate": self.target_miss_rate,
            "window": self.window,
            "per_class": {
                str(k): dict(v) for k, v in self.per_class.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ErrorBudgetReport":
        return cls(
            service=str(_require(payload, "service")),
            listeners=int(_require(payload, "listeners")),
            misses=int(_require(payload, "misses")),
            miss_rate=float(_require(payload, "miss_rate")),
            rolling_miss_rate=float(
                _require(payload, "rolling_miss_rate")
            ),
            target_miss_rate=float(_require(payload, "target_miss_rate")),
            window=int(_require(payload, "window")),
            per_class={
                str(k): dict(v)
                for k, v in payload.get("per_class", {}).items()
            },
        )


@dataclass(frozen=True)
class ServiceManifest:
    """The v7 run manifest of a finished service, plus a short summary."""

    service: str
    manifest: Mapping[str, object]
    summary: Mapping[str, object]

    def to_dict(self) -> dict:
        return {
            "service": self.service,
            "manifest": dict(self.manifest),
            "summary": dict(self.summary),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ServiceManifest":
        return cls(
            service=str(_require(payload, "service")),
            manifest=dict(_require(payload, "manifest")),
            summary=dict(payload.get("summary", {})),
        )


@dataclass(frozen=True)
class ServiceList:
    """Names of the services currently hosted, sorted."""

    services: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"services": list(self.services)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ServiceList":
        return cls(
            services=tuple(
                str(name) for name in payload.get("services", ())
            )
        )


@dataclass(frozen=True)
class ShardReport:
    """The answer to a :class:`FederationCreate` planning probe.

    Attributes:
        name: Federation name, echoed from the request.
        shards: Station shard count that was planned.
        budget: The per-shard channel budget the placement was judged
            against (resolved when the request left it ``None``).
        ring_fingerprint: Stable hex digest of the consistent-hash ring
            layout; two probes with the same catalog/seed/shards agree.
        entries: One mapping per shard, sorted by shard id, each with
            ``{"shard", "pages", "required_channels", "channel_load"}``.
        feasible: True when every shard's Theorem-3.1 requirement fits
            inside ``budget``.
    """

    name: str
    shards: int
    budget: int
    ring_fingerprint: str
    entries: tuple[Mapping[str, object], ...]
    feasible: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "shards": self.shards,
            "budget": self.budget,
            "ring_fingerprint": self.ring_fingerprint,
            "entries": [dict(entry) for entry in self.entries],
            "feasible": self.feasible,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ShardReport":
        return cls(
            name=str(_require(payload, "name")),
            shards=int(_require(payload, "shards")),
            budget=int(_require(payload, "budget")),
            ring_fingerprint=str(_require(payload, "ring_fingerprint")),
            entries=tuple(
                dict(entry) for entry in payload.get("entries", ())
            ),
            feasible=bool(payload.get("feasible", False)),
        )


@dataclass(frozen=True)
class Ack:
    """Generic success acknowledgement."""

    message: str = "ok"

    def to_dict(self) -> dict:
        return {"message": self.message}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Ack":
        return cls(message=str(payload.get("message", "ok")))


@dataclass(frozen=True)
class ApiError:
    """Structured failure response.

    Attributes:
        code: Machine-stable error class (``unknown-service``,
            ``duplicate-service``, ``bad-request``, ``internal``).
        message: Human-readable detail.
    """

    code: str
    message: str

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ApiError":
        return cls(
            code=str(_require(payload, "code")),
            message=str(payload.get("message", "")),
        )
