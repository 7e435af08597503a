"""Scheduler registry — the public plugin API of the engine.

Every scheduler in the system is a plain callable with the *normalized*
signature ``(instance, num_channels) -> ScheduleResult``: it consumes a
:class:`~repro.core.pages.ProblemInstance` and a channel count and
returns an object exposing at least ``program``, ``average_delay`` and
``meta``.  The registry maps public names (and aliases, e.g. the common
``"mpb"`` spelling of ``"m-pb"``) onto those callables, and is the single
source of truth for the CLI's ``--algorithm`` choices, the sweep
harness, and :class:`~repro.engine.facade.BroadcastEngine`.

Third-party schedulers plug in without touching library code::

    from repro.engine import register_scheduler

    def schedule_mine(instance, num_channels):
        ...  # return anything with program / average_delay / meta
    register_scheduler("mine", schedule_mine, aliases=("my-sched",))

Registered callables should be module-level functions when the parallel
sweep executor is used with a process pool (they must be picklable); the
executor falls back to serial execution otherwise.
"""

from __future__ import annotations

from typing import (
    Callable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.baselines.broadcast_disks import schedule_broadcast_disks
from repro.baselines.flat import schedule_flat
from repro.baselines.mpb import schedule_mpb
from repro.baselines.online import schedule_online
from repro.baselines.opt import schedule_opt
from repro.core.errors import ReproError
from repro.core.pages import ProblemInstance
from repro.core.pamad import schedule_pamad
from repro.core.program import BroadcastProgram

__all__ = [
    "ScheduleResult",
    "Scheduler",
    "SchedulerRegistry",
    "default_registry",
    "register_scheduler",
    "get_scheduler",
    "available_schedulers",
    "schedule_susc_entry",
]


@runtime_checkable
class ScheduleResult(Protocol):
    """What every scheduler returns: a program plus its headline metrics.

    All concrete schedule types (:class:`~repro.core.susc.SuscSchedule`,
    :class:`~repro.core.pamad.PamadSchedule`, the baselines) satisfy this
    protocol; engine code never needs to know which scheduler produced a
    result.

    Attributes:
        program: The generated broadcast program.
        average_delay: Analytic AvgD of the generated program.
        meta: Scheduler-specific diagnostics (frequencies, window misses,
            orbit flags, ...) as a plain mapping — JSON-friendly, suitable
            for run manifests.
    """

    program: BroadcastProgram
    average_delay: float

    @property
    def meta(self) -> Mapping[str, object]: ...


Scheduler = Callable[[ProblemInstance, int], ScheduleResult]


def schedule_susc_entry(
    instance: ProblemInstance, num_channels: int | None = None
) -> ScheduleResult:
    """SUSC under the normalized registry signature.

    ``num_channels=None`` uses the Theorem-3.1 minimum (SUSC's natural
    operating point); fewer channels raise
    :class:`~repro.core.errors.InsufficientChannelsError` as usual.
    """
    from repro.core.susc import schedule_susc

    return schedule_susc(instance, num_channels=num_channels)


class SchedulerRegistry:
    """A mutable name → scheduler mapping with an alias table.

    Lookups are case-insensitive and alias-aware; listings are always
    sorted so CLI choices and error messages are stable across dict
    orderings and registration order.
    """

    def __init__(self) -> None:
        self._entries: dict[str, Scheduler] = {}
        self._aliases: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        fn: Scheduler,
        *,
        aliases: Sequence[str] = (),
        replace: bool = False,
    ) -> Scheduler:
        """Register ``fn`` under ``name`` (plus optional aliases).

        Args:
            name: Public registry name (stored lower-case).
            fn: Scheduler with the normalized ``(instance, channels)``
                signature.
            aliases: Alternative spellings resolving to ``name``.
            replace: Allow overwriting an existing name/alias; without it
                collisions raise :class:`~repro.core.errors.ReproError`.

        Returns:
            ``fn`` unchanged, so ``register`` works as a decorator via
            ``functools.partial``.
        """
        key = self._normalize(name)
        if not key:
            raise ReproError("scheduler name must be non-empty")
        if not callable(fn):
            raise ReproError(f"scheduler {name!r} is not callable: {fn!r}")
        if not replace and (key in self._entries or key in self._aliases):
            raise ReproError(
                f"scheduler name {name!r} is already registered; pass "
                "replace=True to overwrite"
            )
        self._aliases.pop(key, None)
        self._entries[key] = fn
        for alias in aliases:
            self.alias(alias, key, replace=replace)
        return fn

    def alias(self, alias: str, target: str, *, replace: bool = False) -> None:
        """Map ``alias`` onto the registered name ``target``."""
        alias_key = self._normalize(alias)
        target_key = self._normalize(target)
        if target_key not in self._entries:
            raise ReproError(
                f"cannot alias {alias!r} to unknown scheduler {target!r}"
            )
        if not replace and (
            alias_key in self._entries or alias_key in self._aliases
        ):
            raise ReproError(
                f"scheduler name {alias!r} is already registered; pass "
                "replace=True to overwrite"
            )
        self._aliases[alias_key] = target_key

    def unregister(self, name: str) -> None:
        """Remove a scheduler and every alias pointing at it."""
        key = self.resolve(name)
        del self._entries[key]
        self._aliases = {
            alias: target
            for alias, target in self._aliases.items()
            if target != key
        }

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @staticmethod
    def _normalize(name: str) -> str:
        return name.strip().lower()

    def resolve(self, name: str) -> str:
        """Return the canonical registry name for ``name`` (alias-aware)."""
        key = self._normalize(name)
        key = self._aliases.get(key, key)
        if key not in self._entries:
            raise ReproError(
                f"unknown scheduler {name!r}; choose from "
                f"{', '.join(self.names())}"
            )
        return key

    def get(self, name: str) -> Scheduler:
        """Look up a scheduler by name or alias (case-insensitive)."""
        return self._entries[self.resolve(name)]

    def names(self) -> tuple[str, ...]:
        """All canonical scheduler names, sorted."""
        return tuple(sorted(self._entries))

    def aliases(self) -> Mapping[str, str]:
        """The alias → canonical-name table (sorted copy)."""
        return dict(sorted(self._aliases.items()))

    def items(self) -> list[tuple[str, Scheduler]]:
        """(name, scheduler) pairs in sorted name order."""
        return [(name, self._entries[name]) for name in self.names()]

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        key = self._normalize(name)
        return key in self._entries or key in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, name: str) -> Scheduler:
        return self.get(name)


def _builtin_registry() -> SchedulerRegistry:
    registry = SchedulerRegistry()
    registry.register("pamad", schedule_pamad)
    registry.register("m-pb", schedule_mpb, aliases=("mpb",))
    registry.register("opt", schedule_opt)
    registry.register("flat", schedule_flat)
    registry.register("disks", schedule_broadcast_disks)
    registry.register("online", schedule_online)
    registry.register("susc", schedule_susc_entry)
    return registry


_DEFAULT_REGISTRY = _builtin_registry()


def default_registry() -> SchedulerRegistry:
    """The process-wide registry used by the default engine and the CLI."""
    return _DEFAULT_REGISTRY


def register_scheduler(
    name: str,
    fn: Scheduler,
    *,
    aliases: Sequence[str] = (),
    replace: bool = False,
    registry: SchedulerRegistry | None = None,
) -> Scheduler:
    """Register a scheduler in the (default) registry — the plugin API.

    See the module docstring for an example.
    """
    return (registry or _DEFAULT_REGISTRY).register(
        name, fn, aliases=aliases, replace=replace
    )


def get_scheduler(
    name: str, registry: SchedulerRegistry | None = None
) -> Scheduler:
    """Look up a scheduler by registry name or alias (case-insensitive).

    Raises:
        ReproError: For unknown names, listing the registered names in
            sorted order (stable across dict orderings).
    """
    return (registry or _DEFAULT_REGISTRY).get(name)


def available_schedulers(
    registry: SchedulerRegistry | None = None,
) -> tuple[str, ...]:
    """Sorted canonical names of every registered scheduler."""
    return (registry or _DEFAULT_REGISTRY).names()
