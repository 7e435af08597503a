"""Experiment registry — one entry per paper table/figure (and ablations).

Each :class:`Experiment` regenerates one artefact of the paper's
evaluation (or one of this reproduction's ablations/extensions) as
:class:`~repro.analysis.report.Table` objects.  The benchmark harness under
``benchmarks/`` is a thin wrapper over this registry, and the CLI exposes
it as ``repro-air experiment <ID>``.

Registry contents (see DESIGN.md section 4 for the full index):

=====  ==============================================================
FIG2   Section 4.4 worked example (frequencies, cycle, program)
THM31  Theorem 3.1 minimum-channel examples
FIG3   Figure 3 group-size distributions
FIG4   Figure 4 default parameters
FIG5A  Figure 5(a) AvgD vs channels, normal distribution
FIG5B  Figure 5(b) AvgD vs channels, L-skewed distribution
FIG5C  Figure 5(c) AvgD vs channels, S-skewed distribution
FIG5D  Figure 5(d) AvgD vs channels, uniform distribution
ABL1   staged-greedy vs joint DFS vs brute force frequency search
ABL2   paper-literal vs normalised delay objective
ABL3   Algorithm-4 even spreading vs naive sequential packing
EXT1   drop-pages vs PAMAD on-demand congestion
EXT2   SUSC scaling and bound tightness
EXT3   Zipf access probabilities
EXT4   (1, m) air indexing: latency vs tuning energy
EXT5   channel failures: carry on vs reschedule
EXT6   adaptive rescheduling under deadline drift
EXT7   multi-page requests: completion time by scheduler
EXT8   deadline-aware (PAMAD) vs access-time-aware (broadcast disks)
EXT9   client caching: LRU vs PIX over a PAMAD program
EXT10  recovery policies under increasing churn rates
EXT11  live service under catalog churn: admission on/off vs pull LWF
EXT12  federation scaling: shard counts under Zipf listener skew
ABL4   naive vs cursor-optimised GetAvailableSlot (paper's 3.2 note)
ABL5   offline PAMAD vs online least-slack (EDF) scheduling
=====  ==============================================================
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.analysis.report import Table
from repro.analysis.sweep import (
    default_channel_points,
    sweep_table,
)
from repro.baselines.drop import schedule_drop
from repro.baselines.opt import brute_force_frequencies, opt_frequencies
from repro.core.bounds import channel_load, minimum_channels
from repro.core.delay import (
    normalized_group_delay,
    paper_group_delay,
    program_average_delay,
)
from repro.core.errors import ReproError
from repro.core.frequencies import pamad_frequencies
from repro.core.pages import instance_from_counts
from repro.core.pamad import (
    place_by_frequency,
    place_sequential,
    schedule_pamad,
)
from repro.core.susc import schedule_susc
from repro.core.validate import validate_program
from repro.sim.hybrid import HybridConfig, simulate_hybrid
from repro.workload.distributions import DISTRIBUTION_NAMES, group_sizes
from repro.workload.generator import PAPER_DEFAULTS, paper_instance
from repro.workload.requests import zipf_access_model

__all__ = ["Experiment", "EXPERIMENTS", "run_experiment"]


@dataclass(frozen=True)
class Experiment:
    """A registered, re-runnable experiment.

    Attributes:
        experiment_id: Registry key (e.g. ``FIG5D``).
        title: Human-readable name.
        paper_ref: The paper artefact it regenerates (or ``reproduction``
            for ablations/extensions).
        runner: Callable producing the result tables; accepts keyword
            overrides (``num_requests``, ``max_points``, ``seed``...).
    """

    experiment_id: str
    title: str
    paper_ref: str
    runner: Callable[..., list[Table]]

    def run(self, **overrides) -> list[Table]:
        """Execute the experiment and return its tables."""
        return self.runner(**overrides)


# ----------------------------------------------------------------------
# Paper artefacts
# ----------------------------------------------------------------------


def _run_fig2(**_overrides) -> list[Table]:
    """The Section 4.4 worked example, end to end."""
    instance = instance_from_counts([3, 5, 3], [2, 4, 8])
    table = Table(
        title="Figure 2: PAMAD worked example (P=(3,5,3), t=(2,4,8), 3 channels)",
        columns=["quantity", "paper", "reproduced"],
    )
    table.add_row("minimum channels (Eq. 1)", 4, minimum_channels(instance))
    assignment = pamad_frequencies(instance, 3)
    table.add_row("r1, r2", "2, 2", ", ".join(map(str, assignment.r_values)))
    table.add_row(
        "S1, S2, S3", "4, 2, 1", ", ".join(map(str, assignment.frequencies))
    )
    table.add_row(
        "major cycle (Eq. 8)",
        9,
        assignment.cycle_length(instance.group_sizes),
    )
    placement = place_by_frequency(
        instance, assignment.frequencies, 3
    )
    table.add_row(
        "all 11 pages placed",
        "yes",
        sorted(placement.program.page_ids()) == list(range(1, 12)),
    )
    table.notes.append("program:\n" + placement.program.render())
    return [table]


def _run_thm31(**_overrides) -> list[Table]:
    """Theorem 3.1 on the paper's two explicit examples and the defaults."""
    table = Table(
        title="Theorem 3.1: minimum number of channels",
        columns=["instance", "load sum(P_i/t_i)", "N (min channels)"],
    )
    cases = {
        "Sec 3.1 example: P=(2,3), t=(2,4)": instance_from_counts(
            [2, 3], [2, 4]
        ),
        "Fig 2 example: P=(3,5,3), t=(2,4,8)": instance_from_counts(
            [3, 5, 3], [2, 4, 8]
        ),
    }
    for name in DISTRIBUTION_NAMES:
        cases[f"paper defaults, {name}"] = paper_instance(name)
    for name, instance in cases.items():
        table.add_row(
            name,
            round(channel_load(instance), 4),
            minimum_channels(instance),
        )
    table.notes.append(
        "paper's Sec 3.1 example expects N=2; Fig 2 expects N=4; "
        "Fig 5(d) quotes ~64 sufficient channels for the uniform workload"
    )
    return [table]


def _run_fig3(n: int | None = None, h: int | None = None, **_overrides) -> list[Table]:
    """The four group-size distributions of Figure 3."""
    n = n or PAPER_DEFAULTS.n
    h = h or PAPER_DEFAULTS.h
    table = Table(
        title=f"Figure 3: group-size distributions (n={n}, h={h})",
        columns=["group", "t_i", *DISTRIBUTION_NAMES],
    )
    times = PAPER_DEFAULTS.expected_times
    sizes = {name: group_sizes(name, n, h) for name in DISTRIBUTION_NAMES}
    for index in range(h):
        table.add_row(
            index + 1,
            times[index] if index < len(times) else "-",
            *(sizes[name][index] for name in DISTRIBUTION_NAMES),
        )
    table.add_row("total", "-", *(sum(sizes[name]) for name in DISTRIBUTION_NAMES))
    return [table]


def _run_fig4(**_overrides) -> list[Table]:
    """The Figure 4 default parameter table."""
    table = Table(
        title="Figure 4: parameter settings",
        columns=["parameter", "default value"],
    )
    table.add_row("n - total number", PAPER_DEFAULTS.n)
    table.add_row("h - number of groups", PAPER_DEFAULTS.h)
    table.add_row(
        "t_i - expected time",
        ", ".join(map(str, PAPER_DEFAULTS.expected_times)),
    )
    table.add_row(
        "group size distributions", ", ".join(DISTRIBUTION_NAMES)
    )
    table.add_row("number of requests", PAPER_DEFAULTS.num_requests)
    return [table]


def _fig5_runner(distribution: str):
    def run(
        num_requests: int = PAPER_DEFAULTS.num_requests,
        max_points: int = 12,
        seed: int = 0,
        algorithms=("pamad", "m-pb", "opt"),
        workers: int | None = None,
        **_overrides,
    ) -> list[Table]:
        from repro.engine import default_engine

        instance = paper_instance(distribution)
        n_min = minimum_channels(instance)
        result = default_engine().sweep(
            instance,
            algorithms=algorithms,
            channel_points=default_channel_points(n_min, max_points),
            num_requests=num_requests,
            seed=seed,
            workers=workers,
        )
        table = sweep_table(
            result.points,
            title=(
                f"Figure 5 ({distribution}): AvgD vs channels "
                f"(N_min={n_min})"
            ),
        )
        cache = result.manifest.cache_run
        table.notes.append(
            f"minimum sufficient channels: {n_min}; "
            f"{num_requests} requests per cell, seed={seed}"
        )
        table.notes.append(
            f"engine run {result.manifest.run_id}: "
            f"{result.manifest.executor['mode']} executor, "
            f"cache {cache.hits} hits / {cache.misses} misses"
        )
        return [table]

    return run


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------


def _run_abl1(seed: int = 0, **_overrides) -> list[Table]:
    """Staged-greedy (PAMAD) vs joint DFS (OPT) vs brute force."""
    rng = random.Random(seed)
    table = Table(
        title="ABL1: frequency-search families (predicted paper delay)",
        columns=[
            "instance",
            "channels",
            "pamad",
            "opt (joint DFS)",
            "brute force",
            "pamad=opt",
            "opt=brute",
        ],
    )
    cases = [
        (instance_from_counts([3, 5, 3], [2, 4, 8]), 3),
        (instance_from_counts([6, 4, 2], [2, 4, 8]), 2),
        (instance_from_counts([10, 10, 10, 10], [2, 4, 8, 16]), 4),
        (instance_from_counts([8, 2, 6], [3, 9, 27]), 2),
    ]
    for _ in range(3):
        h = rng.randint(2, 4)
        sizes = [rng.randint(2, 12) for _ in range(h)]
        times = [2 * 2**i for i in range(h)]
        instance = instance_from_counts(sizes, times)
        channels = rng.randint(1, max(1, minimum_channels(instance) - 1))
        cases.append((instance, channels))
    for instance, channels in cases:
        pamad = pamad_frequencies(instance, channels)
        opt = opt_frequencies(instance, channels)
        brute = brute_force_frequencies(instance, channels, cap=12)
        table.add_row(
            f"P={instance.group_sizes} t={instance.expected_times}",
            channels,
            round(pamad.predicted_delay, 4),
            round(opt.predicted_delay, 4),
            round(brute.predicted_delay, 4),
            math.isclose(
                pamad.predicted_delay, opt.predicted_delay, abs_tol=1e-9
            ),
            opt.predicted_delay <= brute.predicted_delay + 1e-9,
        )
    return [table]


def _run_abl2(
    num_requests: int = PAPER_DEFAULTS.num_requests,
    channels: tuple[int, ...] = (5, 13, 26),
    **_overrides,
) -> list[Table]:
    """Does dropping the 1/gap normalisation change PAMAD's choices?"""
    instance = paper_instance("uniform")
    table = Table(
        title="ABL2: Eq.2-literal vs normalized Sec-4.1 objective (uniform workload)",
        columns=[
            "channels",
            "S (literal)",
            "S (normalized)",
            "AvgD literal",
            "AvgD normalized",
        ],
    )
    for count in channels:
        literal = pamad_frequencies(
            instance, count, objective=paper_group_delay
        )
        normalized = pamad_frequencies(
            instance, count, objective=normalized_group_delay
        )
        program_literal = place_by_frequency(
            instance, literal.frequencies, count
        ).program
        program_normalized = place_by_frequency(
            instance, normalized.frequencies, count
        ).program
        table.add_row(
            count,
            str(literal.frequencies),
            str(normalized.frequencies),
            round(program_average_delay(program_literal, instance), 4),
            round(program_average_delay(program_normalized, instance), 4),
        )
    return [table]


def _run_abl3(
    channels: tuple[int, ...] = (5, 13, 26),
    **_overrides,
) -> list[Table]:
    """Even spreading vs naive sequential packing at equal frequencies."""
    instance = paper_instance("uniform")
    table = Table(
        title="ABL3: Algorithm-4 even spreading vs sequential packing",
        columns=[
            "channels",
            "AvgD even-spread",
            "AvgD sequential",
            "sequential / even",
        ],
    )
    for count in channels:
        assignment = pamad_frequencies(instance, count)
        even = place_by_frequency(
            instance, assignment.frequencies, count
        ).program
        packed = place_sequential(
            instance, assignment.frequencies, count
        ).program
        even_delay = program_average_delay(even, instance)
        packed_delay = program_average_delay(packed, instance)
        table.add_row(
            count,
            round(even_delay, 4),
            round(packed_delay, 4),
            round(packed_delay / even_delay, 2)
            if even_delay > 0
            else math.inf,
        )
    return [table]


# ----------------------------------------------------------------------
# Extensions
# ----------------------------------------------------------------------


def _run_ext1(
    channels: tuple[int, ...] = (4, 8, 13, 26),
    arrival_rate: float = 2.0,
    horizon: float = 4000.0,
    seed: int = 0,
    **_overrides,
) -> list[Table]:
    """Drop-pages vs PAMAD: broadcast spill and on-demand congestion."""
    instance = paper_instance("uniform")
    table = Table(
        title="EXT1: on-demand congestion, PAMAD vs drop-pages",
        columns=[
            "channels",
            "pamad spill",
            "pamad od-util",
            "pamad od-resp",
            "drop spill",
            "drop od-util",
            "drop od-resp",
            "dropped pages",
        ],
    )
    config = HybridConfig(
        arrival_rate=arrival_rate,
        horizon=horizon,
        ondemand_servers=2,
        seed=seed,
    )
    for count in channels:
        pamad = schedule_pamad(instance, count)
        pamad_result = simulate_hybrid(pamad.program, instance, config)
        drop = schedule_drop(instance, count)
        drop_result = simulate_hybrid(drop.program, instance, config)
        table.add_row(
            count,
            round(pamad_result.spill_ratio, 3),
            round(pamad_result.ondemand.utilisation, 3),
            round(pamad_result.ondemand.mean_response_time, 2),
            round(drop_result.spill_ratio, 3),
            round(drop_result.ondemand.utilisation, 3),
            round(drop_result.ondemand.mean_response_time, 2),
            len(drop.dropped_pages),
        )
    table.notes.append(
        f"Poisson arrivals at rate {arrival_rate}/slot over {horizon} "
        f"slots; 2 on-demand servers; patience = expected time"
    )
    return [table]


def _run_ext2(seed: int = 0, **_overrides) -> list[Table]:
    """SUSC scheduling cost and Theorem-3.1 bound tightness."""
    rng = random.Random(seed)
    table = Table(
        title="EXT2: SUSC scaling and bound tightness",
        columns=[
            "pages",
            "groups",
            "load",
            "N (bound)",
            "valid",
            "occupancy",
            "seconds",
        ],
    )
    scales = [(50, 3), (200, 5), (1000, 8), (4000, 8), (8000, 10)]
    for n, h in scales:
        times = tuple(4 * 2**i for i in range(h))
        weights = [rng.random() + 0.1 for _ in range(h)]
        total = sum(weights)
        sizes = [max(1, round(n * w / total)) for w in weights]
        instance = instance_from_counts(sizes, times)
        started = time.perf_counter()
        schedule = schedule_susc(instance)
        elapsed = time.perf_counter() - started
        report = validate_program(schedule.program, instance)
        table.add_row(
            instance.n,
            h,
            round(channel_load(instance), 2),
            schedule.num_channels,
            report.ok,
            round(schedule.program.occupancy(), 3),
            round(elapsed, 3),
        )
    return [table]


def _run_ext3(
    channels: tuple[int, ...] = (5, 13, 26),
    theta: float = 0.8,
    num_requests: int = PAPER_DEFAULTS.num_requests,
    **_overrides,
) -> list[Table]:
    """AvgD under Zipf access skew (paper assumes uniform access)."""
    from repro.sim.clients import measure_program

    instance = paper_instance("uniform")
    zipf = zipf_access_model(instance, theta=theta)
    table = Table(
        title=f"EXT3: uniform vs Zipf(theta={theta}) access, PAMAD program",
        columns=[
            "channels",
            "AvgD uniform (analytic)",
            "AvgD zipf (analytic)",
            "AvgD zipf (simulated)",
        ],
    )
    for count in channels:
        schedule = schedule_pamad(instance, count)
        analytic_uniform = schedule.average_delay
        analytic_zipf = program_average_delay(
            schedule.program, instance, access_probabilities=zipf
        )
        simulated = measure_program(
            schedule.program,
            instance,
            num_requests=num_requests,
            seed=count,
            access_probabilities=zipf,
        ).average_delay
        table.add_row(
            count,
            round(analytic_uniform, 4),
            round(analytic_zipf, 4),
            round(simulated, 4),
        )
    table.notes.append(
        "Zipf ranks pages urgent-group-first; PAMAD still optimises the "
        "uniform objective — the gap is the price of the paper's "
        "uniform-access assumption"
    )
    return [table]


def _run_abl4(seed: int = 0, **_overrides) -> list[Table]:
    """Naive vs cursor-optimised GetAvailableSlot (the paper's 3.2 note).

    Times the two literal probes of :func:`repro.oracles.susc_reference`;
    :func:`~repro.core.susc.schedule_susc` itself runs an array kernel
    that would time the same code twice.
    """
    from repro.oracles import susc_reference

    table = Table(
        title="ABL4: GetAvailableSlot search — naive vs cursor-optimised",
        columns=[
            "pages",
            "channels",
            "naive seconds",
            "optimised seconds",
            "speedup",
            "identical program",
        ],
    )
    rng = random.Random(seed)
    for n, h in ((200, 5), (1000, 8), (4000, 8)):
        times = tuple(4 * 2**i for i in range(h))
        weights = [rng.random() + 0.1 for _ in range(h)]
        total = sum(weights)
        sizes = [max(1, round(n * w / total)) for w in weights]
        instance = instance_from_counts(sizes, times)
        started = time.perf_counter()
        naive = susc_reference(instance)
        naive_seconds = time.perf_counter() - started
        started = time.perf_counter()
        optimised = susc_reference(instance, optimized=True)
        optimised_seconds = time.perf_counter() - started
        table.add_row(
            instance.n,
            naive.num_channels,
            round(naive_seconds, 4),
            round(optimised_seconds, 4),
            round(naive_seconds / max(optimised_seconds, 1e-9), 1),
            naive.program == optimised.program,
        )
    return [table]


def _run_ext4(
    channels: int = 13,
    factors: tuple[int, ...] = (1, 2, 4, 8, 16),
    pages_sampled: int = 25,
    **_overrides,
) -> list[Table]:
    """(1, m) indexing: the latency/energy trade-off on a PAMAD program."""
    from repro.indexing import EnergyModel, sweep_index_factor

    instance = paper_instance("uniform")
    program = schedule_pamad(instance, channels).program
    page_ids = [page.page_id for page in instance.pages()][::  max(
        1, instance.n // pages_sampled
    )][:pages_sampled]
    rows = sweep_index_factor(
        program,
        page_ids,
        factors=factors,
        model=EnergyModel(active_power=1.0, doze_power=0.05),
        samples_per_slot=1,
    )
    table = Table(
        title=(
            f"EXT4: (1, m) indexing on PAMAD/{channels}ch "
            "(mean over sampled pages)"
        ),
        columns=[
            "m",
            "access time",
            "tuning time",
            "energy/access",
            "index overhead",
        ],
    )
    for row in rows:
        table.add_row(
            row.m,
            round(row.access_time, 2),
            round(row.tuning_time, 2),
            round(row.energy, 2),
            round(row.overhead, 3),
        )
    table.notes.append(
        "receiver model: active=1.0, doze=0.05 energy units per slot; "
        "pointer packets enabled"
    )
    return [table]


def _run_ext5(
    channels: int = 13,
    **_overrides,
) -> list[Table]:
    """Channel failures: keep broadcasting vs PAMAD reschedule."""
    from repro.resilience import compare_static_failure_sizes

    instance = paper_instance("uniform")
    program = schedule_pamad(instance, channels).program
    failure_sizes = [1, 2, 4, 8]
    rows = compare_static_failure_sizes(
        program, instance, [k for k in failure_sizes if k < channels]
    )
    table = Table(
        title=f"EXT5: failing k of {channels} channels (uniform workload)",
        columns=[
            "failed",
            "surviving",
            "degraded AvgD (reachable)",
            "unreachable pages",
            "rescheduled AvgD",
        ],
    )
    for row in rows:
        table.add_row(
            row.failed_count,
            row.surviving_channels,
            round(row.degraded_delay, 3),
            row.degraded_lost_pages,
            round(row.rescheduled_delay, 3),
        )
    table.notes.append(
        "degraded = old schedule on surviving channels; unreachable "
        "pages' clients are forced onto the on-demand channel entirely"
    )
    return [table]


def _run_ext6(
    num_channels: int = 6,
    epochs: int = 10,
    volatility: float = 0.6,
    seed: int = 0,
    **_overrides,
) -> list[Table]:
    """Adaptive rescheduling under deadline drift."""
    from repro.sim.adaptive import run_adaptive_simulation

    deadlines = {f"page-{i}": 4.0 * (2 ** (i % 5)) for i in range(60)}
    kwargs = dict(
        initial_deadlines=deadlines,
        num_channels=num_channels,
        epochs=epochs,
        volatility=volatility,
        seed=seed,
    )
    adaptive = run_adaptive_simulation(rebuild_every=1, **kwargs)
    static = run_adaptive_simulation(rebuild_every=0, **kwargs)
    table = Table(
        title=(
            f"EXT6: deadline drift (volatility={volatility}), adaptive "
            f"vs schedule-once on {num_channels} channels"
        ),
        columns=[
            "epoch",
            "adaptive miss%",
            "static miss%",
            "adaptive excess",
            "static excess",
        ],
    )
    for a, s in zip(adaptive, static):
        table.add_row(
            a.epoch,
            round(100 * a.miss_ratio, 1),
            round(100 * s.miss_ratio, 1),
            round(a.average_excess, 2),
            round(s.average_excess, 2),
        )
    return [table]


def _run_ext7(
    channels: int = 13,
    set_sizes: tuple[int, ...] = (1, 2, 4, 8),
    num_requests: int = 300,
    seed: int = 0,
    **_overrides,
) -> list[Table]:
    """Multi-page requests: completion time, PAMAD vs flat round-robin."""
    from repro.baselines.flat import schedule_flat
    from repro.sim.multipage import measure_set_requests

    instance = paper_instance("uniform")
    pamad = schedule_pamad(instance, channels).program
    flat = schedule_flat(instance, channels).program
    table = Table(
        title=(
            f"EXT7: set-request completion time on {channels} channels "
            "(uniform workload)"
        ),
        columns=[
            "set size",
            "pamad completion",
            "flat completion",
            "pamad (within-group)",
        ],
    )
    for size in set_sizes:
        pamad_any = measure_set_requests(
            pamad, instance, set_size=size,
            num_requests=num_requests, seed=seed,
        )
        flat_any = measure_set_requests(
            flat, instance, set_size=size,
            num_requests=num_requests, seed=seed,
        )
        pamad_grouped = measure_set_requests(
            pamad, instance, set_size=size,
            num_requests=num_requests, seed=seed, within_group=True,
        )
        table.add_row(
            size,
            round(pamad_any.mean_completion, 1),
            round(flat_any.mean_completion, 1),
            round(pamad_grouped.mean_completion, 1),
        )
    table.notes.append(
        "completion = wait until the LAST page of the set is received; "
        "single-tuner client"
    )
    return [table]


def _run_abl5(
    channels: tuple[int, ...] = (5, 13, 26),
    **_overrides,
) -> list[Table]:
    """Offline planning (PAMAD) vs an online least-slack (EDF) rule."""
    from repro.baselines.online import schedule_online
    from repro.core.susc import schedule_susc
    from repro.core.validate import validate_program

    instance = paper_instance("uniform")
    table = Table(
        title="ABL5: PAMAD (offline) vs least-slack (online), uniform workload",
        columns=[
            "channels",
            "pamad AvgD",
            "online AvgD",
            "online/pamad",
            "online exact orbit",
        ],
    )
    for count in channels:
        pamad = schedule_pamad(instance, count)
        online = schedule_online(instance, count)
        table.add_row(
            count,
            round(pamad.average_delay, 3),
            round(online.average_delay, 3),
            round(
                online.average_delay / max(pamad.average_delay, 1e-9), 2
            ),
            online.exact_orbit,
        )
    # The boundary case: at exactly the Theorem-3.1 bound, SUSC is valid
    # by theorem; the online rule is not guaranteed to be.
    n_min = minimum_channels(instance)
    susc_valid = validate_program(
        schedule_susc(instance).program, instance
    ).ok
    online_at_bound = schedule_online(instance, n_min)
    online_valid = validate_program(
        online_at_bound.program, instance
    ).ok
    table.notes.append(
        f"at the bound (N={n_min}): SUSC valid={susc_valid}, "
        f"online valid={online_valid} — greedy EDF has no Theorem 3.2"
    )
    return [table]


def _run_ext8(
    channels: tuple[int, ...] = (8, 13, 26),
    theta: float = 0.8,
    **_overrides,
) -> list[Table]:
    """Deadline-aware vs access-time-aware scheduling objectives."""
    from repro.baselines.broadcast_disks import schedule_broadcast_disks
    from repro.core.delay import program_average_wait

    instance = paper_instance("uniform")
    zipf = zipf_access_model(instance, theta=theta)
    table = Table(
        title=(
            f"EXT8: PAMAD vs broadcast disks, Zipf(theta={theta}) access"
        ),
        columns=[
            "channels",
            "pamad AvgD",
            "disks AvgD",
            "pamad wait (zipf)",
            "disks wait (zipf)",
        ],
    )
    for count in channels:
        pamad = schedule_pamad(instance, count)
        disks = schedule_broadcast_disks(
            instance, count, access_probabilities=zipf
        )
        table.add_row(
            count,
            round(pamad.average_delay, 3),
            round(disks.average_delay, 3),
            round(
                program_average_wait(
                    pamad.program, instance, access_probabilities=zipf
                ),
                3,
            ),
            round(
                program_average_wait(
                    disks.program, instance, access_probabilities=zipf
                ),
                3,
            ),
        )
    table.notes.append(
        "AvgD = excess over expected times (the paper's metric, uniform "
        "access); wait = expected access time under the Zipf population "
        "broadcast disks optimise for.  Each scheduler wins its own "
        "objective."
    )
    return [table]


def _run_ext9(
    channels: int = 13,
    capacities: tuple[int, ...] = (10, 50, 200),
    theta: float = 0.9,
    seed: int = 3,
    **_overrides,
) -> list[Table]:
    """Client caching policies over a PAMAD program."""
    from repro.sim.cache import simulate_caching

    instance = paper_instance("uniform")
    program = schedule_pamad(instance, channels).program
    zipf = zipf_access_model(instance, theta=theta)
    table = Table(
        title=(
            f"EXT9: client cache hit ratios, Zipf(theta={theta}) over "
            f"PAMAD/{channels}ch"
        ),
        columns=[
            "capacity",
            "lru hit",
            "pix hit",
            "lru wait",
            "pix wait",
            "uncached wait",
        ],
    )
    for capacity in capacities:
        results = {
            policy: simulate_caching(
                program,
                instance,
                zipf,
                capacity=capacity,
                policy=policy,
                num_clients=10,
                requests_per_client=80,
                seed=seed,
            )
            for policy in ("lru", "pix")
        }
        table.add_row(
            capacity,
            round(results["lru"].hit_ratio, 3),
            round(results["pix"].hit_ratio, 3),
            round(results["lru"].average_wait, 1),
            round(results["pix"].average_wait, 1),
            round(results["lru"].uncached_wait, 1),
        )
    table.notes.append(
        "PIX evicts by access-probability / broadcast-frequency — "
        "caching what the air re-delivers quickly is wasted space"
    )
    return [table]


def _run_ext10(
    channels: int = 13,
    horizon: int = 200,
    fail_rates: tuple[float, ...] = (0.005, 0.01, 0.02, 0.04),
    recover_rate: float = 0.1,
    num_listeners: int = 300,
    seed: int = 0,
    **_overrides,
) -> list[Table]:
    """Recovery policies under increasing churn rates.

    For each churn level a fresh Poisson fault plan is generated (same
    seed, so levels differ only in rate) and replayed under every
    built-in recovery policy; the listener streams are shared across
    policies, so rows at one churn level are directly comparable.
    """
    from repro.resilience import compare_policies, poisson_churn_plan

    instance = paper_instance("uniform")
    table = Table(
        title=(
            f"EXT10: recovery policies vs churn "
            f"({channels} channels, horizon {horizon})"
        ),
        columns=[
            "fail rate",
            "events",
            "policy",
            "reschedules",
            "lost page-slots",
            "violations",
            "excess delay",
            "shed peak",
        ],
    )
    for fail_rate in fail_rates:
        plan = poisson_churn_plan(
            channels,
            horizon=horizon,
            seed=seed,
            fail_rate=fail_rate,
            recover_rate=recover_rate,
            min_alive=max(1, channels // 4),
        )
        outcomes = compare_policies(
            instance, plan, num_listeners=num_listeners, seed=seed
        )
        for outcome in outcomes:
            table.add_row(
                fail_rate,
                len(plan.events),
                outcome.policy,
                outcome.reschedule_count,
                round(outcome.pages_lost_time, 1),
                round(outcome.violation_fraction, 4),
                round(outcome.mean_excess_delay, 3),
                outcome.shed_pages_peak,
            )
    table.notes.append(
        "per-slot Bernoulli churn; listener streams are shared across "
        "policies at each churn level, so rows are directly comparable"
    )
    return [table]


def _run_ext11(
    churn_levels: tuple[int, ...] = (5, 15, 30, 60),
    horizon: int = 96,
    num_listeners: int = 150,
    seed: int = 0,
    **_overrides,
) -> list[Table]:
    """Live service under catalog churn: admission on/off vs pull LWF.

    For each churn level a fresh seeded mutation trace is generated
    (same seed, so levels differ only in mutation count) and replayed
    three ways: the live push runtime with admission control, the same
    runtime with admission disabled (every mutation lands, PAMAD
    degradation below the bound), and the Longest-Wait-First online
    pull baseline.  Listener arrivals are identical across the three
    arms of one level, so rows are directly comparable.
    """
    from repro.engine import BroadcastEngine
    from repro.live import replay_pull_lwf
    from repro.workload.mutations import generate_mutation_trace

    instance = instance_from_counts([4, 8, 12, 16], [4, 8, 16, 32])
    table = Table(
        title=(
            f"EXT11: deadline misses under catalog churn "
            f"(horizon {horizon}, {num_listeners} listeners)"
        ),
        columns=[
            "mutations",
            "system",
            "miss rate",
            "mean wait",
            "incremental",
            "full re-plans",
            "rejected",
        ],
    )
    for mutations in churn_levels:
        trace = generate_mutation_trace(
            instance,
            seed=seed,
            horizon=horizon,
            mutations=mutations,
            listeners=num_listeners,
        )
        arms = {
            True: BroadcastEngine().live(
                instance, trace, admission=True, baseline=False
            ),
            False: BroadcastEngine().live(
                instance, trace, admission=False, baseline=False
            ),
        }
        for enabled, result in arms.items():
            report = result.report
            table.add_row(
                mutations,
                "push (admission)" if enabled else "push (open door)",
                round(report.slo["miss_rate"], 4),
                round(report.slo["average_wait"], 2),
                report.counters["incremental_repairs"],
                report.counters["full_replans"],
                report.admission["rejected"],
            )
        pull = replay_pull_lwf(
            instance, trace, budget=arms[True].report.budget
        )
        table.add_row(
            mutations,
            "pull (LWF)",
            round(pull.miss_rate, 4),
            round(pull.average_wait, 2),
            "-",
            "-",
            "-",
        )
    table.notes.append(
        "admission holds the Theorem-3.1 bound by rejecting/queueing "
        "load; the open-door arm admits everything and degrades to "
        "PAMAD below the bound; LWF reacts to demand but promises "
        "nothing"
    )
    return [table]


def _run_ext12(
    shard_counts: tuple[int, ...] = (1, 2, 4),
    thetas: tuple[float, ...] = (0.0, 0.8, 1.2),
    num_listeners: int = 400,
    mutations: int = 24,
    horizon: int = 96,
    seed: int = 0,
    **_overrides,
) -> list[Table]:
    """Federation scaling under Zipf listener skew.

    One catalog, one seeded mutation stream, and for every Zipf skew
    ``theta`` one seeded listener stream (page choices drawn from
    :func:`~repro.workload.requests.zipf_access_model`, arrivals
    uniform over the horizon) — replayed across 1, 2 and 4 station
    shards with global admission and drift rebalancing on.  Within a
    ``theta`` row-group the trace is identical across shard counts, so
    rows isolate what sharding does to the *same* skewed load: how
    unevenly listeners land on stations, how many pages the drift
    rebalancer moves, and whether the miss rate survives the split.
    """
    from repro.engine import BroadcastEngine
    from repro.live.catalog import LiveCatalog
    from repro.live.mutations import MutationEvent, MutationTrace
    from repro.workload.mutations import generate_mutation_trace
    from repro.workload.requests import zipf_access_model

    instance = instance_from_counts(
        [6] * 8, [4, 8, 16, 32, 64, 128, 256, 512]
    )
    catalog = LiveCatalog(instance).pages()
    table = Table(
        title=(
            f"EXT12: shards x Zipf skew (horizon {horizon}, "
            f"{mutations} mutations, {num_listeners} listeners)"
        ),
        columns=[
            "theta",
            "shards",
            "miss rate",
            "hottest shard",
            "pages moved",
            "spilled",
            "full re-plans",
        ],
    )
    base = generate_mutation_trace(
        instance,
        seed=seed,
        horizon=horizon,
        mutations=mutations,
        listeners=0,
    )
    for theta in thetas:
        probabilities = zipf_access_model(instance, theta)
        pages = sorted(probabilities)
        weights = [probabilities[p] for p in pages]
        rng = random.Random(seed * 7919 + round(theta * 1000))
        listeners = tuple(
            MutationEvent(
                time=round(rng.uniform(1.0, horizon - 1.0), 3),
                kind="listener",
                page_id=(page := rng.choices(pages, weights)[0]),
                expected_time=catalog[page],
            )
            for _ in range(num_listeners)
        )
        trace = MutationTrace(
            horizon=horizon,
            events=base.events + listeners,
            meta={"generator": "ext12-zipf", "theta": theta},
        )
        for shards in shard_counts:
            report = BroadcastEngine().federate(
                instance,
                trace,
                shards=shards,
                rebalance_threshold=1.5,
            ).report
            hottest = max(
                r["slo"]["listeners"] for r in report.shard_reports
            )
            table.add_row(
                theta,
                shards,
                round(report.miss_rate(), 4),
                f"{hottest}/{report.listeners}",
                report.pages_moved,
                report.admission["spilled"],
                report.counters["full_replans"],
            )
    table.notes.append(
        "per-theta listener streams are identical across shard counts; "
        "skew concentrates listeners on the urgent groups, and the "
        "drift rebalancer spreads the hot pages under its per-trigger "
        "move budget"
    )
    return [table]


EXPERIMENTS: Mapping[str, Experiment] = {
    experiment.experiment_id: experiment
    for experiment in [
        Experiment("FIG2", "PAMAD worked example", "Figure 2", _run_fig2),
        Experiment(
            "THM31", "Minimum number of channels", "Theorem 3.1", _run_thm31
        ),
        Experiment(
            "FIG3", "Group-size distributions", "Figure 3", _run_fig3
        ),
        Experiment("FIG4", "Parameter settings", "Figure 4", _run_fig4),
        Experiment(
            "FIG5A",
            "AvgD vs channels, normal",
            "Figure 5(a)",
            _fig5_runner("normal"),
        ),
        Experiment(
            "FIG5B",
            "AvgD vs channels, L-skewed",
            "Figure 5(b)",
            _fig5_runner("l-skewed"),
        ),
        Experiment(
            "FIG5C",
            "AvgD vs channels, S-skewed",
            "Figure 5(c)",
            _fig5_runner("s-skewed"),
        ),
        Experiment(
            "FIG5D",
            "AvgD vs channels, uniform",
            "Figure 5(d)",
            _fig5_runner("uniform"),
        ),
        Experiment(
            "ABL1", "Frequency-search families", "reproduction", _run_abl1
        ),
        Experiment(
            "ABL2", "Delay-objective variants", "reproduction", _run_abl2
        ),
        Experiment(
            "ABL3", "Placement strategies", "reproduction", _run_abl3
        ),
        Experiment(
            "EXT1", "On-demand congestion", "reproduction", _run_ext1
        ),
        Experiment(
            "EXT2", "SUSC scaling", "reproduction", _run_ext2
        ),
        Experiment(
            "EXT3", "Zipf access skew", "reproduction", _run_ext3
        ),
        Experiment(
            "ABL4", "GetAvailableSlot search variants", "reproduction",
            _run_abl4,
        ),
        Experiment(
            "ABL5", "Offline vs online scheduling", "reproduction",
            _run_abl5,
        ),
        Experiment(
            "EXT4", "(1, m) air indexing", "reproduction", _run_ext4
        ),
        Experiment(
            "EXT5", "Channel failures", "reproduction", _run_ext5
        ),
        Experiment(
            "EXT6", "Adaptive deadline drift", "reproduction", _run_ext6
        ),
        Experiment(
            "EXT7", "Multi-page requests", "reproduction", _run_ext7
        ),
        Experiment(
            "EXT8", "Scheduling objectives", "reproduction", _run_ext8
        ),
        Experiment(
            "EXT9", "Client caching policies", "reproduction", _run_ext9
        ),
        Experiment(
            "EXT10", "Resilience under churn", "reproduction", _run_ext10
        ),
        Experiment(
            "EXT11",
            "Live service under catalog churn",
            "reproduction",
            _run_ext11,
        ),
        Experiment(
            "EXT12",
            "Federation under Zipf listener skew",
            "reproduction",
            _run_ext12,
        ),
    ]
}


def run_experiment(experiment_id: str, **overrides) -> list[Table]:
    """Run a registered experiment by id (case-insensitive).

    Raises:
        ReproError: For unknown ids.
    """
    key = experiment_id.strip().upper()
    try:
        experiment = EXPERIMENTS[key]
    except KeyError:
        raise ReproError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{', '.join(EXPERIMENTS)}"
        ) from None
    return experiment.run(**overrides)
