"""The core performance suite behind ``repro-air bench``.

Every fast path added to the scheduling core (the array kernels in
:mod:`repro.core.fastpath`, the pruned searches in
:mod:`repro.baselines.opt`, the appearance caches in
:mod:`repro.core.program`, the live re-plan patcher in
:mod:`repro.live.replan`) is pinned to its reference implementation by
property tests — this module pins the *point* of those paths: the
speedup.  :func:`run_suite` times each reference/fast pair and writes a
machine-readable payload (``benchmarks/results/BENCH_core.json``) that
future changes regress against.

Design decisions:

* **Ratios, not absolute times.**  Wall-clock depends on the machine;
  the reference/fast *ratio* on the same machine in the same process is
  stable enough to gate on.  Each entry also carries a ``floor`` — the
  minimum speedup the fast path must deliver anywhere — so CI's quick
  configs (smaller inputs, lower ratios) have an absolute bar even when
  the committed baseline was produced by a full run.
* **Best-of-N minimum timing.**  The minimum over repeats is the least
  noisy estimator of the achievable time; means smear scheduler noise
  into the ratio.
* **Two modes.**  ``quick`` shrinks the inputs so the whole suite runs
  in a couple of seconds for CI smoke; the full mode uses sweep-scale
  inputs (the numbers quoted in README/DESIGN).  The payload records
  which mode produced it, and :func:`compare_payloads` only applies the
  relative-regression gate between same-mode payloads (floors always
  apply).
"""

from __future__ import annotations

import time
from typing import Callable

from repro import __version__
from repro.core.errors import SimulationError

__all__ = [
    "SCHEMA",
    "SUITE_ENTRIES",
    "BENCH_SUITES",
    "run_suite",
    "validate_payload",
    "compare_payloads",
    "bench_command",
]

SCHEMA = "repro-air/bench-core/v1"

# name -> (floor, builder).  A builder maps quick -> (config, reference
# thunk, fast thunk, inner-loop count); thunks are timed as `inner`
# back-to-back calls and reported per call.
_Builder = Callable[
    [bool], tuple[dict, Callable[[], object], Callable[[], object], int]
]


def _build_susc_scaling(quick: bool):
    from repro.core.pages import instance_from_counts
    from repro.core.susc import schedule_susc

    # Full mode is the 10k-page acceptance point for the array kernels;
    # quick keeps CI smoke in the hundreds.
    pages = 120 if quick else 1250
    times = (4, 8, 16, 32, 64, 128, 256, 512)
    sizes = tuple(pages for _ in times)
    instance = instance_from_counts(sizes, times)
    config = {"pages": sum(sizes), "h": len(times), "validate": False}
    return (
        config,
        lambda: schedule_susc(instance, validate=False, fast=False),
        lambda: schedule_susc(instance, validate=False),
        1,
    )


def _build_placement(quick: bool):
    from repro.core.frequencies import pamad_frequencies
    from repro.core.pamad import place_by_frequency
    from repro.workload.generator import paper_instance

    instance = paper_instance("uniform")
    channels = 13
    if quick:
        from repro.core.pages import instance_from_counts

        instance = instance_from_counts(
            (80, 80, 80, 80), (4, 8, 16, 32)
        )
        channels = 8
    frequencies = pamad_frequencies(instance, channels).frequencies
    config = {
        "pages": instance.n,
        "h": instance.h,
        "channels": channels,
        "frequencies": list(frequencies),
    }
    return (
        config,
        lambda: place_by_frequency(
            instance, frequencies, channels, fast=False
        ),
        lambda: place_by_frequency(instance, frequencies, channels),
        1,
    )


def _build_sequential_placement(quick: bool):
    from repro.core.frequencies import pamad_frequencies
    from repro.core.pamad import place_sequential
    from repro.workload.generator import paper_instance

    instance = paper_instance("uniform")
    channels = 13
    if quick:
        from repro.core.pages import instance_from_counts

        instance = instance_from_counts(
            (80, 80, 80, 80), (4, 8, 16, 32)
        )
        channels = 8
    frequencies = pamad_frequencies(instance, channels).frequencies
    config = {
        "pages": instance.n,
        "h": instance.h,
        "channels": channels,
    }
    return (
        config,
        lambda: place_sequential(
            instance, frequencies, channels, fast=False
        ),
        lambda: place_sequential(instance, frequencies, channels),
        1,
    )


def _build_opt_search(quick: bool):
    from repro.baselines.opt import opt_frequencies
    from repro.core.pages import instance_from_counts

    if quick:
        sizes, times, channels = (2, 3, 4, 5), (2, 4, 8, 16), 10
    else:
        sizes, times, channels = (
            (2, 3, 4, 5, 6),
            (2, 4, 8, 16, 32),
            8,
        )
    instance = instance_from_counts(sizes, times)
    config = {"sizes": list(sizes), "channels": channels}
    return (
        config,
        lambda: opt_frequencies(instance, channels, prune=False),
        lambda: opt_frequencies(instance, channels),
        1,
    )


def _build_brute_search(quick: bool):
    from repro.baselines.opt import brute_force_frequencies
    from repro.core.pages import instance_from_counts

    if quick:
        sizes, times, channels, cap = (3, 5, 7), (2, 4, 8), 4, 14
    else:
        sizes, times, channels, cap = (3, 5, 7, 9), (2, 4, 8, 16), 4, 9
    instance = instance_from_counts(sizes, times)
    config = {"sizes": list(sizes), "channels": channels, "cap": cap}
    return (
        config,
        lambda: brute_force_frequencies(
            instance, channels, cap=cap, prune=False
        ),
        lambda: brute_force_frequencies(instance, channels, cap=cap),
        1,
    )


def _build_delay_cache(quick: bool):
    from repro.core.delay import program_average_delay
    from repro.core.frequencies import pamad_frequencies
    from repro.core.pamad import place_by_frequency
    from repro.workload.generator import paper_instance

    instance = paper_instance("uniform")
    channels = 13
    if quick:
        from repro.core.pages import instance_from_counts

        instance = instance_from_counts(
            (80, 80, 80, 80), (4, 8, 16, 32)
        )
        channels = 8
    frequencies = pamad_frequencies(instance, channels).frequencies
    program = place_by_frequency(instance, frequencies, channels).program
    program_average_delay(program, instance)  # build the index
    cycle = program.cycle_length
    probability = 1.0 / instance.n

    def cold() -> float:
        # The evaluation before slots and gaps were cached: every call
        # re-derives each page's sorted slots and cyclic gaps from its
        # appearance cells, then applies the same uniform-access model.
        total = 0.0
        for page in instance.pages():
            refs = program.appearances(page.page_id)
            slots = sorted({ref.slot for ref in refs})
            ends = slots[1:] + [slots[0] + cycle]
            excess = [
                max(b - a - page.expected_time, 0)
                for a, b in zip(slots, ends)
            ]
            total += probability * (sum(e * e for e in excess) / (2 * cycle))
        return total

    config = {"pages": instance.n, "channels": channels}
    return (
        config,
        cold,
        lambda: program_average_delay(program, instance),
        3,
    )


def _build_delay_batch(quick: bool):
    from repro.core.delay import paper_group_delay, paper_group_delay_batch

    import numpy as np

    # An 8-group ladder and a deterministic bank of candidate frequency
    # vectors, the shape the pruned searches hand to the batched
    # Equation-(2) kernel.  Reference is the scalar objective looped row
    # by row — exactly what the searches did before the batch kernel.
    times = [4, 8, 16, 32, 64, 128, 256, 512]
    sizes = [2, 3, 4, 6, 8, 12, 16, 24]
    channels = 8
    m = 512 if quick else 4096
    h = len(times)
    rows = np.asarray(
        [[1 + ((i * 7 + j * 3) % 6) for j in range(h)] for i in range(m)],
        dtype=np.int64,
    )
    row_lists = rows.tolist()

    def scalar() -> float:
        total = 0.0
        for row in row_lists:
            total += paper_group_delay(row, sizes, times, channels)
        return total

    def batched() -> float:
        return float(
            paper_group_delay_batch(rows, sizes, times, channels).sum()
        )

    config = {"rows": m, "groups": h, "channels": channels}
    return (config, scalar, batched, 2)


def _build_live_replan(quick: bool):
    from repro.core.pamad import schedule_pamad
    from repro.live.catalog import LiveCatalog
    from repro.live.replan import FastReplanner

    sizes = (3, 4, 6, 10) if quick else (6, 10, 14, 20)
    times = (4, 8, 16, 32)
    budget = 4 if quick else 6
    pages: dict[int, int] = {}
    page_id = 1
    for size, expected in zip(sizes, times):
        for _ in range(size):
            pages[page_id] = expected
            page_id += 1
    catalog = LiveCatalog(pages)
    schedule = schedule_pamad(catalog.to_instance(), budget)

    replanner = FastReplanner()
    replanner.remember(
        catalog=catalog.pages(),
        times=times,
        frequencies=schedule.assignment.frequencies,
        cycle=schedule.program.cycle_length,
        budget=budget,
    )

    # One page toggling in and out of the slowest rung: the canonical
    # degraded-mode mutations the patch path exists for.  Alternating
    # insert/remove keeps the snapshot and the incremental rung cache
    # evolving exactly as they do between re-plans in the live service,
    # so the timed mean is the steady-state per-patch cost (the
    # sub-100us headline).  Ineligibility here would mean the fast path
    # never fires on its own benchmark — fail loudly.
    mutated = catalog.copy()
    mutated.insert(page_id, times[-1])
    cursor = {"program": schedule.program, "insert": True}

    def patch():
        target = mutated if cursor["insert"] else catalog
        patched = replanner.try_patch(target.pages(), cursor["program"])
        if patched is None:
            raise SimulationError(
                "live-replan benchmark mutation was not patch-eligible"
            )
        cursor["program"] = patched
        cursor["insert"] = not cursor["insert"]
        return patched

    config = {
        "pages": len(pages) + 1,
        "budget": budget,
        "mutation": "insert/remove toggle",
    }
    return (
        config,
        lambda: schedule_pamad(mutated.to_instance(), budget),
        patch,
        8,
    )


SUITE_ENTRIES: dict[str, tuple[float, _Builder]] = {
    "bench_susc_scaling": (5.0, _build_susc_scaling),
    "bench_ablation_placement": (5.0, _build_placement),
    "bench_sequential_placement": (1.3, _build_sequential_placement),
    "bench_ablation_search": (3.0, _build_opt_search),
    "bench_brute_force_search": (2.0, _build_brute_search),
    "bench_delay_cache": (1.5, _build_delay_cache),
    "bench_delay_batch": (10.0, _build_delay_batch),
    "bench_live_replan": (1.5, _build_live_replan),
}


def _best_of(thunk: Callable[[], object], inner: int, repeats: int) -> float:
    """Minimum seconds per call over ``repeats`` batches of ``inner``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(inner):
            thunk()
        elapsed = (time.perf_counter() - started) / inner
        best = min(best, elapsed)
    return best


def run_suite(quick: bool = False, repeats: int = 3) -> dict:
    """Time every suite entry; returns the BENCH_core payload."""
    if repeats < 1:
        raise SimulationError(f"repeats must be >= 1, got {repeats}")
    benchmarks = {}
    for name, (floor, builder) in SUITE_ENTRIES.items():
        config, reference, fast, inner = builder(quick)
        reference()  # warm both paths outside the timer
        fast()
        reference_s = _best_of(reference, inner, repeats)
        fast_s = _best_of(fast, inner, repeats)
        benchmarks[name] = {
            "config": config,
            "reference_ms": round(reference_s * 1000.0, 4),
            "fast_ms": round(fast_s * 1000.0, 4),
            "speedup": round(reference_s / fast_s, 2),
            "floor": floor,
        }
    return {
        "schema": SCHEMA,
        "version": __version__,
        "quick": quick,
        "repeats": repeats,
        "benchmarks": benchmarks,
    }


def validate_payload(payload: dict, schema: str = SCHEMA) -> None:
    """Schema-check a bench payload; raises on any violation.

    ``schema`` selects the expected schema string — BENCH_core and
    BENCH_serve (:data:`repro.analysis.servesuite.SCHEMA`) share this
    payload contract.
    """
    if not isinstance(payload, dict):
        raise SimulationError("bench payload must be an object")
    if payload.get("schema") != schema:
        raise SimulationError(
            f"unexpected schema {payload.get('schema')!r}; "
            f"expected {schema!r}"
        )
    for key, kind in (
        ("version", str),
        ("quick", bool),
        ("repeats", int),
        ("benchmarks", dict),
    ):
        if not isinstance(payload.get(key), kind):
            raise SimulationError(
                f"bench payload field {key!r} must be {kind.__name__}"
            )
    if not payload["benchmarks"]:
        raise SimulationError("bench payload has no benchmarks")
    for name, entry in payload["benchmarks"].items():
        if not isinstance(entry, dict):
            raise SimulationError(f"benchmark {name!r} must be an object")
        for key in ("reference_ms", "fast_ms", "speedup", "floor"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                raise SimulationError(
                    f"benchmark {name!r} field {key!r} must be a "
                    f"positive number, got {value!r}"
                )
        if not isinstance(entry.get("config"), dict):
            raise SimulationError(
                f"benchmark {name!r} must carry a config object"
            )


def compare_payloads(
    current: dict,
    baseline: dict,
    max_regression: float = 0.25,
    schema: str = SCHEMA,
) -> list[str]:
    """Regression-gate ``current`` against a committed ``baseline``.

    Returns human-readable failure strings (empty = pass).  Two gates:

    * every baseline entry must still exist and clear its ``floor``;
    * when both payloads came from the same mode (``quick`` flag), each
      speedup may drop at most ``max_regression`` below the baseline's.
    """
    validate_payload(current, schema)
    validate_payload(baseline, schema)
    failures = []
    same_mode = current["quick"] == baseline["quick"]
    for name, base in baseline["benchmarks"].items():
        entry = current["benchmarks"].get(name)
        if entry is None:
            failures.append(f"{name}: missing from current run")
            continue
        if entry["speedup"] < base["floor"]:
            failures.append(
                f"{name}: speedup {entry['speedup']}x below the "
                f"{base['floor']}x floor"
            )
        if same_mode:
            allowed = base["speedup"] * (1.0 - max_regression)
            if entry["speedup"] < allowed:
                failures.append(
                    f"{name}: speedup {entry['speedup']}x regressed "
                    f">{max_regression:.0%} from baseline "
                    f"{base['speedup']}x"
                )
    return failures


#: ``--suite`` choices for :func:`bench_command` (resolved lazily so
#: importing perfsuite never pulls in the live runtime).
BENCH_SUITES = ("core", "fed", "serve")


def _resolve_suite(suite: str):
    """``suite`` name -> (schema, run_suite callable)."""
    if suite == "core":
        return SCHEMA, run_suite
    if suite == "serve":
        from repro.analysis import servesuite

        return servesuite.SCHEMA, servesuite.run_suite
    if suite == "fed":
        from repro.analysis import fedsuite

        return fedsuite.SCHEMA, fedsuite.run_suite
    raise SimulationError(
        f"unknown bench suite {suite!r}; choose from "
        f"{', '.join(BENCH_SUITES)}"
    )


def bench_command(
    *,
    suite: str = "core",
    quick: bool = False,
    repeats: int = 3,
    output: str | None = None,
    check: str | None = None,
    max_regression: float = 0.25,
) -> int:
    """Run a suite, print a table, optionally write/gate the payload.

    Shared implementation behind ``repro-air bench`` and
    ``benchmarks/run_suite.py``.  ``suite`` picks the entry set:
    ``"core"`` (scheduling fast paths, BENCH_core), ``"serve"``
    (serving throughput, BENCH_serve), or ``"fed"`` (federation shard
    scaling, BENCH_fed).  Returns a process exit code:
    non-zero when any entry misses its floor or, with ``check``, when
    the run regresses against the committed baseline at ``check``.
    """
    import json
    import pathlib

    schema, suite_runner = _resolve_suite(suite)
    payload = suite_runner(quick=quick, repeats=repeats)
    width = max(len(name) for name in payload["benchmarks"])
    failed = False
    for name, entry in payload["benchmarks"].items():
        ok = entry["speedup"] >= entry["floor"]
        failed = failed or not ok
        print(
            f"{name.ljust(width)}  reference {entry['reference_ms']:>9.3f} ms"
            f"  fast {entry['fast_ms']:>9.3f} ms"
            f"  speedup {entry['speedup']:>6.2f}x"
            f"  floor {entry['floor']:>4.1f}x"
            f"  [{'ok' if ok else 'BELOW FLOOR'}]"
        )
        stats = entry.get("stats")
        if stats:
            detail = "  ".join(
                f"{key}={value}" for key, value in stats.items()
            )
            print(f"{''.ljust(width)}  {detail}")
    if output:
        path = pathlib.Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {path}")
    if check:
        baseline = json.loads(pathlib.Path(check).read_text())
        failures = compare_payloads(
            payload,
            baseline,
            max_regression=max_regression,
            schema=schema,
        )
        for failure in failures:
            print(f"REGRESSION {failure}")
        if failures:
            return 1
        print(
            f"no regressions vs {check} "
            f"(max allowed {max_regression:.0%}, "
            f"{'same' if payload['quick'] == baseline['quick'] else 'cross'}"
            f"-mode comparison)"
        )
    return 1 if failed else 0
