"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fed_listen --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics (it also times
an untraced half of the run first, so the tracing overhead can be
stated).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it carries the run's provenance.  Full results (and, for
traced runs, every span) are written under ``.bench_work/results/``.

The program is imported from ``src/`` of the checkout; the benchmark
exits non-zero without a result when that source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: The benchmark's own process (forked pool workers have other pids).
_MAIN_PID = os.getpid()

#: Fresh set-ups (and import probes) per run; set-up is their median.
SETUP_REPEATS = 5

#: Self times must sum to each operation's wall time within this share
#: of it, or within the absolute floor (sub-millisecond requests).
SELF_TIME_TOLERANCE = 0.01
SELF_TIME_FLOOR_S = 1e-4

#: Modules whose import time counts toward each workload's set-up.
IMPORTS = {
    "fed_listen": ("repro.federation.service", "repro.live.service"),
    "fed_churn": ("repro.federation.service", "repro.live.service"),
    "control_session": ("repro.control.plane", "repro.control.journal"),
    "plan_sweep": ("repro.engine", "repro.analysis.sweep"),
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Provenance and set-up
# ----------------------------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    result = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return result.stdout.strip() or None


def _provenance(args, facts) -> dict:
    import numpy

    from repro import __version__
    from repro.core.backend import resolve_backend

    def seen(prefix: str) -> list[str]:
        return sorted(k.split(":", 1)[1] for k in facts if k.startswith(prefix))

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "repro_version": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compute_backend": resolve_backend("auto"),
        "compute_backend_ran": seen("compute:"),
        "nproc": os.cpu_count(),
        "executor_mode": seen("mode:") or ["none"],
        "executor_transport": seen("transport:") or ["none"],
        "machine": platform.machine(),
    }


def _import_seconds(workload: str) -> float:
    """Median import time of the workload's layers in fresh interpreters."""
    modules = ", ".join(IMPORTS[workload])
    code = (
        "import time; started = time.perf_counter(); "
        f"import {modules}; print(time.perf_counter() - started)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, cwd=str(ROOT), check=True, timeout=60,
        )
        samples.append(float(result.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def end_to_end(timed, setup_s: float) -> dict:
    return {
        "throughput": (timed.work / timed.busy if timed.busy else 0.0, "1/s"),
        "latency_p50_ms": (statistics.median(timed.latencies) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
    }


def at_reference_speed(metrics: dict, speed: float) -> dict:
    """Scale measured metrics to the reference host speed.

    ``speed`` is the reference calibration time over this run's: below
    1 when the shared host runs slow, so times shrink and throughput
    grows by the factor the host lost.
    """
    return {
        name: (value / speed if unit == "1/s" else value * speed, unit)
        for name, (value, unit) in metrics.items()
    }


def per_layer(timed, tracer, untraced) -> tuple[dict, int]:
    """Per-layer metrics of the traced phase, and the number of
    operations whose self times missed their wall time."""
    from tracing import ATTRS, END, NAME, START, by_op, self_times

    spans, workers = tracer.spans, tracer.worker_spans
    own, worker_own = self_times(spans), self_times(workers)
    ops = max(1, timed.attempted)
    counts = tracer.counts
    facts = timed.facts

    def self_ms(name: str, pool: bool = False) -> float:
        total = sum(t for s, t in zip(spans, own) if s[NAME] == name)
        if pool:
            total += sum(t for s, t in zip(workers, worker_own)
                         if s[NAME] == name)
        return total * 1e3 / ops

    def durations(name: str, source=None) -> list[float]:
        return [s[END] - s[START] for s in (spans if source is None else source)
                if s[NAME] == name]

    def calls(name: str, pool: bool = False) -> int:
        total = len(durations(name))
        return total + (len(durations(name, workers)) if pool else 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    grouped = by_op(spans)
    # Shard skew: slowest shard's replay over the mean, per operation.
    skews = []
    for indices in grouped.values():
        shard = [spans[i][END] - spans[i][START] for i in indices
                 if spans[i][NAME] == "federation.shard"]
        if shard:
            skews.append(max(shard) / statistics.mean(shard))

    # Self times of an operation's spans must sum to its wall time.
    gaps, walls, outside = 0.0, 0.0, 0
    for op, wall in timed.op_walls:
        gap = abs(sum(own[i] for i in grouped.get(op, ())) - wall)
        gaps += gap
        walls += wall
        if gap > max(SELF_TIME_TOLERANCE * wall, SELF_TIME_FLOOR_S):
            outside += 1

    schedule = durations("engine.schedule")
    shards = durations("federation.shard")
    tasks = calls("executor.cell", pool=True) + len(shards)
    task_time = sum(durations("executor.cell")) + sum(
        durations("executor.cell", workers)) + sum(shards)
    listeners = facts["listeners"]
    pamad_delay = timed.series.get("pamad_delay", [])
    pamad_miss = timed.series.get("pamad_miss", [])
    dispatch = {"read": [], "write": []}
    for span, t in zip(spans, own):
        if span[NAME] == "control.dispatch":
            kind = {"MutationBatch": "write", "SloQuery": "read",
                    "ErrorBudgetQuery": "read"}.get(span[ATTRS]["type"])
            if kind:
                dispatch[kind].append(t)
    kinds = untraced.series
    untraced_tp = ratio(untraced.work, untraced.busy)
    traced_tp = ratio(timed.work, timed.busy)

    metrics = {
        "federation.route_ms": (self_ms("federation.route"), "ms"),
        "federation.assemble_ms": (self_ms("federation.run"), "ms"),
        "federation.shard_ms": (self_ms("federation.shard"), "ms"),
        "federation.shard_skew": (
            statistics.median(skews) if skews else 0.0, "ratio"),
        "federation.rebalances": (facts["rebalances"] / ops, "count"),
        "federation.pages_moved": (facts["pages_moved"] / ops, "count"),
        "live.replay_ms": (self_ms("live.run"), "ms"),
        "live.slo_fold_ms": (self_ms("live.slo_fold"), "ms"),
        "live.listener_batches": (calls("live.slo_fold") / ops, "count"),
        "live.offer_ms": (self_ms("live.offer"), "ms"),
        "live.incremental_repairs": (
            facts["incremental_repairs"] / ops, "count"),
        "live.admitted": (facts["admitted"] / ops, "count"),
        "live.queued": (facts["queued"] / ops, "count"),
        "live.rejected": (facts["rejected"] / ops, "count"),
        "live.patch_ms": (self_ms("live.try_patch"), "ms"),
        "quality.miss_rate": (
            ratio(facts["misses"], listeners) if listeners
            else (statistics.mean(pamad_miss) if pamad_miss else 0.0),
            "ratio"),
        "replan.full": (calls("engine.schedule") / ops, "count"),
        "replan.patched": (counts["replan.patched"] / ops, "count"),
        "replan.patch_hit_ratio": (
            ratio(counts["replan.patched"], counts["replan.patch_attempts"]),
            "ratio"),
        "replan.schedule_p50_ms": (_percentile(schedule, 0.5) * 1e3, "ms"),
        "replan.schedule_p99_ms": (_percentile(schedule, 0.99) * 1e3, "ms"),
        "replan.schedule_share": (
            ratio(sum(schedule), sum(shards)) if shards else 0.0, "ratio"),
        "engine.schedule_ms": (self_ms("engine.schedule"), "ms"),
        "engine.sweep_ms": (self_ms("engine.sweep"), "ms"),
        "engine.cache_hit_ratio": (
            ratio(counts["engine.cache_hits"],
                  counts["engine.cache_hits"] + counts["engine.cache_misses"]),
            "ratio"),
        "core.plan_ms": (self_ms("core.plan", pool=True), "ms"),
        "baselines.opt_ms": (self_ms("baselines.opt", pool=True), "ms"),
        "baselines.mpb_ms": (self_ms("baselines.mpb", pool=True), "ms"),
        "sim.measure_ms": (self_ms("sim.measure", pool=True), "ms"),
        "sim.pamad_avgd": (
            statistics.mean(pamad_delay) if pamad_delay else 0.0, "slots"),
        "executor.tasks": (tasks / ops, "count"),
        "executor.retries": (counts["executor.retries"] / ops, "count"),
        "executor.failures": (counts["executor.failures"] / ops, "count"),
        "executor.overhead_ms": (
            (sum(durations("executor.run")) - task_time) * 1e3 / ops, "ms"),
        "control.dispatch_ms": (self_ms("control.dispatch"), "ms"),
        "control.dispatch_read_ms": (
            statistics.mean(dispatch["read"]) * 1e3
            if dispatch["read"] else 0.0, "ms"),
        "control.dispatch_write_ms": (
            statistics.mean(dispatch["write"]) * 1e3
            if dispatch["write"] else 0.0, "ms"),
        "control.journal_append_ms": (
            self_ms("control.journal_append"), "ms"),
        "control.remediation_ms": (self_ms("control.remediation"), "ms"),
        "control.frame_ms": (self_ms("control.handle_line"), "ms"),
        "control.transport_ms": (self_ms("control.request"), "ms"),
        "control.read_p50_ms": (
            statistics.median(kinds["read"]) * 1e3
            if kinds.get("read") else 0.0, "ms"),
        "control.write_p50_ms": (
            statistics.median(kinds["write"]) * 1e3
            if kinds.get("write") else 0.0, "ms"),
        "control.request_p99_ms": (
            _percentile(untraced.latencies, 0.99) * 1e3
            if untraced.kinds else 0.0, "ms"),
        "control.finish_bytes_max": (
            float(untraced.facts["finish_bytes_max"]), "bytes"),
        "api.codec_ms": (self_ms("api.codec"), "ms"),
        "api.response_bytes": (counts["api.response_bytes"] / ops, "bytes"),
        "op.glue_ms": (self_ms("op"), "ms"),
        "process.peak_rss_mb": (_peak_rss_mb(), "MB"),
        "trace.overhead_pct": (
            ratio(untraced_tp - traced_tp, untraced_tp) * 100.0, "%"),
        "trace.selftime_error_pct": (ratio(gaps, walls) * 100.0, "%"),
        "trace.spans_per_op": ((len(spans) + len(workers)) / ops, "count"),
    }
    return metrics, outside


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def _child_pids() -> list[int]:
    """Processes whose parent is this one (read from ``/proc``)."""
    me, children = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            children.append(int(stat.parent.name))
    return children


def _end(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGTERM)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    The shared-memory transport starts multiprocessing's resource
    tracker, which otherwise outlives the run.  It ends once every
    holder of its pipe has, so pool workers (joined by the program on
    every normal path) and any other child go first.
    """
    tracker = None
    if "multiprocessing" in sys.modules:
        import multiprocessing
        from multiprocessing import resource_tracker

        for child in multiprocessing.active_children():
            child.join(timeout=10)
        tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    for pid in _child_pids():
        if pid != tracker_pid:
            _end(pid)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in _child_pids():
        _end(pid)


def _on_sigterm(signum, _frame) -> None:
    """Unwind a terminated run so that its children are stopped too."""
    if os.getpid() != _MAIN_PID:
        # A forked pool worker inherits this handler: die as by default.
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
    sys.exit(128 + signum)



def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _on_sigterm)
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(args, workloads, workdir)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, workdir: Path) -> int:
    workload = workloads.build(args.workload, args.seed, args.size, workdir)
    extra: dict = {}
    if args.trace == 0:
        probe = workloads.HostProbe(workdir)
        probe.sample()
        import_s = _import_seconds(args.workload)
        program_setup_s = statistics.median(
            workload.setup_once() for _ in range(SETUP_REPEATS))
        setup_s = import_s + program_setup_s
        probe.sample()
        timed = workload.run(args.seconds, probe=probe)
        probe.sample()
        speed = (workloads.REFERENCE_CALIBRATION_MS / probe.median_ms()
                 if workload.host_corrected else 1.0)
        raw = end_to_end(timed, setup_s)
        metrics = at_reference_speed(raw, speed)
        extra["raw"] = {name: value for name, (value, _) in raw.items()}
        extra["host"] = {
            "calibration_ms": probe.median_ms(),
            "calibration_samples": len(probe.samples),
            "reference_ms": workloads.REFERENCE_CALIBRATION_MS,
            "speed": speed,
        }
        extra["setup"] = {"imports_s": import_s, "program_s": program_setup_s}
        correct = timed.failed == 0
    else:
        import tracing

        workload.setup_once()
        half = args.seconds / 2.0
        untraced = workload.run(half)
        tracer = tracing.Tracer(workdir)
        tracing.install(tracer)
        timed = workload.run(half, tracer=tracer)
        metrics, outside = per_layer(timed, tracer, untraced)
        extra["selftime_tolerance"] = {
            "share": SELF_TIME_TOLERANCE, "floor_s": SELF_TIME_FLOOR_S,
            "operations_outside": outside,
        }
        tracing.write_trace(
            WORK / "results" / f"{args.workload}-seed{args.seed}-spans.json",
            tracer, {"workload": args.workload, "seed": args.seed},
        )
        correct = (
            timed.failed == 0 and untraced.failed == 0
            and outside == 0
        )
        timed.attempted += untraced.attempted
        timed.failed += untraced.failed
        timed.errors.update(untraced.errors)
        timed.facts.update(untraced.facts)
    provenance = _provenance(args, timed.facts)
    detail = {
        "provenance": provenance,
        "unit_of_work": timed.unit,
        "input_digest": workload.input_digest(),
        "operations": len(timed.latencies),
        "errors": dict(timed.errors),
        **extra,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results"
     / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, "metrics": metrics,
                    "latencies_s": timed.latencies}, indent=1),
        encoding="utf-8",
    )
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(timed.attempted),
        "failed": int(timed.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
