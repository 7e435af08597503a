"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py

Every workload must emit every metric ``BENCHMARK.json`` names, each
with its unit, in both the untraced and the traced run; a different
seed must change the inputs but not the metric names; a run must leave
no process behind.  The last test reproduces the control plane's 64 KiB reply-limit defect through the
benchmark's own session driver and checks that it is counted as a
failed operation rather than hidden.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=300,
        check=True,
    )
    lines = result.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        detail, result = _run(workload, 1, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, detail["errors"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert set(result["metrics"]) == set(expected)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == expected[name], name
            assert isinstance(metric["value"], float), name
        provenance = detail["provenance"]
        for field in ("source_digest", "python", "numpy", "compute_backend",
                      "nproc", "executor_mode", "executor_transport",
                      "seed"):
            assert field in provenance, field


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_names(workload):
    first, first_result = _run(workload, 1, 0)
    second, second_result = _run(workload, 2, 0)
    assert first["input_digest"] != second["input_digest"]
    assert set(first_result["metrics"]) == set(second_result["metrics"])
    again, _ = _run(workload, 1, 0)
    assert again["input_digest"] == first["input_digest"]


def _session_members(session: int) -> list[str]:
    """Processes (zombies too) still in the given session."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            members.append(f"{stat.parent.name} {fields[0]}")
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc")
@pytest.mark.parametrize("trace", (0, 1))
def test_run_leaves_no_process_behind(trace):
    """The pooled sweep's helper processes end with the run."""
    run = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "plan_sweep",
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        stdout=subprocess.DEVNULL, cwd=str(ROOT), start_new_session=True,
    )
    assert run.wait(timeout=300) == 0
    assert _session_members(run.pid) == []


def test_long_session_finish_counts_as_failed():
    """A finish reply past asyncio's 64 KiB line limit is a failure.

    The stock ``ControlPlaneClient`` reads replies with the default
    ``StreamReader`` limit, so a long session's ``FinishService``
    manifest (here ~105 KB: 2,000 mutations over 4,096 slots carry
    many remediation records) raises a raw ``ValueError`` instead of a
    typed error.  The benchmark must count that operation as failed.
    """
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    session = workloads.ControlSession(
        seed=5, size="tiny", workdir=ROOT / ".bench_work" / "smoke",
        params={"writes": 250, "mutations": 2_000, "horizon": 4_096},
    )
    timed = session.run(seconds=0.0)
    finishes = [op for op, kind in timed.kinds.items() if kind == "finish"]
    assert len(finishes) == 1
    assert timed.failed == 1, timed.errors
    (reason,) = timed.errors
    assert reason.startswith("finish: ValueError"), reason
