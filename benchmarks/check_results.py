#!/usr/bin/env python
"""Check that the committed paper results still regenerate byte for byte.

Every ``benchmarks/results/<ID>.txt`` table is re-run through
:func:`repro.analysis.experiments.run_experiment` (the same call the
``bench_*.py`` benchmarks make) and compared with the committed file::

    python benchmarks/check_results.py              # every committed table
    python benchmarks/check_results.py FIG2 FIG5A   # a subset

Two tables print wall-clock timings and are skipped (``ABL4``,
``EXT2``).  ``note: engine run ...`` lines are dropped before the
comparison because engine run ids count runs per process.  Exit status
is non-zero when any table differs; a unified diff of each mismatch is
printed.
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import sys

try:
    from repro.analysis.experiments import run_experiment
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))
    from repro.analysis.experiments import run_experiment

RESULTS = pathlib.Path(__file__).parent / "results"
TIMED = ("ABL4", "EXT2")
RUN_ID_NOTE = "note: engine run "


def regenerate(experiment_id: str) -> str:
    """The table text ``record_tables`` would write, minus run-id notes."""
    rendered = "\n".join(
        table.render() for table in run_experiment(experiment_id)
    )
    return "".join(
        line
        for line in rendered.splitlines(keepends=True)
        if not line.startswith(RUN_ID_NOTE)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "ids",
        nargs="*",
        help="experiment ids to check (default: every committed table)",
    )
    args = parser.parse_args(argv)
    committed = sorted(path.stem for path in RESULTS.glob("*.txt"))
    ids = [i.upper() for i in args.ids] or [
        i for i in committed if i not in TIMED
    ]
    failures = 0
    for experiment_id in ids:
        expected = (RESULTS / f"{experiment_id}.txt").read_text()
        actual = regenerate(experiment_id)
        if actual == expected:
            print(f"{experiment_id}: ok")
            continue
        failures += 1
        print(f"{experiment_id}: DIFFERS")
        sys.stdout.writelines(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"committed/{experiment_id}.txt",
                tofile=f"regenerated/{experiment_id}.txt",
            )
        )
    print(f"{len(ids) - failures}/{len(ids)} tables match")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
