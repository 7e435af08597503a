"""``repro.oracles`` stays out of the serving path.

The reference implementations exist for tests to compare against; a
serving module that imported one could route real traffic through it.
Only ``analysis/experiments.py`` may import it: the ABL4 ablation times
the two literal GetAvailableSlot probes of
:func:`repro.oracles.susc_reference` against each other, the paper's
§3.2 comparison, which the array kernel behind ``schedule_susc`` cannot
show.  A second scan keeps ``repro.analysis`` out of the core and sim
layers that sweep cells run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ALLOWED = {"analysis/experiments.py"}


def _imports_oracles(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(
                alias.name == "repro.oracles"
                or alias.name.startswith("repro.oracles.")
                for alias in node.names
            ):
                return True
        elif isinstance(node, ast.ImportFrom):
            # Relative imports are matched by name alone.
            module = node.module or ""
            if module.split(".")[-1] == "oracles" or (
                module in ("repro", "")
                and any(alias.name == "oracles" for alias in node.names)
            ):
                return True
    return False


def test_no_serving_module_imports_oracles():
    offenders = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() not in ALLOWED
        and _imports_oracles(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_guard_sees_every_import_form():
    for source in (
        "import repro.oracles",
        "from repro.oracles import route_sequential",
        "from repro import oracles",
        "def f():\n    from repro.oracles import federate_sequential",
        "from ..oracles import route_sequential",
        "from . import oracles",
        "def measure():\n"
        "    from repro.oracles import replay_requests_sequential",
    ):
        assert _imports_oracles(ast.parse(source)), source
    assert not _imports_oracles(ast.parse("from repro import engine"))
    assert _imports_oracles(
        ast.parse((SRC / "analysis" / "experiments.py").read_text())
    )


def _imports_analysis(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(
                alias.name.startswith("repro.analysis")
                for alias in node.names
            ):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("repro.analysis") or (
                node.level and module.split(".")[0] == "analysis"
            ) or (
                module in ("repro", "")
                and any(alias.name == "analysis" for alias in node.names)
            ):
                return True
    return False


def test_measurement_imports_no_analysis_layer():
    """Sweep cells measure in freshly forked pool workers: the core and
    sim layers they run must not pull in ``repro.analysis`` (~35 ms of
    imports on a worker's first cell)."""
    offenders = [
        path.relative_to(SRC).as_posix()
        for package in ("core", "sim")
        for path in sorted((SRC / package).rglob("*.py"))
        if _imports_analysis(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []
    assert _imports_analysis(
        ast.parse("def f():\n    from repro.analysis import vectorized")
    )
    assert _imports_analysis(ast.parse("from ..analysis.sweep import x"))
