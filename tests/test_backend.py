"""The one compute backend, as run provenance.

The placement and delay kernels have a single (numpy) implementation.
:func:`repro.core.backend.resolve_backend` names it for the benchmark
header.
"""

from __future__ import annotations

import pytest

from repro.core.backend import resolve_backend
from repro.core.errors import ReproError


class TestResolution:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown compute backend"):
            resolve_backend("fortran")

    def test_python_always_resolves(self):
        assert resolve_backend("python") == "python"

    def test_auto_without_numba_degrades_to_python(self):
        assert resolve_backend("auto") == "python"
        assert resolve_backend() == "python"

    def test_explicit_numba_without_numba_raises(self):
        # There is no compiled backend; naming one must never silently
        # degrade, or a recorded run would claim kernels that never ran.
        with pytest.raises(ReproError, match="unknown compute backend"):
            resolve_backend("numba")
