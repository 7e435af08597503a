"""The one compute backend, as run provenance.

The placement and delay kernels have a single (numpy) implementation.
:func:`repro.core.backend.resolve_backend` names it for the benchmark
header, and every manifest's executor block records it as
``compute_backend: "python"``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.backend import resolve_backend
from repro.core.errors import ReproError
from repro.core.pages import instance_from_counts
from repro.engine import BroadcastEngine
from repro.workload.mutations import generate_mutation_trace


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


class TestManifestProvenance:
    def test_sweep_and_federation_manifests_record_python(
        self, fig2_instance
    ):
        sweep_kwargs = dict(
            algorithms=("pamad", "m-pb"),
            channel_points=(1, 2, 3),
            num_requests=100,
        )
        serial = BroadcastEngine().sweep(
            fig2_instance, workers=1, **sweep_kwargs
        )
        pooled = BroadcastEngine().sweep(
            fig2_instance, workers=2, executor="process", **sweep_kwargs
        )
        assert pooled.manifest.executor["mode"] == "process"
        instance = instance_from_counts((4, 4, 4, 4), (4, 8, 16, 32))
        trace = generate_mutation_trace(
            instance, seed=2, horizon=96, mutations=24, listeners=120
        )
        federation = BroadcastEngine().federate(
            instance, trace, shards=2, seed=0
        )
        for manifest in (
            serial.manifest, pooled.manifest, federation.manifest
        ):
            executor = json.loads(manifest.to_json())["executor"]
            assert executor["compute_backend"] == "python"
