"""The compute backend the placement and delay kernels run on.

There is one: the numpy kernels of :mod:`repro.core.fastpath` and
:mod:`repro.core.delay`.  :func:`resolve_backend` names it for run
provenance (the ``executor.compute_backend`` manifest field and the
benchmark header), so a recorded run says which kernels produced it.
"""

from __future__ import annotations

from repro.core.errors import ReproError

__all__ = ["resolve_backend"]


def resolve_backend(requested: str = "auto") -> str:
    """Map a requested backend to the one that runs: always ``"python"``.

    ``"auto"`` and ``"python"`` resolve to ``"python"``; any other name
    raises :class:`ReproError`.
    """
    if requested not in ("auto", "python"):
        raise ReproError(
            f"unknown compute backend {requested!r}; the numpy kernels "
            f"('python', or 'auto') are the only backend"
        )
    return "python"
