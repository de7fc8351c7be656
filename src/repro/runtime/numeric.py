"""Import guard for the optional numeric stack (the ``fast`` extra).

``pyproject.toml`` declares ``fast = ["numpy", "scipy"]``; neither is a
hard dependency, so every consumer of the numeric fast path
(:mod:`repro.constraints.matrix`, :mod:`repro.constraints.kernel`, the
vectorized index sweep) must degrade cleanly when the extra is absent.
This module is the single place that probes for numpy (scipy is only
the ablation backend of :mod:`repro.constraints.lp`, which imports it
itself):

* :func:`numeric_available` — is numpy importable?  This is the gate
  the :class:`~repro.runtime.context.QueryContext` ``numeric`` option
  defaults to;
* :func:`get_numpy` — the module object, or ``None``.

The probe runs once and memoizes; :func:`force` lets tests simulate a
missing (or present) stack for the dynamic extent without touching
``sys.modules``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

#: Probe cache: ``_UNPROBED`` until the first import attempt.
_UNPROBED = object()

_numpy: Any = _UNPROBED

#: Test override: ``None`` = probe normally, ``False`` = pretend the
#: whole numeric stack is missing.
_forced: bool | None = None


def get_numpy() -> Any:
    """The ``numpy`` module, or ``None`` when the ``fast`` extra is not
    installed (or :func:`force`\\ d off)."""
    global _numpy
    if _forced is False:
        return None
    if _numpy is _UNPROBED:
        try:
            import numpy  # noqa: F401 - probe
            _numpy = numpy
        except Exception:
            _numpy = None
    return _numpy


def numeric_available() -> bool:
    """Can the numeric fast path run at all?  True when numpy imports.

    This is what ``QueryContext(numeric=None)`` (the default) resolves
    to; ``numeric=True`` forces the float kernel on even without numpy
    (pure-python packing and simplex), ``numeric=False`` disables it.
    """
    return get_numpy() is not None


@contextmanager
def force(available: bool | None) -> Iterator[None]:
    """Override the probe for the dynamic extent (tests only):
    ``force(False)`` simulates a missing ``fast`` extra, ``force(None)``
    restores normal probing."""
    global _forced
    previous = _forced
    _forced = available
    try:
        yield
    finally:
        _forced = previous
