"""Import guards for the optional numeric stack (the ``fast`` extra).

``pyproject.toml`` declares ``fast = ["numpy", "scipy"]``; neither is a
hard dependency, so every consumer of the numeric fast path
(:mod:`repro.constraints.matrix`, :mod:`repro.constraints.kernel`, the
vectorized index sweep) must degrade cleanly when the extra is absent.
This module is the single place that probes for the libraries:

* :func:`numeric_available` — is numpy importable?  This is the gate
  the :class:`~repro.runtime.context.QueryContext` ``numeric`` option
  defaults to;
* :func:`get_numpy` — the module object, or ``None``;
* :func:`get_linprog` — ``scipy.optimize.linprog``, or ``None`` (the
  float-LP kernel falls back to its pure-python simplex).

Probes run once and memoize; :func:`force` lets tests simulate a
missing (or present) stack for the dynamic extent without touching
``sys.modules``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Probe cache: ``_UNPROBED`` until the first import attempt.
_UNPROBED = object()

_numpy: Any = _UNPROBED
_linprog: Any = _UNPROBED

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


def get_linprog() -> Callable[..., Any] | None:
    """``scipy.optimize.linprog``, or ``None`` when scipy is missing
    (the kernel then uses its pure-python float simplex)."""
    global _linprog
    if _forced is False:
        return None
    if _linprog is _UNPROBED:
        try:
            from scipy.optimize import linprog
            _linprog = linprog
        except Exception:
            _linprog = None
    return _linprog


def numeric_available() -> bool:
    """Can the numeric fast path run at all?  True when numpy imports.

    This is what ``QueryContext(numeric=None)`` (the default) resolves
    to; ``numeric=True`` forces the float kernel on even without numpy
    (pure-python packing and simplex), ``numeric=False`` disables it.
    """
    return get_numpy() is not None


def scipy_available() -> bool:
    return get_linprog() is not None


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
