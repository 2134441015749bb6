"""Coefficient tolerance policy.

A coefficient c of a multivector A counts as zero iff

    |c| <= EPS_ABS + rel_eps() * max_abs(A)

so thresholds scale with the size of the object being tested.  The relative
part can be overridden for the extent of a ``with scope(rel):`` block (the
CLI opens one per command, from GA_TOLERANCE and a scene's "tolerance"
section); the absolute floor is fixed.
"""

from __future__ import annotations

import contextlib
import contextvars
import math

EPS_ABS = 1e-12

_REL_EPS = contextvars.ContextVar("rel_eps", default=1e-9)


def rel_eps() -> float:
    return _REL_EPS.get()


@contextlib.contextmanager
def scope(rel: float | None):
    """Use relative tolerance rel, a finite number >= 0, until the block ends;
    None keeps the current one."""
    value = _REL_EPS.get() if rel is None else float(rel)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"relative tolerance must be a finite number >= 0, got {rel!r}")
    token = _REL_EPS.set(value)
    try:
        yield
    finally:
        _REL_EPS.reset(token)


def threshold(scale: float) -> float:
    """Zero threshold for coefficients of an object of the given magnitude."""
    return EPS_ABS + _REL_EPS.get() * abs(scale)
