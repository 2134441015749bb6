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

EPS_ABS = 1e-12
RANGE = "a number >= 0 and < 1"  # of rel: at rel >= 1 every coefficient is within rel * max|A| of zero

_REL_EPS = contextvars.ContextVar("rel_eps", default=1e-9)


def rel_eps() -> float:
    return _REL_EPS.get()


def in_range(rel: float) -> bool:
    """Whether rel is a relative tolerance: 0 <= rel < 1, so not NaN."""
    return 0.0 <= rel < 1.0


@contextlib.contextmanager
def scope(rel: float | None):
    """Use relative tolerance rel, 0 <= rel < 1, until the block ends;
    None keeps the current one."""
    value = _REL_EPS.get() if rel is None else float(rel)
    if not in_range(value):
        raise ValueError(f"relative tolerance must be {RANGE}, got {rel!r}")
    token = _REL_EPS.set(value)
    try:
        yield
    finally:
        _REL_EPS.reset(token)


def threshold(scale: float) -> float:
    """Zero threshold for coefficients of an object of the given magnitude."""
    return EPS_ABS + _REL_EPS.get() * abs(scale)
