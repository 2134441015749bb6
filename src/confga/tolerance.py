"""Coefficient tolerance policy: one zero rule, from float64's own limits.

A coefficient c of a multivector A counts as zero iff

    |c| <= UNDERFLOW + rel_eps() * max_abs(A)

UNDERFLOW = 2**-511 is the one absolute number (below it a product of two
coefficients is subnormal) and there is no length unit, so a threshold scales
with its object at every weight. The relative part can be overridden for a
``with scope(rel):`` block (the CLI opens one per command, from GA_TOLERANCE
and a scene's "tolerance" section); a rel below RESOLUTION = 2**-43 (1024 u)
acts as RESOLUTION.
"""

from __future__ import annotations

import contextlib
import contextvars

UNDERFLOW = 2.0**-511  # sqrt of the smallest normal float64
RESOLUTION = 2.0**-43  # 1024 u: the least relative tolerance
RANGE = "a number >= 0 and < 1"  # of rel: at rel >= 1 every coefficient is within rel * max|A| of zero

_REL_EPS = contextvars.ContextVar("rel_eps", default=1e-9)


def rel_eps() -> float:
    return _REL_EPS.get()


def in_range(rel: float) -> bool:
    """Whether rel is a relative tolerance: 0 <= rel < 1, so not NaN."""
    return 0.0 <= rel < 1.0


@contextlib.contextmanager
def scope(rel: float | None):
    """Use relative tolerance rel, 0 <= rel < 1 (below RESOLUTION it is
    RESOLUTION), until the block ends; None keeps the current one."""
    value = _REL_EPS.get() if rel is None else float(rel)
    if not in_range(value):
        raise ValueError(f"relative tolerance must be {RANGE}, got {rel!r}")
    token = _REL_EPS.set(max(value, RESOLUTION))
    try:
        yield
    finally:
        _REL_EPS.reset(token)


def threshold(scale: float) -> float:
    """Zero threshold for coefficients of an object of the given magnitude."""
    return UNDERFLOW + _REL_EPS.get() * abs(scale)
