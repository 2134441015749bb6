import functools
import math

import numpy as np
import pytest

from confga import tolerance
from confga.algebra import Multivector, algebra
from confga.conformal import is_point
from confga.errors import (
    DomainError,
    GAError,
    GradeError,
    MixedParityError,
    NotExponentiableError,
    NotVersorError,
    SingularVersorError,
)
from confga.versor import Versor


# floats whose repr or arithmetic is easy to get wrong: a negative zero, subnormals,
# the smallest normal, large and small powers of ten, inexact decimals, the largest float
SPECIAL_FLOATS = [-0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e16, 1e-05, 1e22, -1.5e-07, 0.1, 1 / 3,
                  1.7976931348623157e308]


@pytest.fixture
def cga():
    return algebra(4, 1)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def random_mv(alg, rng, scale=1.0, grade=None) -> Multivector:
    coeffs = rng.uniform(-scale, scale, alg.dim)
    if grade is not None:
        coeffs = np.where(alg.grades == grade, coeffs, 0.0)
    return alg.mv(coeffs)


def max_err(a: Multivector, b: Multivector) -> float:
    return float(np.max(np.abs(a.coeffs - b.coeffs)))


def assert_mv_close(a: Multivector, b: Multivector, tol=1e-12, scale=None):
    if scale is None:
        scale = max(1.0, a.max_abs(), b.max_abs())
    err = max_err(a, b)
    assert err <= tol * scale, f"multivectors differ by {err:.3e} (allowed {tol * scale:.3e})\n  {a}\n  {b}"


def assert_proportional(a: Multivector, b: Multivector, tol=1e-9):
    """a == lambda * b for some nonzero lambda."""
    k = int(np.argmax(np.abs(b.coeffs)))
    assert b.coeffs[k] != 0.0, "reference multivector is zero"
    lam = a.coeffs[k] / b.coeffs[k]
    assert abs(lam) > 0.0, f"not proportional (zero factor)\n  {a}\n  {b}"
    assert_mv_close(a, b * lam, tol=tol)


# -- the scalar-product certificate: reference copies and differential rows ------------------
#
# Before `algebra.scalar_product`, each caller tested "is this product a scalar, and does it
# vanish?" itself, with its own scale. These are those checks as they were; the differential
# tests hold the one certificate to them.


def reference_product(a, b, what):
    """a * b, refused with a DomainError naming `what` if a coefficient overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = a * b
    if not np.isfinite(out.coeffs).all():
        raise DomainError(f"{what} overflows; the largest coefficient is {max(a.max_abs(), b.max_abs())!r}")
    return out


def reference_make_versor(mv):
    parity = mv.parity()
    if parity is None:
        raise NotVersorError("zero multivector is not a versor")
    if parity == "mixed":
        raise MixedParityError("versor must be purely even or purely odd")
    m = reference_product(mv, ~mv, "v * ~v")
    s = m.scalar_part()
    off = m - m.grade(0)
    if not off.is_zero(scale=max(abs(s), mv.max_abs() ** 2)):
        raise NotVersorError("v * ~v is not scalar")
    if abs(s) <= tolerance.threshold(mv.max_abs() ** 2):
        if is_point(mv):  # only a conformal point is the null point mirror
            return Versor(mv, parity, 0.0, None)
        raise SingularVersorError("v * ~v vanishes; versor is not invertible")
    return Versor(mv, parity, s, ~mv / s)


def reference_versor_inverse(v):
    """The deleted `algebra.versor_inverse`, which did not check parity."""
    m = reference_product(v, ~v, "v * ~v")
    s = m.scalar_part()
    off = m - m.grade(0)
    if not off.is_zero(scale=max(abs(s), m.max_abs())):
        raise NotVersorError("v * ~v is not a scalar; no versor inverse")
    if abs(s) <= tolerance.threshold(v.max_abs() ** 2):
        raise SingularVersorError("versor norm vanishes; no inverse")
    return ~v / s


def reference_vector_inverse(a):
    """The deleted `vector_inverse`; its NullVectorError is now make_versor's SingularVersorError."""
    gs = a.grades()
    if gs and gs != frozenset({1}):
        raise GradeError(f"vector_inverse needs a grade-1 vector, got grades {sorted(gs)}")
    sq = reference_product(a, a, "a * a").scalar_part()
    if abs(sq) <= tolerance.threshold(a.max_abs() ** 2):
        raise SingularVersorError("vector has (near-)zero square and no inverse")
    return a / sq


def reference_exp_special(b):
    gs = b.grades()
    if gs and gs != frozenset({2}):
        raise NotExponentiableError(f"exp_special needs a grade-2 argument, got grades {sorted(gs)}")
    sq = reference_product(b, b, "the square of exp's argument")
    s = sq.scalar_part()
    scale = b.max_abs() ** 2
    if not (sq - sq.grade(0)).is_zero(scale=max(abs(s), scale)):
        raise NotExponentiableError("argument squares to a non-scalar; no closed-form branch")
    one = b.alg.scalar(1.0)
    if abs(s) <= tolerance.threshold(scale):
        return one + b
    alpha = math.sqrt(abs(s))
    if s < 0:
        return b.alg.scalar(math.cos(alpha)) + b * (math.sin(alpha) / alpha)
    return b.alg.scalar(math.cosh(alpha)) + b * (math.sinh(alpha) / alpha)


def reference_rotor(i, theta):
    if i.grades() != frozenset({2}):
        raise GradeError("rotation plane must be a bivector")
    sq = reference_product(i, i, "the square of the rotation plane")
    s = sq.scalar_part()
    if not (sq - sq.grade(0)).is_zero(scale=i.max_abs() ** 2) or s >= 0:
        raise DomainError("rotation plane must square to a negative scalar")
    unit = i / math.sqrt(-s)
    return reference_make_versor(reference_exp_special((0.5 * theta) * unit))


def outcome(call, *args):
    """("raises", class name, message) or ("gives", bytes of the result) of call(*args)."""
    try:
        got = call(*args)
    except (GAError, ArithmeticError, RuntimeWarning) as exc:
        return "raises", type(exc).__name__, str(exc)
    if isinstance(got, Versor):
        inv = None if got.inv is None else got.inv.coeffs.tobytes()
        return "gives", got.parity, repr(got.norm2), got.mv.coeffs.tobytes(), inv
    return "gives", got.coeffs.tobytes()


@functools.lru_cache(maxsize=None)
def certificate_rows() -> tuple:
    """Seeded Cl(4,1) rows for the differential tests: translators, motors, sphere and plane
    mirrors at offsets up to 1e5, most perturbed on one blade by 1e-16 to 1e-3 of their largest
    coefficient; random pure-grade and pure-parity rows (dense or sparse) at weights 1e-160 to
    1e160; one- and two-blade bivectors at weights 1e-8 to 1e3; rows whose products overflow."""
    from confga.conformal import ALG, einf, embed_point, euclid_bivector, euclid_vector

    rng = np.random.default_rng(14)

    def unit():
        d = rng.normal(size=3)
        return d / np.linalg.norm(d)

    rows = []
    for k in range(320):
        t = 10 ** rng.uniform(-2, 5) * unit()
        half = rng.uniform(-1.5, 1.5)
        shift = ALG.scalar(1.0) + 0.5 * (euclid_vector(t) ^ einf)
        c = (
            shift,
            shift * (ALG.scalar(math.cos(half)) + math.sin(half) * euclid_bivector(unit())),
            embed_point(t) - 0.5 * 10 ** rng.uniform(-4, 6) * einf,
            euclid_vector(unit()) + 10 ** rng.uniform(-2, 5) * einf,
        )[k % 4].coeffs.copy()
        if k % 5:
            c[rng.integers(ALG.dim)] += rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-16, -3) * np.abs(c).max()
        rows.append(c)
    for k in range(480):
        keep = ALG.grades == k // 2 % 6 if k % 2 else ALG.grades % 2 == k // 2 % 2  # a grade, a parity
        if rng.random() < 0.5:
            keep &= rng.random(ALG.dim) < 0.2
        rows.append(np.where(keep, rng.uniform(-1, 1, ALG.dim), 0.0) * 10 ** rng.uniform(-160, 160))
    bivectors = np.flatnonzero(ALG.grades == 2)
    for _ in range(200):
        c = np.zeros(ALG.dim)
        picked = rng.choice(bivectors, size=rng.integers(1, 3), replace=False)
        c[picked] = rng.uniform(-1, 1, len(picked)) * 10 ** rng.uniform(-8, 3)
        rows.append(c)
    for k in range(60):
        rows.append(np.where(ALG.grades == k % 6, rng.uniform(-1, 1, ALG.dim), 0.0) * 10 ** rng.uniform(150, 170))
    return tuple(rows)
