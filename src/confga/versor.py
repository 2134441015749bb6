"""Reflection and motion versors for the conformal model.

A versor v of parity p acts on X by the twisted adjoint

    X  ->  v^-1 alpha^p(X) v

with alpha the grade involution, so a unit plane mirror sends a vector x
to -n x n as expected.  Odd versors are mirrors (plane, sphere, point),
even versors are motions (rotor, translator, motor, scalor) plus the
line mirror, which is the half-turn about the line and therefore even.
Composition is written in application order: compose([a, b]) applies a
first, and equals the product a.mv * b.mv.

The point mirror P(p) is a null vector with no inverse; it is kept as a
degenerate versor applied by the uninverted sandwich v alpha(X) v, which
collapses every point onto the mirror point. `make_versor` returns it for
a vanishing v that passes the point rule (`conformal.is_point`) and refuses
any other v whose norm vanishes; `Versor.inverse` is the one versor inverse.

The paper-literal convention replaces alpha^p(X) by the global sign
(-1)^p; the two agree on odd-grade arguments and differ by an overall
(projectively invisible) sign on even ones.

Each closed form (the mirrors, rotor, translator, motor, scalor, and compose
of them) is one formula, written coefficient by coefficient, not a product of
other closed forms; only the motor T R and compose multiply. Its formula
states its norm <v ~v>_0: 1, r^2 for a sphere mirror, the product of its
factors' norms for compose. It is built with that norm and no numeric re-check
of it, which would refuse exact versors far from the origin (`_closed_form`):
its algebra is exact, and only its action rounds. `make_versor` is for
multivectors a user writes: it accepts v when v ~v is a nonzero scalar, by the
algebra's one certificate (`algebra.scalar_product`).
Every numeric argument must be finite: a NaN or infinity is refused with a
DomainError that names it, before any arithmetic.

The action is one 32x32 matrix K = L(v^-1) R(v) with the convention
folded in (`_action_matrix`, shared with the neuron), so `apply` on an
(N, 32) array is one (N, 32) @ (32, 32) product; a multivector is one row.
A versor's action preserves grade (a point stays a point, a circle a
circle), so the exact K is block diagonal by grade; the computed K holds
rounding in its cross-grade entries, which would land in every grade the
input does not have. `apply` keeps only K's grade-diagonal blocks
(`_SAME_GRADE`), and every coefficient it keeps is the float the full K
gives. The neuron keeps the full K: a weight in training is not a versor,
and its gradient needs the cross-grade terms. `apply` checks every versor's range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tolerance
from .algebra import Multivector, exp_special, scalar_product
from .conformal import (
    _COL,
    _LINEAR,
    ALG,
    NULL_FROM_PM,
    ConformalObject,
    as_real,
    as_vec3,
    classify,
    embed_point,
    is_point,
    plane_vector,
    sphere_vector,
)
from .errors import (
    DomainError,
    GradeError,
    MixedParityError,
    NotVersorError,
    ParityModeError,
    RowRoundingError,
    SingularVersorError,
)

MODES = ("motion", "reflection")
CONVENTIONS = ("twisted-adjoint", "paper-literal")


@dataclass(frozen=True)
class Versor:
    """A validated versor: the multivector, its parity, <v ~v>_0, and the
    precomputed inverse (None for the degenerate null point mirror)."""

    mv: Multivector
    parity: str
    norm2: float
    inv: Multivector | None

    @property
    def is_null(self) -> bool:
        return self.inv is None

    def inverse(self) -> Multivector:
        if self.inv is None:
            raise SingularVersorError("degenerate (null) versor has no inverse")
        return self.inv

    def __repr__(self) -> str:
        tag = "null " if self.is_null else ""
        return f"<{tag}{self.parity} versor {self.mv!r}>"


def make_versor(mv: Multivector) -> Versor:
    """The versor of a multivector a user writes: purely even or purely odd, with v ~v
    a scalar (`algebra.scalar_product`). A vanishing norm is taken only from a conformal
    point (`conformal.is_point`), as the null point mirror, which has no inverse."""
    parity = mv.parity()
    if parity is None:
        raise NotVersorError("zero multivector is not a versor")
    if parity == "mixed":
        raise MixedParityError("versor must be purely even or purely odd")
    s, vanishes = scalar_product(mv, ~mv, "v * ~v")
    if s is None:
        raise NotVersorError("v * ~v is not scalar")
    if vanishes:
        if is_point(mv):
            return Versor(mv, parity, 0.0, None)
        raise SingularVersorError("v * ~v vanishes; versor is not invertible")
    return Versor(mv, parity, s, ~mv / s)


def _closed_form(formula: Callable[[], Multivector], parity: str, norm2: float) -> Versor:
    """A closed form's versor: the multivector formula() and the norm <v ~v>_0 its formula states. The
    formula and ~v / norm2 are formed quietly, under one np.errstate; refused only where that norm is 0
    or the norm, the formula or ~v / norm2 is not finite."""
    with np.errstate(all="ignore"):
        mv = formula()
        inv = ~mv / norm2
    if not (norm2 != 0.0 and math.isfinite(norm2) and np.isfinite(inv.coeffs).all()):
        raise DomainError(f"versor has no finite inverse: <v ~v>_0 = {norm2!r} and largest coefficient {mv.max_abs()!r}")
    return Versor(mv, parity, norm2, inv)


_TRANSLATION = [ALG.blade_bits(f"e{i}{sign}") for i in "123" for sign in "+-"]  # e1+, e1-, e2+, ...: x ^ einf
_HALF_TURN = [ALG.blade_bits(name) for name in ("e23", "e13", "e12")]  # d | I3 = d1 e23 - d2 e13 + d3 e12
_E = ALG.blade_bits("e+-")  # E = einf ^ e0 = e+ ^ e-


def _written(*parts) -> Multivector:
    """A closed form's coefficients: the values of each (blades, values) in parts, zero elsewhere."""
    coeffs = np.zeros(ALG.dim)
    for blades, values in parts:
        coeffs[blades] = values
    return Multivector(ALG, coeffs, copy=False)


# -- mirrors ------------------------------------------------------------------


def reflector_plane(n, d: float) -> Versor:
    """Mirror in the plane {x : unit(n) . x = d}: the plane vector mu, mu^2 = 1."""
    return _closed_form(lambda: plane_vector(n, d), "odd", 1.0)


def reflector_sphere(center, r: float) -> Versor:
    """Inversion in the sphere: the sphere vector sigma, sigma^2 = r^2 > 0."""
    return _closed_form(lambda: sphere_vector(center, r), "odd", float(r) * float(r))


def reflector_point(p) -> Versor:
    """Degenerate mirror: P(p) is null, acts as the constant map onto p."""
    return make_versor(embed_point(p))


def reflector_line(line) -> Versor:
    """Half-turn about a line: even, equal to two perpendicular plane mirrors. From the unit
    direction d and moment m = d ^ p that `classify` reads off the line, it is the bivector
    d | I3 + (I3 m) ^ einf, the plane normal to d carried along the line's offset: T(-p) (d | I3) T(p)
    for any point p on the line. Each coefficient is +-d_i or +-m_jk, so nothing rounds."""
    obj = line if isinstance(line, ConformalObject) else classify(line)
    if obj.kind != "line":
        raise DomainError(f"line mirror needs a line, got {obj.kind}")
    (d1, d2, d3), (m12, m13, m23) = obj.params["direction"], obj.params["moment"]
    return _closed_form(lambda: _written((_HALF_TURN, (d1, -d2, d3)), (_TRANSLATION, np.repeat([-m23, m13, -m12], 2))), "even", 1.0)


# -- motions ------------------------------------------------------------------


def _rotation(i: Multivector, theta: float) -> Multivector:
    """The rotor formula exp(theta/2 i/|i|), after the checks of its arguments."""
    theta = as_real(theta, "rotation angle")
    if i.grades() != frozenset({2}):
        raise GradeError("rotation plane must be a bivector")
    s, _ = scalar_product(i, i, "the square of the rotation plane")  # a tiny plane is still a plane
    if s is None or s >= 0:
        raise DomainError("rotation plane must square to a negative scalar")
    return exp_special((0.5 * theta) * (i / math.sqrt(-s)))


def rotor(i: Multivector, theta: float) -> Versor:
    """Rotation by theta in the (normalized) plane i; x' = R^-1 x R takes e1 to e2 for i = e12, theta = pi/2."""
    return _closed_form(lambda: _rotation(i, theta), "even", 1.0)


def _translation(t) -> Multivector:
    """The translator formula 1 + (1/2) t einf: 1 on the scalar, t_i / 2 on e_i+ and e_i-."""
    return _written((0, 1.0), (_TRANSLATION, np.repeat(0.5 * as_vec3(t, "translation"), 2)))


def translator(t) -> Versor:
    """T = 1 + (1/2) t einf; the action T^-1 X T translates by +t."""
    return _closed_form(lambda: _translation(t), "even", 1.0)


def motor(i: Multivector, theta: float, t) -> Versor:
    """Translate by t, then rotate: T R of the two formulas, as compose([translator(t), rotor(i, theta)])
    gives it. No coefficient of T R passes |t| / 2, so it cannot overflow."""
    return _closed_form(lambda: _translation(t) * _rotation(i, theta), "even", 1.0)


def scalor(s: float, center=(0.0, 0.0, 0.0)) -> Versor:
    """Uniform scaling by s > 0 about a center c: exp(lam (E - c ^ einf)) with lam = ln(s) / 2, which is
    cosh lam + sinh lam (E - c ^ einf), one rounding per coefficient. It equals T(-c) exp(lam E) T(c),
    the scalor about the origin conjugated by the translator that moves the center there."""
    s = as_real(s, "scale factor")
    if s <= 0:
        raise DomainError(f"scale factor must be positive, got {s}")
    c = as_vec3(center, "scale center")
    lam = 0.5 * math.log(s)
    cosh, sinh = math.cosh(lam), math.sinh(lam)
    return _closed_form(lambda: _written(([0, _E], (cosh, sinh)), (_TRANSLATION, np.repeat(-(sinh * c), 2))), "even", 1.0)


# -- action -------------------------------------------------------------------


def _action_matrix(K: np.ndarray, parity: str, convention: str) -> np.ndarray:
    """The 32x32 matrix of X -> l * alpha^p(X) * r, given the product K = L(l) R(r) of the
    multiplication matrices, or L(l) or R(r) alone where the other factor is 1. For an even
    parity it is K itself, not a copy.

    This is the one place the convention is decided: twisted-adjoint folds
    the grade involution of odd versors into K's columns, paper-literal
    folds in the global sign (-1)^p."""
    if parity == "even":
        return K
    return K * ALG.involute_signs if convention == "twisted-adjoint" else -K


_SAME_GRADE = ALG.grades[:, None] == ALG.grades[None, :]  # K's grade-diagonal blocks
_LOCATION = NULL_FROM_PM[[0b00001, 0b00010, 0b00100, 0b01000]]  # a vector's e1, e2, e3 and e0 weight
_CARRIER = _LINEAR[:, _COL["carrier"]]  # X -> einf | X, the weight part: a point's weight, a round's carrier, a flat's direction
_CARRIER = np.ascontiguousarray(_CARRIER[:, _CARRIER.any(axis=0)].T)  # as (k, 32), its nonzero outputs only
# the rounding of C K x per unit of (|C| |K|) |x|: 32 terms in each of L R and K x, and C's at most 2
_WEIGHT_ROUNDING = (2 * ALG.dim + int(np.count_nonzero(_CARRIER, axis=1).max())) * 2.0**-53


def _check_range(v: Versor, absK: np.ndarray, L: np.ndarray, R: np.ndarray) -> None:
    """Refuse v, from L = L(v^-1), R = R(v) and absK = |L| |R|, if its action on points near the origin is
    all rounding or overflows. An image coefficient K x is off by at most about 64 u times the sum of its
    terms' sizes (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3), and x sums to under 16
    within 3 of the origin: so the location is off by 1024 u times terms / image over K's location and
    weight rows, at most. Where that is 1 or more (or NaN), as at |c| ~ 3e6, a DomainError names it."""
    with np.errstate(all="ignore"):
        terms, image = np.abs(_LOCATION) @ absK, np.abs(_LOCATION @ L @ R)  # K = L R's location rows, in the bound's own order
        bound = tolerance.RESOLUTION * float(np.maximum(terms[:3].max() / image[:3].max(), terms[3].max() / image[3].max()))
    if not bound < 1.0:  # NaN too
        raise DomainError(f"versor's action on points is all rounding or overflows: error bound {bound:.3g} from <v ~v>_0 = {v.norm2!r} and largest coefficient {v.mv.max_abs()!r}")


def _check_weights(rows: np.ndarray, images: np.ndarray, absK: np.ndarray, named: bool) -> None:
    """Refuse the first row whose image's weight part C x = einf | image is above the image's
    zero threshold and within its rounding bound, (64 + 2) u (|C| |K|) |x| as the products are
    nested (Higham, ch. 3): any location read from it is rounding. `_check_range` bounds
    points near the origin; a point at distance |p| scales the rounding by about |p|^2, as
    does a far sphere mirror's image of a point near its sphere. A RowRoundingError names the
    row where named. Both sides are (k, N) arrays, whose maxima over k are cheap."""
    with np.errstate(all="ignore"):
        weight = _CARRIER @ images.T
        weight = np.maximum.reduce(np.abs(weight, out=weight), axis=0)
        bound = np.maximum.reduce((_WEIGHT_ROUNDING * (np.abs(_CARRIER) @ absK)) @ np.abs(rows.T), axis=0)
    doubt = (weight <= bound).nonzero()[0]
    rounding = doubt[weight[doubt] > tolerance.threshold(np.maximum.reduce(np.abs(images[doubt]), axis=1))]
    if rounding.size:
        r = int(rounding[0])
        reason = f"weight {weight[r]:.3g} within its error bound {bound[r]:.3g}"
        raise RowRoundingError(r, reason) if named else DomainError(f"versor's action is all rounding: {reason}")


def apply(v: Versor, X, mode: str, convention: str = "twisted-adjoint"):
    """Act on a multivector, a classified object, or an (N, dim) array of
    rows (an array back) by one matrix product, a multivector as one row;
    'motion' demands an even versor and 'reflection' an odd one. A batch row
    equals that row applied alone only to rounding (gemm vs gemv).

    The product is with K's grade-diagonal blocks only, so each grade of X
    maps into the same grade and nothing else: the cross-grade entries of the
    computed K are rounding, within 64 u (|L| |R|) for L = L(v^-1) and
    R = R(v) of v's own coefficients (the bound of `_check_range`), and
    np.where rather than a mask multiply sends an overflowed one to 0, not
    NaN. A v that `make_versor` accepts only within the tolerance (v ~v a
    scalar up to rel) acts by the grade-preserving part of its sandwich. An
    invertible v's range is checked from the same L and R (`_check_range`),
    and a row whose image's weight is rounding is refused (`_check_weights`),
    by a RowRoundingError naming its index for an array; the null point
    mirror takes neither."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    want = "even" if mode == "motion" else "odd"
    if v.parity != want:
        raise ParityModeError(f"{mode} mode needs an {want} versor, got {v.parity}")
    mv = X.mv if isinstance(X, ConformalObject) else X
    if isinstance(mv, Multivector):
        v.mv._check_same(mv)
    elif not isinstance(X, np.ndarray):
        raise TypeError(f"apply takes a Multivector, a ConformalObject or an (N, dim) array, not {type(X).__name__}")
    left = v.mv if v.inv is None else v.inv  # the null point mirror acts by v alpha(X) v, unchecked
    L, R = ALG.left_matrix(left.coeffs), ALG.right_matrix(v.mv.coeffs)
    if v.inv is not None:
        with np.errstate(all="ignore"):  # an overflow is the range check's to refuse
            absK = np.abs(L) @ np.abs(R)
        _check_range(v, absK, L, R)
    K = np.where(_SAME_GRADE, _action_matrix(L @ R, v.parity, convention), 0.0)
    rows = X if isinstance(X, np.ndarray) else mv.coeffs[None, :]
    images = rows @ K.T
    if v.inv is not None:
        _check_weights(rows, images, absK, named=isinstance(X, np.ndarray))
    if isinstance(X, np.ndarray):
        return images
    out = Multivector(ALG, images[0], copy=False)
    return classify(out) if isinstance(X, ConformalObject) else out


def compose(versors: Sequence[Versor]) -> Versor:
    """Product in application order: compose([a, b]) acts as a then b, and its
    .mv is a.mv * b.mv, left to right (1 for no factors). Its norm is the
    product of the factors' norms, since (ab)~(ab) = a (b ~b) ~a."""
    if any(v.is_null for v in versors):
        raise SingularVersorError("cannot compose a degenerate point mirror")
    parity = "odd" if sum(v.parity == "odd" for v in versors) % 2 else "even"
    factors = [v.mv for v in versors] or [ALG.scalar(1.0)]
    return _closed_form(lambda: math.prod(factors[1:], start=factors[0]), parity, math.prod(v.norm2 for v in versors))
