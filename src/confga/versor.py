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
collapses every point onto the mirror point. `make_versor(v, allow_null=True)`
returns it only for a v that passes the point rule (`conformal.is_point`);
any other v whose norm vanishes is refused, as without allow_null.

The paper-literal convention replaces alpha^p(X) by the global sign
(-1)^p; the two agree on odd-grade arguments and differ by an overall
(projectively invisible) sign on even ones.

`make_versor` accepts v when v ~v is a nonzero scalar, by the algebra's one
certificate (`algebra.scalar_product`), which `versor_inverse`, `exp_special`
and `rotor` share. The plane and sphere mirrors certify the vectors that
`conformal.plane_vector` and `conformal.sphere_vector` build. Every numeric
argument must be finite: a NaN or infinity is refused with a DomainError that
names it, before any arithmetic.

The action is one 32x32 matrix K = L(v^-1) R(v) with the convention
folded in (`_action_matrix`, shared with the neuron), so `apply` on an
(N, 32) array is one (N, 32) @ (32, 32) product; a multivector is one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Multivector, exp_special, scalar_product
from .conformal import (
    ALG,
    E,
    I3,
    ConformalObject,
    as_real,
    as_vec3,
    classify,
    embed_point,
    euclid_bivector,
    euclid_vector,
    einf,
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


def make_versor(mv: Multivector, allow_null: bool = False) -> Versor:
    parity = mv.parity()
    if parity is None:
        raise NotVersorError("zero multivector is not a versor")
    if parity == "mixed":
        raise MixedParityError("versor must be purely even or purely odd")
    s, vanishes = scalar_product(mv, ~mv, "v * ~v")
    if s is None:
        raise NotVersorError("v * ~v is not scalar")
    if vanishes:
        if allow_null and is_point(mv):
            return Versor(mv, parity, 0.0, None)
        raise SingularVersorError("v * ~v vanishes; versor is not invertible")
    return Versor(mv, parity, s, ~mv / s)


# -- mirrors ------------------------------------------------------------------


def reflector_plane(n, d: float) -> Versor:
    """Mirror in the plane {x : unit(n) . x = d}: the plane vector mu, mu^2 = 1."""
    return make_versor(plane_vector(n, d))


def reflector_sphere(center, r: float) -> Versor:
    """Inversion in the sphere: the sphere vector sigma, sigma^2 = r^2, r > 0."""
    if r == 0:
        raise DomainError(f"sphere mirror needs r > 0, got {r}")
    return make_versor(sphere_vector(center, r))


def reflector_point(p) -> Versor:
    """Degenerate mirror: P(p) is null, acts as the constant map onto p."""
    return make_versor(embed_point(p), allow_null=True)


def reflector_line(line) -> Versor:
    """Half-turn about a line: even, equal to two perpendicular plane mirrors."""
    obj = line if isinstance(line, ConformalObject) else classify(line)
    if obj.kind != "line":
        raise DomainError(f"line mirror needs a line, got {obj.kind}")
    d = euclid_vector(obj.params["direction"])
    foot = d | euclid_bivector(obj.params["moment"])
    p0 = np.array([foot.coeff(0b001), foot.coeff(0b010), foot.coeff(0b100)])
    plane = d | I3  # unit bivector orthogonal to the line direction
    mv = translator(-p0).mv * plane * translator(p0).mv
    return make_versor(mv)


# -- motions ------------------------------------------------------------------


def rotor(i: Multivector, theta: float) -> Versor:
    """Rotation by theta in the (normalized) plane i; x' = R^-1 x R takes
    e1 to e2 for i = e12, theta = pi/2."""
    theta = as_real(theta, "rotation angle")
    if i.grades() != frozenset({2}):
        raise GradeError("rotation plane must be a bivector")
    s, _ = scalar_product(i, i, "the square of the rotation plane")  # a tiny plane is still a plane
    if s is None or s >= 0:
        raise DomainError("rotation plane must square to a negative scalar")
    unit = i / math.sqrt(-s)
    return make_versor(exp_special((0.5 * theta) * unit))


def translator(t) -> Versor:
    """T = 1 + (1/2) t einf; the action T^-1 X T translates by +t."""
    tv = euclid_vector(as_vec3(t, "translation"))
    return make_versor(ALG.scalar(1.0) + 0.5 * (tv ^ einf))


def motor(i: Multivector, theta: float, t) -> Versor:
    """Translate by t, then rotate: the product translator(t).mv * rotor.mv."""
    return compose([translator(t), rotor(i, theta)])


def scalor(s: float, center=(0.0, 0.0, 0.0)) -> Versor:
    """Uniform scaling by s > 0 about a center; exp(E ln(s)/2) conjugated
    by the translator that moves the center to the origin."""
    s = as_real(s, "scale factor")
    if s <= 0:
        raise DomainError(f"scale factor must be positive, got {s}")
    core = exp_special((0.5 * math.log(s)) * E)
    c = as_vec3(center, "scale center")
    if np.all(c == 0.0):
        return make_versor(core)
    return make_versor(translator(-c).mv * core * translator(c).mv)


# -- action -------------------------------------------------------------------


def _action_matrix(
    left: np.ndarray | None, right: np.ndarray | None, parity: str, convention: str
) -> np.ndarray:
    """The 32x32 matrix K with coeffs(l * alpha^p(X) * r) = K @ x, given the
    multiplication matrices left = L(l) and right = R(r); a unit factor
    (l = 1 or r = 1) is passed as None and costs no product. For an even
    parity and one factor None, K is the other matrix itself, not a copy.

    This is the one place the convention is decided: twisted-adjoint folds
    the grade involution of odd versors into K's columns, paper-literal
    folds in the global sign (-1)^p."""
    K = right if left is None else left if right is None else left @ right
    if parity == "even":
        return K
    return K * ALG.involute_signs if convention == "twisted-adjoint" else -K


def apply(v: Versor, X, mode: str, convention: str = "twisted-adjoint"):
    """Act on a multivector, a classified object, or an (N, dim) array of
    rows (an array back) by one matrix product, a multivector as one row;
    'motion' demands an even versor and 'reflection' an odd one. A batch row
    equals that row applied alone only to rounding (gemm vs gemv)."""
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
    left = v.mv if v.inv is None else v.inv  # the null point mirror acts by v alpha(X) v
    K = _action_matrix(ALG.left_matrix(left.coeffs), ALG.right_matrix(v.mv.coeffs), v.parity, convention)
    if isinstance(X, np.ndarray):
        return X @ K.T
    out = Multivector(ALG, (mv.coeffs[None, :] @ K.T)[0], copy=False)
    return classify(out) if isinstance(X, ConformalObject) else out


def compose(versors: Sequence[Versor]) -> Versor:
    """Product in application order: compose([a, b]) acts as a then b."""
    acc = ALG.scalar(1.0)
    for v in versors:
        if v.is_null:
            raise SingularVersorError("cannot compose a degenerate point mirror")
        acc = acc * v.mv
    return make_versor(acc)
