"""The conformal model of Euclidean 3-space inside Cl(4,1).

A Euclidean point p embeds as the null vector

    P = p + (1/2) p^2 einf + e0,       P^2 = 0,
    P1 . P2 = -(1/2) |p1 - p2|^2,

where the two null directions are carried by the internal orthonormal basis:
e0 = (e- - e+)/2 and einf = e- + e+, with E = einf ^ e0 = e+ ^ e-.  Geometric
objects are blades: outer products of points (point pair, circle, sphere),
flats obtained by wedging with einf (line, plane, flat point), the whole
space as the pseudoscalar, and grade-1 inner-product-null-space spheres
sigma = P(center) - (1/2) r^2 einf with sigma^2 = r^2.

`embed_points` embeds an (N, 3) array and `embed_point` is its one-row case.
Each construction formula has one builder, which returns the blade:
`wedge_points` for the blades through construction points, `sphere_vector` for
sigma and `plane_vector` for the IPNS plane. The make_* constructors and
`sphere_ipns` classify what it returns, the versor module's mirrors take it
with the norm its formula states, and the expression language returns it as
built. "A conformal point at some weight" has one rule, `_locations`: `is_point`,
the wedge builder, the null point mirror, `extract_point`, `point_distance` and
round centres and endpoints all read it. A builder's numbers must be finite.
Classification runs one plan, built once at import, on rows at unit scale:
each times the power of two that puts its max|A| in [0.5, 1), which is exact,
so no weight changes an answer. The plan: the linear maps the tree reads of a
blade A (the e0 weight and A ^ einf: is it flat?; einf | A; A einf; null-basis
coefficients of A and of A I5^-1 for planes, flat points, lines and a circle's
normal) stacked into one (32, k) matrix, one matmul per block of 2048 rows;
the row-wise product kernel for grades 0 and 4 of A ~A (is A a
blade? a k-vector's A ~A has no other grades) with <A A>_0, then for
<(einf | A)^2>_0 and the center <A einf A>_1 of rounds; grade masks; and
`_LIMIT`, every tolerance decision, applied to a block's residuals as arrays.
The decisions are masks that route rows to the tree's branches; each row keeps
the first error it meets in tree order, and only its object and parameter
tuples are built per row. `classify_batch` returns each row's object or error,
`classify` and `round_params` run it on one row and raise the error.
A row's result does not depend on the other rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerance
from .algebra import Multivector, algebra, row_product
from .errors import (
    DegenerateError,
    DomainError,
    FlatObjectError,
    GAError,
    MetricError,
    NotABladeError,
    NotAPointError,
    PointAtInfinityError,
    UnknownObjectError,
)

ALG = algebra(4, 1)

e1 = ALG.basis_vector(0)
e2 = ALG.basis_vector(1)
e3 = ALG.basis_vector(2)
e_plus = ALG.basis_vector(3)
e_minus = ALG.basis_vector(4)

e0 = 0.5 * (e_minus - e_plus)
einf = e_minus + e_plus
E = einf ^ e0
I3 = e1 ^ e2 ^ e3
I5 = ALG.pseudoscalar()

# The null basis (e1, e2, e3, e0, einf) sits on bits 0..4. e1, e2, e3 are bits 0..2 in both bases and come
# first in every blade, so blade 8 hi + lo changes basis by hi alone: a 4x4 block, columns (1, e0, einf,
# e0 ^ einf) over rows (1, e+, e-, e+-), times the identity. The inverse block reads e+ = einf/2 - e0,
# e- = einf/2 + e0 and e+- = -e0 ^ einf; every entry is 0, +-1/2 or +-1, so it is exact (+ 0.0 clears -1 * 0).
_PM_BLOCK = np.array([mv.coeffs[::8] for mv in (ALG.scalar(1.0), e0, einf, e0 ^ einf)]).T
_NULL_BLOCK = np.array([[1, 0, 0, 0], [0, -1, 1, 0], [0, 0.5, 0.5, 0], [0, 0, 0, -1]], dtype=float)
PM_FROM_NULL = np.kron(_PM_BLOCK, np.eye(8)) + 0.0
NULL_FROM_PM = np.kron(_NULL_BLOCK, np.eye(8)) + 0.0


def to_null_coeffs(mv: Multivector) -> np.ndarray:
    """Coefficients over blades of (e1, e2, e3, e0, einf), bits in that order."""
    return NULL_FROM_PM @ mv.coeffs


def from_null_coeffs(coeffs) -> Multivector:
    return ALG.mv(PM_FROM_NULL @ np.asarray(coeffs, dtype=float))


def as_vec3(p, name: str = "vector") -> np.ndarray:
    """p as a float array of shape (3,); a NaN or infinite coordinate is
    refused with a DomainError that names the argument."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (3,):
        raise ValueError("expected a 3-component Euclidean vector")
    return _finite_coordinates(arr, name)


def _finite_coordinates(arr: np.ndarray, name: str) -> np.ndarray:
    """arr, unless a coordinate is NaN or infinite: that is refused with a
    DomainError that names the argument."""
    bad = ~np.isfinite(arr)
    if bad.any():
        raise DomainError(f"{name} coordinate {float(arr[bad][0])!r} is not finite")
    return arr


def as_real(x, name: str) -> float:
    """x as a float; NaN or infinity is refused with a DomainError that names the argument."""
    value = float(x)
    if not math.isfinite(value):
        raise DomainError(f"{name} {value!r} is not finite")
    return value


_EUCLID = [0b00001, 0b00010, 0b00100]  # e1, e2, e3: the same coefficient in both bases


def euclid_vector(p, name: str = "vector") -> Multivector:
    """p0 e1 + p1 e2 + p2 e3, its three coefficients written into zeros."""
    coeffs = np.zeros(ALG.dim)
    coeffs[_EUCLID] = as_vec3(p, name)
    return Multivector(ALG, coeffs, copy=False)


def euclid_bivector(m) -> Multivector:
    """Euclidean bivector from components (m12, m13, m23)."""
    m12, m13, m23 = (float(v) for v in m)
    return m12 * (e1 ^ e2) + m13 * (e1 ^ e3) + m23 * (e2 ^ e3)


@dataclass(frozen=True)
class ConformalObject:
    """A classified blade: kind tag, the blade itself, and extracted params."""

    kind: str
    mv: Multivector
    params: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"<{self.kind} {inner}>"


# -- points -------------------------------------------------------------------

_PLUS, _MINUS = 0b01000, 0b10000


def _sq_norms(V: np.ndarray) -> np.ndarray:
    """v @ v for each row v. The stacked matmul takes the same dot product
    per row as `v @ v` alone, so a row's value does not depend on the rows
    around it and matches the single-vector form bit for bit."""
    return np.matmul(V[:, None, :], V[:, :, None])[:, 0, 0]


def embed_points(points) -> np.ndarray:
    """Coefficient rows P = p + (1/2) p^2 einf + e0 for an (N, 3) array of
    Euclidean points. Non-finite coordinates and squared norms that
    overflow raise DomainError."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("expected an (N, 3) array of Euclidean points")
    return _embed(_finite_coordinates(pts, "point"))


def _embed(pts: np.ndarray) -> np.ndarray:
    """`embed_points` of an (N, 3) array whose coordinates are checked finite."""
    with np.errstate(over="ignore"):
        half = 0.5 * _sq_norms(pts)
    overflow = ~np.isfinite(half)
    if overflow.any():
        raise DomainError(f"|p|^2 of point {tuple(pts[overflow][0].tolist())} overflows")
    out = np.zeros((len(pts), ALG.dim))
    out[:, _EUCLID] = pts
    out[:, _PLUS] = half - 0.5
    out[:, _MINUS] = half + 0.5
    return out


def embed_point(p, name: str = "point") -> Multivector:
    """P = p + (1/2) p^2 einf + e0; the one-row case of `embed_points`, its
    coordinates checked once, by `as_vec3` under `name`."""
    return Multivector(ALG, _embed(as_vec3(p, name)[None, :])[0], copy=False)


def extract_point(P: Multivector) -> np.ndarray:
    """Euclidean location of a conformal point, any homogeneous scale, by the one point rule (`_locations`)."""
    if not np.isfinite(P.coeffs).all():
        raise _non_finite(P.coeffs)
    gs = P.grades()
    if gs != frozenset({1}):
        raise NotAPointError(f"not a grade-1 vector (grades {sorted(gs)})" if gs else "zero multivector is not a point")
    loc, errors = _locations(P.coeffs[None, _VECTOR])
    if errors:
        raise errors.pop(0)
    return loc[0]


def _non_finite(row: np.ndarray) -> DomainError:
    """The error for the first NaN or infinite coefficient of a row that has one."""
    k = int(np.argmax(~np.isfinite(row)))
    return DomainError(f"non-finite coefficient {float(row[k])!r} on {ALG.blade_names[k]}")


def point_distance(P1: Multivector, P2: Multivector) -> float:
    """sqrt(-2 <P1 P2>_0) for normalized conformal points; an argument that is no point (`is_point`) is refused."""
    for P in (P1, P2):
        if not np.isfinite(P.coeffs).all():
            raise _non_finite(P.coeffs)
    for k, ok in enumerate(_are_points([P1, P2]), 1):
        if not ok:
            raise NotAPointError(f"distance argument {k} of 2 is not a conformal point")
    inner = (P1 | P2).scalar_part()
    if inner > tolerance.threshold(P1.max_abs() * P2.max_abs()):
        raise MetricError(f"positive point inner product {inner}; not normalized points")
    return math.sqrt(max(0.0, -2.0 * inner))


# -- object constructors ------------------------------------------------------


def is_point(v: Multivector) -> bool:
    """Whether v is a conformal point at some weight: a Cl(4,1) vector, grade 1 its
    only grade above the coefficient threshold, that the one point rule (`_locations`)
    takes. A multivector of another algebra is no conformal point."""
    return _are_points([v])[0]


def _are_points(vs) -> list:
    """`is_point` of each multivector, in one pass of `_locations`; a row that is no
    Cl(4,1) vector goes in as zeros, which it refuses."""
    rows = [v.coeffs[list(_VECTOR)] if v.alg is ALG and v.grades() == {1} else np.zeros(len(_VECTOR)) for v in vs]
    errors = _locations(np.array(rows))[1]
    return [k not in errors for k in range(len(vs))]


def wedge_points(*points: Multivector, with_inf: bool = False) -> Multivector:
    """P1 ^ ... ^ Pk (^ einf if with_inf) of conformal points; refuses coincident points and a zero wedge."""
    for k, ok in enumerate(_are_points(points), 1):
        if not ok:
            raise NotAPointError(f"construction point {k} of {len(points)} is not a conformal point")
    sizes = [P.max_abs() for P in points]
    if len(points) > 1:  # Pi and Pj coincide when every |Pi - Pj| <= threshold(max(max|Pi|, max|Pj|))
        i, j = np.array(list(itertools.combinations(range(len(points)), 2))).T
        rows, m = np.array([P.coeffs for P in points]), np.array(sizes)
        limit = tolerance.threshold(np.maximum(m[i], m[j]))
        if (np.abs(rows[i] - rows[j]) <= limit[:, None]).all(axis=1).any():
            raise DegenerateError("coincident points")
    acc, scale = points[0], math.prod(sizes)
    for P in points[1:]:
        acc = acc ^ P
    if with_inf:
        acc = acc ^ einf
        scale = scale * 2.0
    if acc.is_zero(scale=scale):
        raise DegenerateError("wedge of construction points vanishes")
    return acc


def sphere_vector(center, r: float) -> Multivector:
    """sigma = P(center) - (1/2) r^2 einf, sigma^2 = r^2, for r >= 0 with r^2/2 finite; r = 0 gives P."""
    r = as_real(r, "sphere radius")
    if r < 0:
        raise DomainError(f"negative radius {r}")
    half_r2 = 0.5 * r * r
    if not math.isfinite(half_r2):
        raise DomainError(f"sphere radius {r!r} overflows: r^2/2 is not finite")
    return embed_point(center, "sphere center") - half_r2 * einf


def plane_vector(n, d: float) -> Multivector:
    """The IPNS plane unit(n) + d einf, the plane {x : unit(n) . x = d}; its square is 1. The normal
    is read at unit scale, n / 2^e with 2^e the power of two at max|n_i|, which is exact, so |n|^2
    neither overflows nor underflows."""
    arr = as_vec3(n, "plane normal")
    d = as_real(d, "plane distance")
    big = max(map(abs, arr.tolist()))
    if big == 0.0:
        raise DegenerateError("plane mirror needs a nonzero normal")
    arr = np.ldexp(arr, -math.frexp(big)[1])
    return euclid_vector(arr / float(np.linalg.norm(arr))) + d * einf


def make_point_pair(P1: Multivector, P2: Multivector) -> ConformalObject:
    return classify(wedge_points(P1, P2))


def make_circle(P1: Multivector, P2: Multivector, P3: Multivector) -> ConformalObject:
    return classify(wedge_points(P1, P2, P3))


def make_sphere_opns(P1, P2, P3, P4) -> ConformalObject:
    return classify(wedge_points(P1, P2, P3, P4))


def make_line(P1: Multivector, P2: Multivector) -> ConformalObject:
    return classify(wedge_points(P1, P2, with_inf=True))


def make_plane_opns(P1, P2, P3) -> ConformalObject:
    return classify(wedge_points(P1, P2, P3, with_inf=True))


def make_flat_point(P: Multivector) -> ConformalObject:
    return classify(wedge_points(P, with_inf=True))


def whole_space() -> ConformalObject:
    return ConformalObject("space", I5, {})


def sphere_ipns(center, r: float) -> ConformalObject:
    """The classified `sphere_vector`: a sphere, or the point at r = 0."""
    return classify(sphere_vector(center, r))


# -- classification -----------------------------------------------------------
# The plan of the module docstring. The matmul's entries are +-1 and +-1/2, at
# most two per column, so its sums are exact whatever the rows around them.

_BLOCK = 2048  # rows per pass; the gram's product temporary, 32 x 7 terms a row, is then 3.7 MB
_GRADE_ONE_HOT = np.eye(ALG.n + 1)[ALG.grades]
_VECTOR = tuple(np.flatnonzero(ALG.grades == 1).tolist())
_ONE = ALG.scalar(1.0).coeffs
# Sign fixing r^2 = sign * <A A>_0 / <(einf | A)^2>_0, by grade; verified
# against brute-force circumcenter/circumradius solves in the test suite.
_ROUND_SIGN = np.array([0.0, 1.0, 1.0, -1.0, 1.0, 0.0])

# the bilinear maps, as product tables for `row_product`
_XOR, _SIGNS = ALG.product_tables["gp"]
# A ~A of a k-vector is even and its own reverse, so grades 0 and 4 only; then <A A>_0
_GRAM_BLADES = np.flatnonzero((ALG.grades == 0) | (ALG.grades == 4))
_GRAM = (np.hstack([_XOR[:, _GRAM_BLADES], _XOR[:, :1]]),
         np.hstack([(_SIGNS * ALG.reverse_signs[_XOR])[:, _GRAM_BLADES], _SIGNS[:, :1]]))
_SCALAR_GP = (_XOR[:, :1], _SIGNS[:, :1])  # <a b>_0
_VECTOR_GP = (_XOR[:, _VECTOR], _SIGNS[:, _VECTOR])  # <a b>_1


# the linear maps; null-basis columns are coefficients on blades of (e1, e2, e3, e0, einf), bits in that order
_NULL = NULL_FROM_PM.T


def _stacked_maps() -> tuple[np.ndarray, dict]:
    """The plan's linear maps side by side in one (32, k) matrix, and each one's columns by name."""
    eye, einf_ = np.eye(ALG.dim), einf.coeffs  # row k of a map is its image of blade k
    wedge, dual = ALG.product("outer", eye, einf_), ALG.product("gp", eye, ALG.scalar(1.0).dual().coeffs)
    plane = _NULL[:, [0b00001, 0b00010, 0b00100, 0b10000]]  # n and d of the IPNS plane n + d einf
    maps = {
        "e0": _NULL[:, [0b01000]],  # a vector's e0 weight
        "wedge": wedge,
        "carrier": ALG.product("lcont", einf_, eye),
        "a_einf": ALG.product("gp", eye, einf_),  # for the center A einf A
        "circle_normal": (wedge @ dual)[:, _EUCLID],  # of (A ^ einf)*
        "ipns_plane": plane,
        "opns_plane": dual @ plane,  # the plane of A*
        "flat_point": _NULL[:, [0b11000, 0b10001, 0b10010, 0b10100]],  # weight, then location times weight
        "line": _NULL[:, [0b11001, 0b11010, 0b11100, 0b10011, 0b10101, 0b10110]],  # direction, moment
    }
    ends = np.cumsum([m.shape[1] for m in maps.values()]).tolist()
    return np.hstack(list(maps.values())), {name: slice(e - m.shape[1], e) for (name, m), e in zip(maps.items(), ends)}


_LINEAR, _COL = _stacked_maps()


def _tenfold(limit):
    with np.errstate(over="ignore"):  # 10 limit: inf past the float range, as the product gives, with no warning
        return limit * 10.0


# Every tolerance decision of the tree: the limit of its residual, from the rows' quantities as arrays.
_LIMIT = {
    "coefficient": lambda scale: tolerance.threshold(scale),  # counts toward its grade above this
    "blade": lambda scale, gram0: tolerance.threshold(np.maximum(abs(gram0), scale * scale)),  # the grade-4 part of A ~A within
    "e0": lambda scale: tolerance.threshold(scale),  # a vector whose e0 weight is within is flat
    "wedge": lambda scale: tolerance.threshold(2.0 * scale),  # grade 2..4 with A ^ einf within is flat
    "carrier": lambda scale: tolerance.threshold(scale * scale),  # a round with <(einf | A)^2>_0 within has none
    "radius": lambda center2: _tenfold(tolerance.threshold(1.0 + center2)),  # r^2 within: degenerate, a point
    "direction": lambda norm: tolerance.threshold(norm),  # the first component above fixes the sign
    "distance": lambda norm: _tenfold(tolerance.threshold(norm)),  # a plane with distance within holds the origin
    "infinity": lambda scale: tolerance.threshold(scale),  # a flat whose finite part is within is at infinity
    "normal": lambda scale: tolerance.threshold(scale),  # a circle's carrier plane has a normal above this
}


def _fail(errors: dict, mask: np.ndarray, error: type, message: str) -> None:
    """Give each row of mask that has no error yet this one. Checks run in tree
    order, so a row keeps the first check it fails."""
    for r in mask.nonzero()[0].tolist():
        if r not in errors:
            errors[r] = error(message)


def _clean(values: np.ndarray, by: np.ndarray | None = None) -> list:
    """Rows of values (/ by, a number per row, 0 for none) as tuples; +0.0 clears negative zeros."""
    if by is not None:
        values = values / np.where(by == 0.0, 1.0, by)[:, None]
    return [tuple(row) for row in (values + 0.0).tolist()]


class _Block:
    """A block of rows through the plan's first stage: the rows X at unit scale (any with a
    non-finite coefficient zeroed, then each times the power of two that puts max|A| in
    [0.5, 1)), the linear maps Y = X @ _LINEAR, per row that scale, <A A>_0, grade and
    flatness, and the errors of the rows that are no blade."""

    def __init__(self, X: np.ndarray):
        absX = np.abs(X)
        scale = np.maximum.reduce(absX, axis=1)
        self.errors = errors = {}
        if not np.isfinite(scale).all():  # a non-finite coefficient makes max|A| inf or nan
            bad = ~np.isfinite(X).all(axis=1)
            for r in bad.nonzero()[0].tolist():
                errors[r] = _non_finite(X[r])
            X = np.where(bad[:, None], 0.0, X)  # so that the steps below stay finite
            absX = np.abs(X)
            scale = np.maximum.reduce(absX, axis=1)
        has = (absX > _LIMIT["coefficient"](scale)[:, None]) @ _GRADE_ONE_HOT > 0
        # after the grades, so a row below 2^-511 stays zero: X 2^-e for max|A| = scale 2^e, exact, into |X|'s buffer
        scale, e = np.frexp(scale)
        X = np.ldexp(X, -e[:, None], out=absX)
        gram = row_product(X, X, _GRAM)
        self.X, self.Y, self.scale, self.top = X, X @ _LINEAR, scale, gram[:, -1]
        count, self.grade = np.add.reduce(has, axis=1), has.argmax(axis=1)
        _fail(errors, count == 0, UnknownObjectError, "zero multivector")
        for r in (count > 1).nonzero()[0].tolist():
            if r not in errors:
                errors[r] = NotABladeError(f"grade-inhomogeneous multivector (grades {has[r].nonzero()[0].tolist()})")
        off = np.maximum.reduce(np.abs(gram[:, 1:-1]), axis=1)
        _fail(errors, ~(off <= _LIMIT["blade"](scale, gram[:, 0])), NotABladeError, "mv * ~mv is not scalar; not a blade")
        # a vector is flat when its e0 weight vanishes, a blade of grade 2..4 when A ^ einf does
        e0 = np.abs(self.Y[:, _COL["e0"]][:, 0])
        wedge = np.maximum.reduce(np.abs(self.Y[:, _COL["wedge"]]), axis=1)
        g = self.grade
        self.flat = np.where(g == 1, e0 <= _LIMIT["e0"](scale), (2 <= g) & (g <= 4) & (wedge <= _LIMIT["wedge"](scale)))

    def routes(self):
        """Each branch of the tree that rows take, with those rows (ascending) that have no error."""
        route = _ROUTE[2 * self.grade + self.flat]
        route[list(self.errors)] = -1
        for k in set(route.tolist()) - {-1}:
            yield _BRANCH_LIST[k], (route == k).nonzero()[0]

    def rows(self, rows: np.ndarray) -> tuple:
        """X, Y, grade, scale and <A A>_0 of the rows (views if all)."""
        pick = slice(None) if len(rows) == len(self.X) else rows
        return self.X[pick], self.Y[pick], self.grade[pick], self.scale[pick], self.top[pick]


def _locations(P: np.ndarray) -> tuple[np.ndarray, dict]:
    """The one point rule: Euclidean locations of rows of grade-1 coefficients, any
    homogeneous scale, and the error of each row that is no conformal point. Each row is
    read at unit scale, as `_Block` reads it. A point is nonzero, its e0 weight w = e- - e+
    is above UNDERFLOW (so w^2 is a normal float), and its squared radius as a sphere,
    r^2 = (|a|^2 - w (e+ + e-)) / w^2 with a its Euclidean part, is within the `radius`
    limit at its centre a / w. This factored P^2 / w^2 rounds near u |a|^2: `embed_point`'s
    points pass out to |p| near 1e7 (past 1e8 the (e+, e-) basis loses w), weighted ones,
    whose e+ and e- round apart by u |p|^2, to near 1e4. A row with no weight takes the test
    with 1 for w: P^2 within the limit at |a|^2 is a point at infinity (einf), else no null
    vector (e1)."""
    big, e = np.frexp(np.maximum.reduce(np.abs(P), axis=1))
    P = np.ldexp(P, -e[:, None])
    a, plus, minus = P[:, :3], P[:, 3], P[:, 4]
    w = minus - plus
    finite = np.abs(w) > tolerance.UNDERFLOW
    w_or_1 = np.where(finite, w, 1.0)
    a2, errors = _sq_norms(a), {}
    _fail(errors, big == 0.0, NotAPointError, "zero multivector is not a point")
    r2, center2 = (a2 - w * (plus + minus)) / w_or_1 / w_or_1, a2 / w_or_1 / w_or_1
    _fail(errors, ~(np.abs(r2) <= _LIMIT["radius"](center2)), NotAPointError, "vector is not null; not a conformal point")
    _fail(errors, ~finite, PointAtInfinityError, "no finite location: e0 coefficient vanishes")
    return a / w_or_1[:, None], errors


_SIGN_LABELS = ("real", "imaginary", "degenerate")


def _rounds(X, Y, grade, scale, top):
    """Center, signed squared radius, its sign label and errors, for round blades:
    the center is the point A einf A, and r^2 = sign * <A A>_0 / <(einf | A)^2>_0."""
    carrier = Y[:, _COL["carrier"]]
    bottom = row_product(carrier, carrier, _SCALAR_GP)[:, 0]
    none = ~(np.abs(bottom) > _LIMIT["carrier"](scale))
    center, errors = _locations(row_product(Y[:, _COL["a_einf"]], X, _VECTOR_GP))
    for r in none.nonzero()[0].tolist():  # a round with no carrier reports that, not its centre's error
        errors[r] = DegenerateError("round has no finite carrier; cannot extract radius")
    r2 = _ROUND_SIGN[grade] * top / np.where(none, 1.0, bottom)
    degenerate = np.abs(r2) <= _LIMIT["radius"](_sq_norms(center))
    sign = np.where(degenerate, 2, np.where(r2 > 0, 0, 1))  # an index into _SIGN_LABELS
    return center, r2, sign, errors


def _pair_endpoints(X, Y, top) -> tuple[np.ndarray, np.ndarray, dict]:
    """Endpoints of real point pairs via the idempotent split (1 +- F)/2
    with F = A / sqrt(<A A>_0); the (1 - F) endpoint comes first."""
    F = X / np.sqrt(top)[:, None]
    halves = 0.5 * (_ONE + np.concatenate([-F, F]))  # (1 - F)/2 over (1 + F)/2
    n, carrier = len(X), Y[:, _COL["carrier"]]
    ends, errors = _locations(row_product(halves, np.concatenate([carrier, carrier]), _VECTOR_GP))
    # the first endpoint's error wins: it comes later in descending row order
    return ends[:n], ends[n:], {r % n: errors[r] for r in sorted(errors, reverse=True)}


def _directions(D: np.ndarray) -> np.ndarray:
    """Per row, the signed norm alpha that makes D / alpha a unit vector whose
    first clearly nonzero component is positive, or 0 if the row vanishes."""
    norms = np.sqrt(_sq_norms(D))
    clear = np.abs(D) > _LIMIT["direction"](norms)[:, None]
    first = np.where(clear.any(axis=1), D[np.arange(len(D)), clear.argmax(axis=1)], norms)
    return np.where(norms == 0.0, 0.0, np.where(first >= 0, norms, -norms))


def _plane_outcomes(plane: np.ndarray, form: str) -> list:
    """Planes n + d einf from rows (n, d): unit normal and distance, signed so
    that d > 0, or by the normal's first clear component when d vanishes."""
    alpha, d = _directions(plane[:, :3]), plane[:, 3]
    norm = np.abs(alpha)
    limit = _LIMIT["distance"](norm)
    alpha = np.where(alpha == 0.0, 0.0, np.where(d < -limit, -norm, np.where(np.abs(d) <= limit, alpha, norm)))
    return [
        ("plane", {"normal": p[:3], "distance": p[3], "form": form}) if a
        else DegenerateError("plane with zero normal")
        for a, p in zip(alpha.tolist(), _clean(plane, alpha))
    ]


def _ipns_planes(X, Y, grade, scale, top) -> list:
    """Flat vectors: IPNS planes, unless the normal vanishes too."""
    plane = Y[:, _COL["ipns_plane"]]
    infinite = np.maximum.reduce(np.abs(plane[:, :3]), axis=1) <= _LIMIT["infinity"](scale)
    return [
        UnknownObjectError("pure einf direction (point at infinity)") if i else o
        for i, o in zip(infinite.tolist(), _plane_outcomes(plane, "ipns"))
    ]


def _flat_points(X, Y, grade, scale, top) -> list:
    null = Y[:, _COL["flat_point"]]
    w = np.where(np.abs(null[:, 0]) <= _LIMIT["infinity"](scale), 0.0, null[:, 0])
    return [
        ("flat_point", {"location": p}) if a else UnknownObjectError("flat point at infinity")
        for a, p in zip(w.tolist(), _clean(null[:, 1:], w))
    ]


def _lines(X, Y, grade, scale, top) -> list:
    null = Y[:, _COL["line"]]
    alpha = _directions(null[:, :3])
    return [
        ("line", {"direction": p[:3], "moment": p[3:]}) if a else DegenerateError("vanishing direction")
        for a, p in zip(alpha.tolist(), _clean(null, alpha))
    ]


def _round_objects(X, Y, grade, scale, top) -> list:
    """Points and spheres (grade 1, IPNS), point pairs, circles and OPNS
    spheres: center and squared radius for all, then what each kind adds."""
    center, r2, sign, errors = _rounds(X, Y, grade, scale, top)
    labels = [_SIGN_LABELS[k] for k in sign.tolist()]
    params = [{"center": c, "radius2": v, "sign": k} for c, v, k in zip(_clean(center), (r2 + 0.0).tolist(), labels)]
    failed = np.zeros(len(X), dtype=bool)
    failed[list(errors)] = True
    pairs = ((grade == 2) & (sign == 0) & ~failed).nonzero()[0]
    if len(pairs):
        a, b, pair_errors = _pair_endpoints(X[pairs], Y[pairs], top[pairs])
        pairs = pairs.tolist()
        errors.update({pairs[i]: exc for i, exc in pair_errors.items()})
        for i, p, q in zip(pairs, _clean(a), _clean(b)):
            params[i]["points"] = (p, q)
    circles = (grade == 3).nonzero()[0]
    if len(circles):
        # the unit normal of the carrier plane (A ^ einf)*, when it has one; |alpha| is its norm
        normal_raw = Y[circles, _COL["circle_normal"]]
        alpha = _directions(normal_raw)
        alpha = np.where(np.abs(alpha) > _LIMIT["normal"](scale[circles]), alpha, 0.0)
        for i, a, n in zip(circles.tolist(), alpha.tolist(), _clean(normal_raw, alpha)):
            if a:
                params[i]["normal"] = n
    return [
        errors[i] if i in errors
        else ("point", {"location": p["center"]}) if g == 1 and k == "degenerate"
        else ("sphere", {**p, "form": "ipns" if g == 1 else "opns"}) if g in (1, 4)
        else ("point_pair" if g == 2 else "circle", p)
        for i, (g, k, p) in enumerate(zip(grade.tolist(), labels, params))
    ]


# The branches of the decision tree, by the key (grade, flat) of a row. Each takes the rows' X and Y and
# arrays of their grades, scales and <A A>_0, and returns each row's error or (kind, params).
_BRANCHES = {
    (0, False): lambda X, *rest: [UnknownObjectError("scalars are not conformal objects") for _ in X],
    (5, False): lambda X, *rest: [("space", {}) for _ in X],
    (1, True): _ipns_planes,
    (2, True): _flat_points,
    (3, True): _lines,
    (4, True): lambda X, Y, *rest: _plane_outcomes(Y[:, _COL["opns_plane"]], "opns"),  # from the dual vector
    **{(g, False): _round_objects for g in (1, 2, 3, 4)},
}
_BRANCH_LIST = list(dict.fromkeys(_BRANCHES.values()))
# at 2 grade + flat, the index into _BRANCH_LIST of the key (grade, flat); -1 for keys no row has
_ROUTE = np.array([_BRANCH_LIST.index(_BRANCHES[g, f]) if (g, f) in _BRANCHES else -1
                   for g in range(ALG.n + 1) for f in (False, True)])


def _classify_block(X: np.ndarray) -> list:
    block = _Block(X)
    out = [block.errors.get(r) for r in range(len(X))]
    for branch, rows in block.routes():
        for r, o in zip(rows.tolist(), branch(*block.rows(rows))):
            # the objects keep rows of the block as given, which are read-only
            out[r] = o if isinstance(o, GAError) else ConformalObject(o[0], Multivector.view(ALG, X[r]), o[1])
    return out


def classify_batch(coeffs) -> list:
    """Classify every row of an (N, 32) coefficient array in one array pass.

    Returns one entry per row: its ConformalObject, or the GAError that
    `classify` raises for it. Grades 2..4 are read as outer product null
    space objects, grade 1 as inner product null space. Rows go through
    in blocks of a fixed size, which bounds the temporaries."""
    X = np.array(coeffs, dtype=float)  # a private copy: the objects keep row views of it
    if X.ndim != 2 or X.shape[1] != ALG.dim:
        raise ValueError(f"expected an (N, {ALG.dim}) coefficient array, got shape {X.shape}")
    X.setflags(write=False)
    out: list = []
    for start in range(0, len(X), _BLOCK):
        out += _classify_block(X[start:start + _BLOCK])
    return out


def classify(mv: Multivector) -> ConformalObject:
    """The one-row case of `classify_batch`: the object, or its error raised."""
    outcome = _classify_block(mv.coeffs[None, :])  # the coefficients are read-only already
    if isinstance(outcome[0], GAError):
        # popped, so that no local of this frame holds the error its traceback holds
        raise outcome.pop()
    return outcome[0]


def round_params(mv: Multivector) -> dict:
    """Center and signed squared radius of a round blade (grades 1..4), from
    the classification plan's first stage and round stage on one row."""
    block = _Block(mv.coeffs[None, :])
    if block.errors:
        raise block.errors.pop(0)
    g = int(block.grade[0])
    if not 1 <= g <= 4:
        raise UnknownObjectError(f"grade {g} is not a round object")
    if block.flat[0]:
        raise FlatObjectError("grade-1 flat (plane) has no center/radius" if g == 1 else "flat object has no center/radius")
    center, r2, sign, errors = _rounds(*block.rows(np.arange(1)))
    if errors:
        raise errors.pop(0)
    return {"center": _clean(center)[0], "radius2": float(r2[0]) + 0.0, "sign": _SIGN_LABELS[sign[0]]}
