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

Embedding and classification work on coefficient arrays. `embed_points`
embeds an (N, 3) array of points at once, and `embed_point` is its one-row
case. `classify_batch` classifies an (N, 32) array in one array pass: each
check of the decision tree is one array step over the rows it applies to,
with products from the algebra's row-wise kernel, and each row comes back
as its object or its error. `classify` and `round_params` are its one-row
case and raise that row's error. A row's result does not depend on the
rows classified with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerance
from .algebra import Multivector, algebra
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

# Null-basis generator order (e1, e2, e3, e0, einf) encoded on bits 0..4;
# PM_FROM_NULL columns hold each null blade's +/- basis expansion and the
# inverse is exact (all entries are quarter-integers).
_NULL_GENS = (e1, e2, e3, e0, einf)


def _build_null_matrix() -> np.ndarray:
    mat = np.zeros((ALG.dim, ALG.dim))
    for bits in range(ALG.dim):
        acc = ALG.scalar(1.0)
        for k in range(5):
            if bits >> k & 1:
                acc = acc ^ _NULL_GENS[k]
        mat[:, bits] = acc.coeffs
    return mat


PM_FROM_NULL = _build_null_matrix()
NULL_FROM_PM = np.linalg.inv(PM_FROM_NULL)

KINDS = ("point", "point_pair", "circle", "sphere", "flat_point", "line", "plane", "space")


def to_null_coeffs(mv: Multivector) -> np.ndarray:
    """Coefficients over blades of (e1, e2, e3, e0, einf), bits in that order."""
    return NULL_FROM_PM @ mv.coeffs


def from_null_coeffs(coeffs) -> Multivector:
    return ALG.mv(PM_FROM_NULL @ np.asarray(coeffs, dtype=float))


def as_vec3(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (3,):
        raise ValueError("expected a 3-component Euclidean vector")
    return arr


def euclid_vector(p) -> Multivector:
    arr = as_vec3(p)
    return arr[0] * e1 + arr[1] * e2 + arr[2] * e3


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

_EUCLID = (0b00001, 0b00010, 0b00100)  # e1, e2, e3: the same coefficient in both bases
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
    bad = ~np.isfinite(pts)
    if bad.any():
        raise DomainError(f"point coordinate {float(pts[bad][0])!r} is not finite")
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


def embed_point(p) -> Multivector:
    """P = p + (1/2) p^2 einf + e0; the one-row case of `embed_points`."""
    return Multivector(ALG, embed_points(as_vec3(p)[None, :])[0], copy=False)


def extract_point(P: Multivector) -> np.ndarray:
    """Euclidean location of a conformal point, any homogeneous scale."""
    gs = P.grades()
    if gs and gs != frozenset({1}):
        raise NotAPointError(f"not a grade-1 vector (grades {sorted(gs)})")
    loc, errors = _locations(P.coeffs[None, :])
    if errors:
        raise errors.pop(0)
    return loc[0]


def point_distance(P1: Multivector, P2: Multivector) -> float:
    """sqrt(-2 <P1 P2>_0) for normalized conformal points."""
    inner = (P1 | P2).scalar_part()
    scale = max(1.0, P1.max_abs() * P2.max_abs())
    if inner > tolerance.threshold(scale):
        raise MetricError(f"positive point inner product {inner}; not normalized points")
    return math.sqrt(max(0.0, -2.0 * inner))


# -- object constructors ------------------------------------------------------


def _check_distinct(points: list[Multivector]) -> None:
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            scale = max(1.0, points[i].max_abs(), points[j].max_abs())
            if (points[i] - points[j]).is_zero(scale=scale):
                raise DegenerateError("coincident points")


def _wedge_points(points: list[Multivector], with_inf: bool = False) -> Multivector:
    acc = points[0]
    scale = points[0].max_abs()
    for P in points[1:]:
        acc = acc ^ P
        scale = scale * P.max_abs()
    if with_inf:
        acc = acc ^ einf
        scale = scale * 2.0
    if acc.is_zero(scale=max(1.0, scale)):
        raise DegenerateError("wedge of construction points vanishes")
    return acc


def make_point_pair(P1: Multivector, P2: Multivector) -> ConformalObject:
    _check_distinct([P1, P2])
    return classify(_wedge_points([P1, P2]))


def make_circle(P1: Multivector, P2: Multivector, P3: Multivector) -> ConformalObject:
    _check_distinct([P1, P2, P3])
    return classify(_wedge_points([P1, P2, P3]))


def make_sphere_opns(P1, P2, P3, P4) -> ConformalObject:
    _check_distinct([P1, P2, P3, P4])
    return classify(_wedge_points([P1, P2, P3, P4]))


def make_line(P1: Multivector, P2: Multivector) -> ConformalObject:
    _check_distinct([P1, P2])
    return classify(_wedge_points([P1, P2], with_inf=True))


def make_plane_opns(P1, P2, P3) -> ConformalObject:
    _check_distinct([P1, P2, P3])
    return classify(_wedge_points([P1, P2, P3], with_inf=True))


def make_flat_point(P: Multivector) -> ConformalObject:
    return classify(_wedge_points([P], with_inf=True))


def whole_space() -> ConformalObject:
    return ConformalObject("space", I5, {})


def sphere_ipns(center, r: float) -> ConformalObject:
    """sigma = P(center) - (1/2) r^2 einf; sigma^2 = r^2; r = 0 gives the point."""
    if r < 0:
        raise DomainError(f"negative radius {r}")
    sigma = embed_point(center) - (0.5 * r * r) * einf
    return classify(sigma)


# -- classification -----------------------------------------------------------
#
# Classification runs on coefficient rows. Each check of the decision tree is
# one array step over the rows it applies to; a stage reports the rows it
# refuses as a {row: error} dict, and each branch of the tree returns, per row,
# its error or its (kind, params). Products go through the row-wise kernel,
# whose sums do not depend on the other rows, so a row gets the same answer
# alone, in a block, or anywhere in a scene.

_BLOCK = 256  # rows per pass; keeps each (rows, 32, 32) product temporary near 2 MB
_GRADE_ONE_HOT = np.eye(ALG.n + 1)[ALG.grades]
_SCALAR = (0,)
_VECTOR = tuple(np.flatnonzero(ALG.grades == 1).tolist())
_EINF = einf.coeffs
_ONE = ALG.scalar(1.0).coeffs
_INV_I5 = ALG.scalar(1.0).dual().coeffs  # A.dual() == A * I5^-1
# Sign fixing r^2 = sign * <A A>_0 / <(einf | A)^2>_0, by grade; verified
# against brute-force circumcenter/circumradius solves in the test suite.
_ROUND_SIGN = np.array([0.0, 1.0, 1.0, -1.0, 1.0, 0.0])
# null-basis bits (e1, e2, e3, e0, einf on bits 0..4) of the flat parameters
_INF = 0b10000
_FLAT_POINT_W, _FLAT_POINT_LOC = 0b11000, np.array([0b10001, 0b10010, 0b10100])
_LINE_DIRECTION, _LINE_MOMENT = np.array([0b11001, 0b11010, 0b11100]), np.array([0b10011, 0b10101, 0b10110])


def _grade_sets(X: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """(rows, 6) flags: grade g has a coefficient above the row's tolerance."""
    present = np.abs(X) > tolerance.threshold(scale)[:, None]
    return present @ _GRADE_ONE_HOT > 0


def _vector_part(grade1: np.ndarray) -> np.ndarray:
    """Full coefficient rows from grade-1 coefficients."""
    out = np.zeros((len(grade1), ALG.dim))
    out[:, _VECTOR] = grade1
    return out


def _clean(values: np.ndarray) -> list:
    # +0.0 turns negative zeros into plain zeros for display and JSON
    return (values + 0.0).tolist()


def _refuse(errors: dict, failed: np.ndarray, make) -> None:
    """Record make(row) for each failed row that has no earlier error, so
    checks made in tree order keep the first error of each row."""
    if failed.any():
        for r in failed.nonzero()[0].tolist():
            if r not in errors:
                errors[r] = make(r)


def _finite(X: np.ndarray) -> tuple[np.ndarray, dict]:
    """A DomainError for each row with a non-finite coefficient, and the
    rows with those zeroed, so that the array steps after this one stay
    finite."""
    if np.isfinite(X).all():
        return X, {}
    finite = np.isfinite(X).all(axis=1)
    errors = {}
    for r in (~finite).nonzero()[0].tolist():
        k = int((~np.isfinite(X[r])).nonzero()[0][0])
        errors[r] = DomainError(f"non-finite coefficient {float(X[r, k])!r} on {ALG.blade_names[k]}")
    return np.where(finite[:, None], X, 0.0), errors


def _blades(X: np.ndarray, scale: np.ndarray, errors: dict) -> np.ndarray:
    """Grade of each row that is a blade (-1 for the others); adds to
    errors each row that is not: zero, mixed grades, or A ~A not a
    scalar."""
    has = _grade_sets(X, scale)
    count = has.sum(axis=1)
    gram = ALG.product("gp", X, X * ALG.reverse_signs)
    gram_limit = tolerance.threshold(np.maximum(np.abs(gram[:, 0]), scale ** 2))
    scalar_gram = np.all(np.abs(gram[:, 1:]) <= gram_limit[:, None], axis=1)
    blade = (count == 1) & scalar_gram
    if not blade.all():
        _refuse(errors, count == 0, lambda r: UnknownObjectError("zero multivector"))
        _refuse(errors, count > 1, lambda r: NotABladeError(
            f"grade-inhomogeneous multivector (grades {has[r].nonzero()[0].tolist()})"))
        _refuse(errors, ~scalar_gram, lambda r: NotABladeError("mv * ~mv is not scalar; not a blade"))
    return np.where(blade, has.argmax(axis=1), -1)


def _flats(X: np.ndarray, grade: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which blades are flat, and A ^ einf for the rows of grade 2..4.

    A vector is flat (an IPNS plane) when its e0 coefficient vanishes, a
    blade of grade 2..4 when A ^ einf does."""
    flat = (grade == 1) & (np.abs(X[:, _MINUS] - X[:, _PLUS]) <= tolerance.threshold(scale))
    wedge = np.zeros_like(X)
    rows = ((grade >= 2) & (grade <= 4)).nonzero()[0]
    if len(rows):
        wedge[rows] = ALG.product("outer", X[rows], _EINF)
        wedge_limit = tolerance.threshold(np.maximum(1.0, 2.0 * scale[rows]))
        flat[rows] = np.all(np.abs(wedge[rows]) <= wedge_limit[:, None], axis=1)
    return flat, wedge


def _locations(P: np.ndarray) -> tuple[np.ndarray, dict]:
    """Euclidean locations of conformal points given as rows of vector
    coefficients, at any homogeneous scale, and the error of each row that
    is not one."""
    errors: dict = {}
    scale = np.abs(P).max(axis=1)
    square = ALG.product("gp", P, P, _SCALAR)[:, 0]
    e0_part = P[:, _MINUS] - P[:, _PLUS]
    finite = np.abs(e0_part) > tolerance.threshold(scale)
    null = np.abs(square) <= tolerance.threshold(scale * scale) * 10.0
    if not (null & finite).all():
        _refuse(errors, scale == 0.0, lambda r: NotAPointError("zero multivector is not a point"))
        _refuse(errors, ~null, lambda r: NotAPointError("vector is not null; not a conformal point"))
        _refuse(errors, ~finite, lambda r: PointAtInfinityError("no finite location: e0 coefficient vanishes"))
    return P[:, _EUCLID] / np.where(finite, e0_part, 1.0)[:, None], errors


def _rounds(X: np.ndarray, grade: np.ndarray, scale: np.ndarray):
    """Center, signed squared radius, its sign label and errors, for round
    blades: the center is the point A einf A, and
    r^2 = sign * <A A>_0 / <(einf | A)^2>_0."""
    center, errors = _locations(_vector_part(ALG.product("gp", ALG.product("gp", X, _EINF), X, _VECTOR)))
    top = ALG.product("gp", X, X, _SCALAR)[:, 0]
    carrier = ALG.product("lcont", _EINF, X)
    bottom = ALG.product("gp", carrier, carrier, _SCALAR)[:, 0]
    finite_carrier = np.abs(bottom) > tolerance.threshold(scale ** 2)
    _refuse(errors, ~finite_carrier, lambda r: DegenerateError("round has no finite carrier; cannot extract radius"))
    r2 = _ROUND_SIGN[grade] * top / np.where(finite_carrier, bottom, 1.0)
    r2_limit = tolerance.threshold(1.0 + _sq_norms(center)) * 10.0
    sign = [
        "degenerate" if abs(v) <= limit else "real" if v > 0 else "imaginary"
        for v, limit in zip(r2.tolist(), r2_limit.tolist())
    ]
    return center, r2, sign, errors


def _pair_endpoints(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Endpoints of real point pairs via the idempotent split (1 +- F)/2
    with F = A / sqrt(<A A>_0); the (1 - F) endpoint comes first."""
    F = X / np.sqrt(ALG.product("gp", X, X, _SCALAR))
    carrier = ALG.product("lcont", _EINF, X)
    (a, a_errors), (b, b_errors) = (
        _locations(_vector_part(ALG.product("gp", 0.5 * half, carrier, _VECTOR))) for half in (_ONE - F, _ONE + F)
    )
    return a, b, {**b_errors, **a_errors}


def _directions(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the signed norm alpha that makes D / alpha a unit vector whose
    first clearly nonzero component is positive, and which rows vanish."""
    norm = np.sqrt(_sq_norms(D))
    clear = np.abs(D) > tolerance.threshold(norm)[:, None]
    first = np.where(clear.any(axis=1), D[np.arange(len(D)), np.argmax(clear, axis=1)], norm)
    return np.where(first >= 0, norm, -norm), norm == 0.0


def _plane_outcomes(V: np.ndarray, form: str) -> list:
    """Planes from IPNS vectors n + d einf: unit normal and distance, signed
    so that d > 0, or by the normal's first clear component when d vanishes."""
    normal_raw = V[:, _EUCLID]
    distance_raw = V @ NULL_FROM_PM[_INF]
    alpha, vanishing = _directions(normal_raw)
    norm = np.abs(alpha)
    limit = tolerance.threshold(norm) * 10.0
    alpha = np.where(distance_raw < -limit, -norm, np.where(np.abs(distance_raw) <= limit, alpha, norm))
    alpha[vanishing] = 1.0
    normal, distance = _clean(normal_raw / alpha[:, None]), _clean(distance_raw / alpha)
    return [
        DegenerateError("plane with zero normal") if v else ("plane", {"normal": tuple(n), "distance": d, "form": form})
        for v, n, d in zip(vanishing, normal, distance)
    ]


def _scalars(X, grade, scale, wedge) -> list:
    return [UnknownObjectError("scalars are not conformal objects") for _ in X]


def _space(X, grade, scale, wedge) -> list:
    return [("space", {}) for _ in X]


def _ipns_planes(X, grade, scale, wedge) -> list:
    """Flat vectors: IPNS planes, unless the normal vanishes too."""
    at_infinity = np.abs(X[:, _EUCLID]).max(axis=1) <= tolerance.threshold(scale)
    return [
        UnknownObjectError("pure einf direction (point at infinity)") if inf else plane
        for inf, plane in zip(at_infinity, _plane_outcomes(X, "ipns"))
    ]


def _opns_planes(X, grade, scale, wedge) -> list:
    """Flat 4-blades: OPNS planes, read from their dual vector."""
    return _plane_outcomes(_vector_part(ALG.product("gp", X, _INV_I5, _VECTOR)), "opns")


def _flat_points(X, grade, scale, wedge) -> list:
    null = X @ NULL_FROM_PM.T
    w = null[:, _FLAT_POINT_W]
    at_infinity = np.abs(w) <= tolerance.threshold(scale)
    location = _clean(null[:, _FLAT_POINT_LOC] / np.where(at_infinity, 1.0, w)[:, None])
    return [
        UnknownObjectError("flat point at infinity") if inf else ("flat_point", {"location": tuple(p)})
        for inf, p in zip(at_infinity, location)
    ]


def _lines(X, grade, scale, wedge) -> list:
    null = X @ NULL_FROM_PM.T
    alpha, vanishing = _directions(null[:, _LINE_DIRECTION])
    alpha[vanishing] = 1.0
    direction = _clean(null[:, _LINE_DIRECTION] / alpha[:, None])
    moment = _clean(null[:, _LINE_MOMENT] / alpha[:, None])
    return [
        DegenerateError("vanishing direction") if v else ("line", {"direction": tuple(d), "moment": tuple(m)})
        for v, d, m in zip(vanishing, direction, moment)
    ]


def _round_objects(X, grade, scale, wedge) -> list:
    """Points and spheres (grade 1, IPNS), point pairs, circles and OPNS
    spheres: center and squared radius for all, then what each kind adds."""
    center, r2, sign, errors = _rounds(X, grade, scale)
    params = [{"center": tuple(c), "radius2": v, "sign": k} for c, v, k in zip(_clean(center), _clean(r2), sign)]
    grades = grade.tolist()
    pairs = np.array([i for i, (g, k) in enumerate(zip(grades, sign)) if g == 2 and k == "real" and i not in errors], int)
    if len(pairs):
        a, b, pair_errors = _pair_endpoints(X[pairs])
        errors.update({pairs[i]: exc for i, exc in pair_errors.items()})
        for i, p, q in zip(pairs, _clean(a), _clean(b)):
            params[i]["points"] = (tuple(p), tuple(q))
    circles = np.array([i for i, g in enumerate(grades) if g == 3], int)
    if len(circles):
        # the unit normal of the carrier plane (A ^ einf)*, when it has one
        normal_raw = ALG.product("gp", wedge[circles], _INV_I5, _EUCLID)
        has_normal = np.sqrt(_sq_norms(normal_raw)) > tolerance.threshold(scale[circles])
        alpha, _ = _directions(normal_raw[has_normal])
        for i, n in zip(circles[has_normal], _clean(normal_raw[has_normal] / alpha[:, None])):
            params[i]["normal"] = tuple(n)
    out = []
    for i, (g, p) in enumerate(zip(grades, params)):
        if i in errors:
            out.append(errors[i])
        elif g == 1 and sign[i] == "degenerate":
            out.append(("point", {"location": p["center"]}))
        elif g in (1, 4):
            out.append(("sphere", {**p, "form": "ipns" if g == 1 else "opns"}))
        else:
            out.append(("point_pair" if g == 2 else "circle", p))
    return out


# The branches of the decision tree, by (grade, flat) of a row. Each takes the
# rows' coefficients, grades, scales and A ^ einf, and returns each row's error
# or (kind, params).
_BRANCHES = (
    ({(0, False)}, _scalars),
    ({(5, False)}, _space),
    ({(1, True)}, _ipns_planes),
    ({(g, False) for g in (1, 2, 3, 4)}, _round_objects),
    ({(2, True)}, _flat_points),
    ({(3, True)}, _lines),
    ({(4, True)}, _opns_planes),
)


def _classify_block(X: np.ndarray) -> list:
    objects = X  # the objects keep rows of the block as given
    X, errors = _finite(X)
    scale = np.abs(X).max(axis=1)
    grade = _blades(X, scale, errors)
    flat, wedge = _flats(X, grade, scale)
    out = [errors.get(r) for r in range(len(X))]
    keys = list(zip(grade.tolist(), flat.tolist()))
    for wanted, branch in _BRANCHES:
        rows = [r for r, key in enumerate(keys) if key in wanted]
        if rows:
            pick = slice(None) if len(rows) == len(X) else rows  # a view when the branch takes every row
            for r, o in zip(rows, branch(X[pick], grade[pick], scale[pick], wedge[pick])):
                out[r] = o if isinstance(o, GAError) else ConformalObject(o[0], Multivector(ALG, objects[r], copy=False), o[1])
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
    outcome = classify_batch(mv.coeffs[None, :])
    if isinstance(outcome[0], GAError):
        # popped, so that no local of this frame holds the error its traceback holds
        raise outcome.pop()
    return outcome[0]


def round_params(mv: Multivector) -> dict:
    """Center and signed squared radius of a round blade (grades 1..4), by
    the classification's own blade, flatness and round stages on one row."""
    X, errors = _finite(mv.coeffs[None, :])
    scale = np.abs(X).max(axis=1)
    grade = _blades(X, scale, errors)
    if errors:
        raise errors.pop(0)
    g = int(grade[0])
    if not 1 <= g <= 4:
        raise UnknownObjectError(f"grade {g} is not a round object")
    if _flats(X, grade, scale)[0][0]:
        if g == 1:
            raise FlatObjectError("grade-1 flat (plane) has no center/radius")
        raise FlatObjectError("flat object has no center/radius")
    center, r2, sign, errors = _rounds(X, grade, scale)
    if errors:
        raise errors.pop(0)
    return {"center": tuple(_clean(center[0])), "radius2": float(r2[0]) + 0.0, "sign": sign[0]}
