"""Reference Cl(4,1) arithmetic and output checks for the benchmark.

Everything here is computed independently of the code path under test:
product signs come from the bubble-sort oracle in ``confga.oracle`` (which
shares no code with the table-driven products in ``confga.algebra``), and
points, inversions and rigid motions use closed forms in plain numpy.

Basis blades are bitsets over the generators (e1, e2, e3, e+, e-), the
same encoding confga writes as blade names ("1", "e12", "e1+", ...).
"""

from __future__ import annotations

import math

import numpy as np

from confga.oracle import oracle_product

DIM = 32
EPLUS, EMINUS = 8, 16
_SYMBOL_GEN = {"1": 0, "2": 1, "3": 2, "+": 3, "-": 4}
_EUCLID_BITS = (1, 2, 4)

# Geometric checks: relative tolerance on positions, radii and
# coefficients. The conformal representation stores |p|^2 in its einf
# coefficient, so comparisons of raw coefficients scale with that size.
RTOL = 1e-9
POINT_RTOL = 1e-7
PARAM_RTOL = 1e-6


class _Signature:
    dim = DIM
    metric = (1.0, 1.0, 1.0, 1.0, -1.0)


def _build_tables():
    res = np.zeros((DIM, DIM), dtype=np.int64)
    sign = np.zeros((DIM, DIM))
    for a in range(DIM):
        for b in range(DIM):
            s, bits = oracle_product(a, b, _Signature)
            res[a, b] = bits
            sign[a, b] = s
    grades = np.array([bin(i).count("1") for i in range(DIM)])
    outer = np.where(grades[res] == grades[:, None] + grades[None, :], sign, 0.0)
    return res, sign, outer, grades


RESULT, SIGN, OUTER_SIGN, GRADES = _build_tables()
REVERSE = np.where(GRADES * (GRADES - 1) // 2 % 2 == 0, 1.0, -1.0)
INVOLUTE = np.where(GRADES % 2 == 0, 1.0, -1.0)


def _product(a: np.ndarray, b: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Row-wise product of coefficient arrays of shape (..., 32)."""
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    out = np.zeros(a.shape)
    for i in range(DIM):
        out[..., RESULT[i]] += a[..., i : i + 1] * b * signs[i]
    return out


def gp(a, b) -> np.ndarray:
    return _product(a, b, SIGN)


def wedge(*vs) -> np.ndarray:
    acc = vs[0]
    for v in vs[1:]:
        acc = _product(acc, v, OUTER_SIGN)
    return acc


def blade(bits: int, coeff: float = 1.0) -> np.ndarray:
    c = np.zeros(DIM)
    c[bits] = coeff
    return c


def einf() -> np.ndarray:
    return blade(EPLUS) + blade(EMINUS)


def embed(p) -> np.ndarray:
    """Conformal point p + (1/2)|p|^2 einf + e0, with e0 = (e- - e+)/2."""
    p = np.asarray(p, float)
    c = np.zeros(p.shape[:-1] + (DIM,))
    c[..., 1], c[..., 2], c[..., 4] = p[..., 0], p[..., 1], p[..., 2]
    half = 0.5 * np.sum(p * p, axis=-1)
    c[..., EPLUS] = half - 0.5
    c[..., EMINUS] = half + 0.5
    return c


def extract(c) -> np.ndarray:
    """Euclidean location of a conformal point at any homogeneous scale."""
    c = np.asarray(c, float)
    c0 = c[..., EMINUS] - c[..., EPLUS]
    return c[..., list(_EUCLID_BITS)] / c0[..., None]


def ipns_sphere(center, r: float) -> np.ndarray:
    return embed(center) - 0.5 * r * r * einf()


def translator(t) -> np.ndarray:
    c = blade(0)
    for k, tk in enumerate(t):
        c[(1 << k) | EPLUS] += 0.5 * tk
        c[(1 << k) | EMINUS] += 0.5 * tk
    return c


def rotor(plane: tuple[int, int], theta: float) -> np.ndarray:
    a, b = plane
    return blade(0, math.cos(0.5 * theta)) + blade((1 << a) | (1 << b), math.sin(0.5 * theta))


def motor(plane, theta, t) -> np.ndarray:
    """Translate by t, then rotate: the product T * R."""
    return gp(translator(t), rotor(plane, theta))


def rotate(p, plane, theta) -> np.ndarray:
    """Rotate by theta in the (e_a, e_b) plane, carrying e_a towards e_b."""
    a, b = plane
    p = np.array(p, float)
    ca, sa = math.cos(theta), math.sin(theta)
    out = p.copy()
    out[..., a] = ca * p[..., a] - sa * p[..., b]
    out[..., b] = sa * p[..., a] + ca * p[..., b]
    return out


def move_point(p, plane, theta, t) -> np.ndarray:
    return rotate(np.asarray(p, float) + np.asarray(t, float), plane, theta)


def invert_point(p, center, r) -> np.ndarray:
    d = np.asarray(p, float) - np.asarray(center, float)
    return np.asarray(center, float) + (r * r) * d / np.sum(d * d, axis=-1, keepdims=True)


def inverse(v: np.ndarray) -> np.ndarray:
    rev = v * REVERSE
    return rev / gp(v, rev)[0]


def action_matrix(v: np.ndarray, odd: bool) -> np.ndarray:
    """K with X @ K.T == v^-1 alpha^p(X) v, the twisted-adjoint sandwich."""
    basis = np.eye(DIM) * (INVOLUTE if odd else 1.0)
    return gp(gp(inverse(v), basis), v).T


def neuron_output(w, theta, x, odd: bool) -> np.ndarray:
    """y = ~W x' W / <W ~W>_0 + Theta, with x' the involution for odd W."""
    rev = w * REVERSE
    q = gp(w, rev)[0]
    xe = x * INVOLUTE if odd else x
    return gp(gp(rev, xe), w) / q + theta


def bits_for_name(name: str) -> int:
    if name == "1":
        return 0
    bits = 0
    for ch in name[1:]:
        bits |= 1 << _SYMBOL_GEN[ch]
    return bits


def from_entries(entries: dict) -> np.ndarray:
    c = np.zeros(DIM)
    for key, value in entries.items():
        c[bits_for_name(key)] = value
    return c


# -- comparisons ---------------------------------------------------------------


def close_coeffs(out, ref, scale: float | None = None) -> bool:
    """Coefficients agree to RTOL of the larger of the operand scale and the
    reference's largest coefficient."""
    out, ref = np.asarray(out, float), np.asarray(ref, float)
    s = max(float(np.max(np.abs(ref))), scale or 0.0, 1e-300)
    return bool(np.all(np.isfinite(out)) and np.max(np.abs(out - ref)) <= RTOL * s + 1e-12)


def close_point(out, ref, rtol: float = POINT_RTOL) -> bool:
    out, ref = np.asarray(out, float), np.asarray(ref, float)
    return bool(np.all(np.isfinite(out)) and np.linalg.norm(out - ref) <= rtol * (1.0 + np.linalg.norm(ref)))


def points_match(out, p, rtol: float = POINT_RTOL) -> np.ndarray:
    """Rows of `out` are conformal points at p, at any homogeneous scale:
    the Euclidean location agrees to rtol (1 + |p|), and the whole
    normalized coefficient vector (every grade, the einf part included)
    agrees with embed(p) to rtol of its largest coefficient."""
    out, p = np.atleast_2d(np.asarray(out, float)), np.atleast_2d(np.asarray(p, float))
    want = embed(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        c0 = out[:, EMINUS] - out[:, EPLUS]
        normalized = out / c0[:, None]
        loc = np.linalg.norm(extract(out) - p, axis=1) <= rtol * (1.0 + np.linalg.norm(p, axis=1))
        full = np.max(np.abs(normalized - want), axis=1) <= rtol * np.maximum(1.0, np.max(np.abs(want), axis=1))
    return np.all(np.isfinite(normalized), axis=1) & loc & full


def close_value(out: float, ref: float, scale: float = 1.0) -> bool:
    return math.isfinite(out) and abs(out - ref) <= PARAM_RTOL * max(1.0, abs(ref), scale)


def close_up_to_sign(pairs) -> bool:
    """Each (out, ref) vector pair agrees for one common overall sign."""
    for s in (1.0, -1.0):
        if all(close_point(np.asarray(o, float), s * np.asarray(r, float), PARAM_RTOL) for o, r in pairs):
            return True
    return False
