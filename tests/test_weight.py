"""The weight contract: a conformal object w X is the object X for every weight w at which
w X stays finite and above `tolerance.UNDERFLOW`, and a versor w v acts as v for every weight
w from 1e-15 to 1e15 of either sign; a row whose coefficients all lie below
`tolerance.UNDERFLOW` is refused as zero, never given a kind."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from confga import tolerance
from confga.conformal import (
    ALG,
    classify,
    classify_batch,
    e1,
    e2,
    e3,
    einf,
    embed_point,
    embed_points,
    plane_vector,
    sphere_vector,
)
from confga.errors import GAError
from confga.versor import apply, make_versor, motor, reflector_plane, reflector_sphere, rotor, translator

from test_conformal import _unit_weight_kinds

# each form from four points P (or a centre, radius, normal and distance); the kind classify gives it
FORMS = {
    "point": (lambda P, c, r, n, d: P[0], "point"),
    "pair": (lambda P, c, r, n, d: P[0] ^ P[1], "point_pair"),
    "circle": (lambda P, c, r, n, d: P[0] ^ P[1] ^ P[2], "circle"),
    "sphere_opns": (lambda P, c, r, n, d: P[0] ^ P[1] ^ P[2] ^ P[3], "sphere"),
    "sphere_ipns": (lambda P, c, r, n, d: sphere_vector(c, r), "sphere"),
    "flat_point": (lambda P, c, r, n, d: P[0] ^ einf, "flat_point"),
    "line": (lambda P, c, r, n, d: P[0] ^ P[1] ^ einf, "line"),
    "plane_opns": (lambda P, c, r, n, d: P[0] ^ P[1] ^ P[2] ^ einf, "plane"),
    "plane_ipns": (lambda P, c, r, n, d: plane_vector(n, d), "plane"),
}

_coordinate = st.floats(-3.0, 3.0)
_vec3 = st.tuples(_coordinate, _coordinate, _coordinate)
_inputs = st.tuples(st.lists(_vec3, min_size=4, max_size=4), _vec3, st.floats(0.5, 2.0), _vec3, st.floats(0.1, 3.0))
# w = +-10^k U(1, 10), k from -15 to 15, so |w| runs from 1e-15 to 1e16
_weights = st.builds(lambda k, m, s: s * m * 10.0**k, st.integers(-15, 15), st.floats(1.0, 10.0), st.sampled_from([1.0, -1.0]))


def _numbers(params: dict) -> list:
    """A kind's numeric params in one list, a point pair's endpoints in order."""
    out = []
    for key, value in sorted(params.items()):
        if key == "points":
            value = value[0] + value[1]
        if not isinstance(value, str):
            out += list(value) if isinstance(value, tuple) else [value]
    return out


def _build(inputs) -> tuple[np.ndarray, list]:
    """The nine forms' rows from one draw, and their unit-weight objects; a draw with points
    closer than 0.5, three collinear or four coplanar, or a round of radius past 10, is left out:
    a round far larger than its points is ill-conditioned, and rescaling its blade moves it by
    rounding."""
    points, c, r, n, d = inputs
    P = [embed_point(p) for p in points]
    distances = [np.linalg.norm(np.subtract(p, q)) for k, p in enumerate(points) for q in points[k + 1:]]
    assume(min(distances) >= 0.5 and np.linalg.norm(n) >= 0.1)
    rows = np.array([build(P, c, r, n, d).coeffs for build, _ in FORMS.values()])
    unit = classify_batch(rows)
    assume(all(not isinstance(o, GAError) and o.kind == kind for o, (_, kind) in zip(unit, FORMS.values())))
    assume(all(abs(o.params.get("radius2", 0.0)) <= 100.0 for o in unit))
    return rows, unit


# four points, a sphere's centre and radius, a plane's normal and distance
_DRAW = ([(1.0, 0.5, 0.2), (0.0, 2.0, -1.0), (-2.0, 0.0, 1.0), (0.5, -1.5, -2.0)], (0.5, 1.0, -1.0), 1.5, (0.3, -0.4, 0.5), 0.7)
# a point at (0, 0, 6.04e-185), a coordinate far below its zero threshold; at w = -1e-128 its
# coefficient in w X is subnormal, and its location moves by about 2e-196
_TINY_DRAW = ([(0.0, 0.0, 6.04e-185)] + _DRAW[0][1:], *_DRAW[1:])


@settings(max_examples=150, deadline=None)
@given(inputs=_inputs, w=_weights)
@example(inputs=_DRAW, w=1e-11)
@example(inputs=_DRAW, w=-9.9e15)
def test_reweighted_objects_keep_their_kinds_and_params(inputs, w):
    _check_reweighted(inputs, w)


def _check_reweighted(inputs, w):
    """w X classifies as X for each of the nine forms: the same kind and labels, and params
    within 1e-12 of X's, relative to their largest; a point pair's orientation turns with the
    sign of w, so its endpoints swap for w < 0. A param below the zero threshold of X's
    coefficients is zero by the tolerance's zero rule, and its coefficient in w X may fall
    below UNDERFLOW, where the contract ends, so the scale is at least that threshold."""
    rows, unit = _build(inputs)
    for form, row, got, want in zip(FORMS, rows, classify_batch(w * rows), unit):
        assert not isinstance(got, GAError) and got.kind == want.kind, (form, got)
        params = dict(want.params)
        if w < 0 and "points" in params:
            params["points"] = params["points"][::-1]
        assert {k: v for k, v in got.params.items() if isinstance(v, str)} == {k: v for k, v in params.items() if isinstance(v, str)}, form
        a, b = np.array(_numbers(got.params)), np.array(_numbers(params))
        scale = max(np.max(np.abs(b)), tolerance.threshold(np.max(np.abs(row))))
        assert np.max(np.abs(a - b)) <= 1e-12 * scale, (form, got, want)


_wide_weights = st.builds(lambda k, m, s: s * m * 10.0**k, st.integers(-150, 300), st.floats(1.0, 10.0), st.sampled_from([1.0, -1.0]))


@settings(max_examples=150, deadline=None)
@given(inputs=_inputs, w=_wide_weights)
@example(inputs=_DRAW, w=1e-150)
@example(inputs=_DRAW, w=-9.9e300)
@example(inputs=_TINY_DRAW, w=-1e-128)
def test_objects_keep_their_kinds_and_params_at_wide_weights(inputs, w):
    """The same check for |w| from 1e-150 to 1e301, where a round's raw P^2 or A ~A would
    underflow or overflow."""
    _check_reweighted(inputs, w)


def _outcomes(rows: np.ndarray) -> list:
    """Each row's kind and params, or its error's class and message."""
    return [(type(o), str(o)) if isinstance(o, GAError) else (o.kind, o.params) for o in classify_batch(rows)]


@pytest.mark.parametrize("k", [-480, -300, 300, 700, 990])
def test_power_of_two_weights_give_every_outcome_bit_for_bit(k):
    """2^k X is classified exactly as X, errors included: classification reads every row at
    unit scale, and a power of two changes no bit of that."""
    P = [embed_point(p) for p in _DRAW[0]]
    refused = [e1 + (e1 ^ e2), (e1 ^ e2) + (e3 ^ einf), einf, ALG.scalar(2.0)]  # two no blades, a point at infinity, a scalar
    rows = np.array([build(P, *_DRAW[1:]).coeffs for build, _ in FORMS.values()]
                    + [mv.coeffs for mv in _unit_weight_kinds() + refused])
    want = _outcomes(rows)
    assert sum(isinstance(o[0], type) for o in want) == len(refused)
    assert _outcomes(np.ldexp(rows, k)) == want


def test_tiny_ipns_plane_keeps_its_sign():
    """An IPNS plane at weight -2.12e-153, every coefficient above UNDERFLOW: distance 0.65
    and its normal as at weight 1, not the flipped normal and -0.65."""
    plane = plane_vector([-0.3, 0.5, 0.8], 0.65)
    want = classify(plane).params
    got = classify(-2.12e-153 * plane).params
    assert got["normal"] == pytest.approx(want["normal"], rel=1e-15)
    assert got["distance"] == pytest.approx(0.65, rel=1e-15)


VERSORS = {
    "translator": lambda: translator([1.0, -2.0, 0.5]),
    "rotor": lambda: rotor(e1 ^ e2, 0.7),
    "motor": lambda: motor(e1 ^ e2, 0.7, [1.0, 0.0, -0.5]),
    "sphere_mirror": lambda: reflector_sphere([0.5, 1.0, -1.0], 1.5),
    "plane_mirror": lambda: reflector_plane([1.0, 2.0, 2.0], 0.5),
}


@pytest.mark.parametrize("name", sorted(VERSORS))
def test_reweighted_versor_acts_as_the_versor(name):
    """make_versor accepts w v for w = 10^k, k from -15 to 15; its action on points within 3
    of the origin agrees with v's to 1e-15 of the image's largest coefficient, and w times its
    inverse is v's inverse to 1e-15 of that's largest."""
    v = VERSORS[name]()
    mode = "motion" if v.parity == "even" else "reflection"
    X = embed_points(np.random.default_rng(24).uniform(-3.0, 3.0, (20, 3)))
    want = apply(v, X, mode)
    for k in range(-15, 16):
        w = 10.0**k
        u = make_versor(w * v.mv)
        assert np.max(np.abs(apply(u, X, mode) - want)) <= 1e-15 * np.max(np.abs(want)), k
        assert np.max(np.abs(w * u.inverse().coeffs - v.inv.coeffs)) <= 1e-15 * v.inv.max_abs(), k


@pytest.mark.parametrize("w", [1e-160, 1e-310, 5e-324, -5e-324])
def test_rows_below_underflow_are_refused(w):
    """Every coefficient of w X or w v below UNDERFLOW: the object is a zero multivector and
    the versor no versor, with no kind given and no RuntimeWarning (the suite raises those)."""
    P = [embed_point(p) for p in _DRAW[0]]
    for build, _ in FORMS.values():
        row = w * build(P, *_DRAW[1:])
        assert row.max_abs() < tolerance.UNDERFLOW
        with pytest.raises(GAError, match="^zero multivector$"):
            classify(row)
    for build in VERSORS.values():
        v = w * build().mv
        assert v.max_abs() < tolerance.UNDERFLOW
        with pytest.raises(GAError, match="^zero multivector is not a versor$"):
            make_versor(v)


def test_subnormal_flat_point_is_zero():
    """5e-324 (P ^ einf) for P at (1, 0.5, 0.2) keeps one bit per coefficient: its exact
    rescaling by 2^1074 is a flat point at (1, 0, 0), and read as it stands it would be one at
    (0, 0, 0). It is refused."""
    row = 5e-324 * (embed_point([1.0, 0.5, 0.2]) ^ einf)
    assert classify(row * 2.0**537 * 2.0**537).params["location"] == (1.0, 0.0, 0.0)
    with pytest.raises(GAError, match="^zero multivector$"):
        classify(row)
