"""Each shortcut that writes coefficients directly, against the formula it
stands for, bit for bit.

Closed forms fill their few coefficients into zeros, a number scales a
multivector, `compose` starts its product at its first factor, and
`wedge_points` tests every pair of points for coincidence in one array
comparison. Each must give the floats its formula gives. Only the sign of a
zero may differ (0.0 + -0.0 is 0.0, where a direct write keeps -0.0), so
coefficients are compared with np.array_equal; no output prints a zero.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from confga import tolerance
from confga.conformal import ALG, e1, e2, e3, einf, embed_point, euclid_vector, is_point, wedge_points
from confga.errors import DegenerateError, DomainError, GAError, NotAPointError
from confga.expr import eval_expression
from confga.versor import _closed_form, compose, make_versor, reflector_plane, reflector_sphere, rotor, scalor, translator

# finite coordinates with both zeros, subnormals, and sizes near the ends of the float range
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, -1e-300, 1e154, -1e154, 1e300, -1e300]
_coords = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(allow_nan=False, allow_infinity=False),
)
_vec3 = st.lists(_coords, min_size=3, max_size=3)


def _formula_euclid_vector(p):
    """p0 e1 + p1 e2 + p2 e3 as a sum of scaled generators: the formula euclid_vector stands for."""
    x, y, z = (float(c) for c in p)
    return x * e1 + y * e2 + z * e3


def _same(got, want) -> None:
    assert np.array_equal(got.coeffs, want.coeffs), f"\n  {got}\n  {want}"


def _same_closed_form(build, want, parity: str, norm2: float) -> None:
    """build() is the versor that `_closed_form` makes of want: the same coefficients,
    or the same refusal with the same message."""
    try:
        got = build()
    except DomainError as exc:
        with pytest.raises(DomainError) as info:
            _closed_form(lambda: want, parity, norm2)
        assert str(info.value) == str(exc)
    else:
        _same(got.mv, want)
        assert (got.parity, got.norm2) == (parity, norm2)


@settings(max_examples=200, deadline=None)
@given(_vec3)
@example([1e300, -1e300, 0.0])
@example([5e-324, -0.0, 1e154])
def test_euclid_vector_is_the_sum_of_its_scaled_generators(p):
    _same(euclid_vector(p), _formula_euclid_vector(p))


@settings(max_examples=200, deadline=None)
@given(_vec3)
@example([0.0, -0.0, 5e-324])
@example([1e154, 0.0, 0.0])
@example([3e6, 0.0, 0.0])
def test_translator_is_one_plus_half_t_wedge_einf(t):
    want = ALG.scalar(1.0) + 0.5 * (_formula_euclid_vector(t) ^ einf)
    _same_closed_form(lambda: translator(t), want, "even", 1.0)


_mv_coeffs = st.dictionaries(st.integers(0, ALG.dim - 1), _coords, max_size=8)


@settings(max_examples=200, deadline=None)
@given(_coords, _mv_coeffs)
@example(10.0, {1: 1e308})
@example(-0.0, {0: 1.0, 31: -2.0})
@example(1e-300, {3: 1e-300})
def test_a_number_scales_a_multivector_as_its_scalar_multiplies(x, columns):
    coeffs = np.zeros(ALG.dim)
    for bits, value in columns.items():
        coeffs[bits] = value
    A = ALG.mv(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        want = ALG.scalar(x) * A
    finite = np.isfinite(want.coeffs)
    for text in ("x * A", "A * x"):
        if finite.all():
            _same(eval_expression(text, {"x": x, "A": A}), want)
        else:
            with pytest.raises(DomainError) as info:
                eval_expression(text, {"x": x, "A": A})
            assert str(info.value) == f"'*' overflows: it gives {want.coeffs[~finite][0]}"


def test_a_scaled_overflow_is_still_refused():
    with pytest.raises(DomainError) as info:
        eval_expression("1e308*e1 * 10")
    assert str(info.value) == "'*' overflows: it gives inf"


# within the range the closed forms accept, so that few draws are refused
_place = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300]), st.floats(-1e4, 1e4)), min_size=3, max_size=3)
_closed_forms = st.one_of(
    st.builds(translator, _place),
    st.builds(lambda b, angle: rotor(ALG.blade(b), angle), st.sampled_from([0b00011, 0b00101, 0b00110]),
              st.floats(-10.0, 10.0)),
    st.builds(reflector_plane, _place, st.floats(-1e4, 1e4)),
    st.builds(reflector_sphere, _place, st.floats(0.1, 1e3)),
    st.builds(scalor, st.floats(1e-3, 1e3), _place),
)


@st.composite
def _versors(draw):
    """A closed-form versor; draws that its constructor refuses are skipped."""
    try:
        return draw(_closed_forms)
    except GAError:
        reject()


@settings(max_examples=100, deadline=None)
@given(st.lists(_versors(), min_size=1, max_size=3))
@example([make_versor(1e100 * e1)] * 2)  # norm 1e400: refused, with no finite inverse
def test_compose_is_the_product_of_its_factors(versors):
    with np.errstate(over="ignore", invalid="ignore"):
        want = ALG.scalar(1.0)
        for v in versors:
            want = want * v.mv
    parity = "odd" if sum(v.parity == "odd" for v in versors) % 2 else "even"
    _same_closed_form(lambda: compose(versors), want, parity, math.prod(v.norm2 for v in versors))


def test_compose_of_three_translators_and_a_rotor():
    versors = [translator([1.0, -2.0, 0.5]), rotor(e1 ^ e2, 0.7), translator([300.0, 0.0, -1e-310])]
    want = ALG.scalar(1.0) * versors[0].mv * versors[1].mv * versors[2].mv
    _same(compose(versors).mv, want)


# -- wedge_points: one coincidence test for every pair ------------------------------


def _pairwise_wedge_points(*points, with_inf=False):
    """wedge_points with its coincidence test run pair by pair: the reference for
    the rule that compares all pairs in one array."""
    for k, P in enumerate(points, 1):
        if not is_point(P):
            raise NotAPointError(f"construction point {k} of {len(points)} is not a conformal point")
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            scale = max(points[i].max_abs(), points[j].max_abs())
            if (points[i] - points[j]).is_zero(scale=scale):
                raise DegenerateError("coincident points")
    acc = points[0]
    scale = points[0].max_abs()
    for P in points[1:]:
        acc = acc ^ P
        scale = scale * P.max_abs()
    if with_inf:
        acc = acc ^ einf
        scale = scale * 2.0
    if acc.is_zero(scale=scale):
        raise DegenerateError("wedge of construction points vanishes")
    return acc


def _wedge_outcome(build, points, with_inf):
    try:
        return "gives", build(*points, with_inf=with_inf).coeffs
    except GAError as exc:
        return "raises", type(exc).__name__, str(exc)


def _assert_wedges_agree(points, with_inf):
    got = _wedge_outcome(wedge_points, points, with_inf)
    want = _wedge_outcome(_pairwise_wedge_points, points, with_inf)
    if got[0] == want[0] == "gives":
        assert np.array_equal(got[1], want[1])
    else:
        assert got == want
    return got


def _pair_at_the_limit(y: float, above: bool):
    """P at (0, y, 0) and Q at (d, y, 0), where |Q - P| is largest on e1, and d is
    exactly threshold(max(max|P|, max|Q|)), or the float just above it."""
    P = embed_point([0.0, y, 0.0])
    d = tolerance.threshold(1.0)
    for _ in range(100):  # Q's size moves its threshold a little: settle on d
        Q = embed_point([d, y, 0.0])
        limit = tolerance.threshold(max(P.max_abs(), Q.max_abs()))
        want = math.nextafter(limit, math.inf) if above else limit
        if d == want:
            break
        d = want
    assert d == want and np.abs(Q.coeffs - P.coeffs).max() == d == Q.coeffs[0b001]
    return P, Q


_OTHERS = [embed_point(p) for p in ([3.0, 0.5, 1.0], [-1.0, 4.0, 2.0], [0.5, -2.0, -3.0])]


@pytest.mark.parametrize("above", [False, True], ids=["at", "one_ulp_above"])
@pytest.mark.parametrize("y", [0.0, 2.0])
@pytest.mark.parametrize("rel", [0.0, 1e-3])
def test_pair_at_the_coincidence_limit(rel, y, above):
    """At the limit the pair coincides, one ulp above it not; with k = 2, 3, 4 points,
    the pair in every position, with and without einf, as the pairwise loop decides."""
    with tolerance.scope(rel):
        P, Q = _pair_at_the_limit(y, above)
        for k in (2, 3, 4):
            for i, j in itertools.combinations(range(k), 2):
                points = _OTHERS[:k - 2]
                points = points[:i] + [P] + points[i:]
                points = points[:j] + [Q] + points[j:]
                for with_inf in (False, True):
                    got = _assert_wedges_agree(points, with_inf)
                    coincident = got == ("raises", "DegenerateError", "coincident points")
                    assert coincident != above, (k, i, j, with_inf, got)


# (which point to copy, its e1 step in units of the point's threshold, whether to weight the copy)
_copies = st.tuples(st.integers(0, 3), st.one_of(st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0]), st.floats(0.0, 3.0)),
                    st.booleans())


# points near the origin, where max|P| < 1, and out to 1e3
_places = st.one_of(st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
                    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_places, min_size=1, max_size=4),
    st.lists(_copies, max_size=3),
    st.floats(1e-3, 1e3),
    st.booleans(),
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 0.5]),
)
@example([[0.1, 0.2, 0.1]], [(0, 0.999, False)], 1.0, False, 1e-3)
@example([[300.0, 0.0, 1.0], [0.0, 1.0, 0.0]], [(0, 1.001, False), (1, 0.5, True)], 3.0, True, 1e-9)
def test_wedge_points_matches_the_pairwise_loop(coords, copies, weight, with_inf, rel):
    """Random points, some of them weighted or moved copies of another one by
    about the size of its threshold, under several tolerances."""
    with tolerance.scope(rel):
        points = [embed_point(p) for p in coords]
        for source, steps, weighted in copies:
            P = points[source % len(points)]
            Q = P.coeffs.copy()
            Q[0b001] += steps * tolerance.threshold(P.max_abs())
            points.append(ALG.mv(Q) * (weight if weighted else 1.0))
        _assert_wedges_agree(points[:5], with_inf)
