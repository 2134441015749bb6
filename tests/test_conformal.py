"""Conformal model tests: embedding, metric, constructors, classification.

Round parameters (centers, radii) are checked against brute-force linear
circumcenter solves that never touch the algebra under test.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confga import tolerance
from confga import (
    DegenerateError,
    DomainError,
    FlatObjectError,
    MetricError,
    NotABladeError,
    NotAPointError,
    PointAtInfinityError,
    ConformalObject,
    GAError,
    UnknownObjectError,
    classify,
    classify_batch,
    embed_point,
    embed_points,
    extract_point,
    make_circle,
    make_flat_point,
    make_line,
    make_plane_opns,
    make_point_pair,
    make_sphere_opns,
    point_distance,
    reflector_plane,
    reflector_sphere,
    round_params,
    sphere_ipns,
    whole_space,
)
from confga import conformal
from confga.algebra import Multivector, row_product
from confga.conformal import (
    _BLOCK,
    ALG,
    E,
    I5,
    NULL_FROM_PM,
    PM_FROM_NULL,
    e0,
    e1,
    e2,
    e3,
    einf,
    euclid_vector,
    from_null_coeffs,
    is_point,
    plane_vector,
    sphere_vector,
    to_null_coeffs,
    wedge_points,
)
from confga.scene import Scene, write_scene

from conftest import assert_mv_close, assert_proportional, run_ga

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=64)


def circumcenter_circle(p1, p2, p3):
    """In-plane 2x2 solve: center equidistant from three points."""
    a, b = p2 - p1, p3 - p1
    G = np.array([[a @ a, a @ b], [a @ b, b @ b]])
    rhs = np.array([(a @ a) / 2.0, (b @ b) / 2.0])
    u, v = np.linalg.solve(G, rhs)
    c = p1 + u * a + v * b
    return c, float(np.linalg.norm(c - p1))


def circumcenter_sphere(p1, p2, p3, p4):
    """3x3 solve of |c-pi|^2 = |c-p1|^2 for i = 2, 3, 4."""
    mat = 2.0 * np.array([p2 - p1, p3 - p1, p4 - p1])
    rhs = np.array([p @ p - p1 @ p1 for p in (p2, p3, p4)])
    c = np.linalg.solve(mat, rhs)
    return c, float(np.linalg.norm(c - p1))


def rand_point(rng, scale=2.0):
    return rng.uniform(-scale, scale, size=3)


class TestNullBasis:
    def test_null_identities(self):
        # e0^2 = einf^2 = 0, e0 . einf = -1, E = einf ^ e0 squares to +1
        assert (e0 * e0).max_abs() <= 1e-15
        assert (einf * einf).max_abs() <= 1e-15
        assert abs((e0 | einf).scalar_part() + 1.0) <= 1e-15
        assert_mv_close(E * E, ALG.scalar(1.0), tol=1e-15)

    def test_null_absorption(self):
        assert_mv_close(E * e0, e0, tol=1e-15)
        assert_mv_close(e0 * E, -e0, tol=1e-15)
        assert_mv_close(einf * E, einf, tol=1e-15)
        assert_mv_close(E * einf, -einf, tol=1e-15)

    def test_change_of_basis_round_trip(self, rng):
        for _ in range(50):
            mv = ALG.mv(rng.normal(size=32))
            back = from_null_coeffs(to_null_coeffs(mv))
            assert (back - mv).max_abs() <= 1e-15 * max(1.0, mv.max_abs())

    def test_null_coeffs_of_point(self):
        nc = to_null_coeffs(embed_point([1.0, 2.0, 3.0]))
        # generator order e1,e2,e3,e0,einf on bits 0..4
        assert nc[0b00001] == 1.0 and nc[0b00010] == 2.0 and nc[0b00100] == 3.0
        assert nc[0b01000] == 1.0 and nc[0b10000] == 7.0

    def test_block_is_the_wedge_of_null_generators(self):
        """Each column of PM_FROM_NULL, against the construction it replaced: the outer
        product of the column's null generators (e1, e2, e3, e0, einf on bits 0..4)."""
        gens = (e1, e2, e3, e0, einf)
        for bits in range(ALG.dim):
            blade = ALG.scalar(1.0)
            for k in range(5):
                if bits >> k & 1:
                    blade = blade ^ gens[k]
            assert np.array_equal(PM_FROM_NULL[:, bits], blade.coeffs), bits
        assert np.array_equal(PM_FROM_NULL[:, 0b01000], e0.coeffs) and np.array_equal(PM_FROM_NULL[:, 0b10000], einf.coeffs)

    def test_inverse_is_exact(self):
        assert np.array_equal(NULL_FROM_PM @ PM_FROM_NULL, np.eye(ALG.dim))
        assert np.array_equal(PM_FROM_NULL @ NULL_FROM_PM, np.eye(ALG.dim))
        assert set(np.abs(NULL_FROM_PM).ravel().tolist()) | set(np.abs(PM_FROM_NULL).ravel().tolist()) <= {0.0, 0.5, 1.0}
        for M in (PM_FROM_NULL, NULL_FROM_PM):  # no -0.0 entry flips the sign of a zero product
            assert not np.signbit(M[M == 0.0]).any()

    def test_hand_written_readers_read_the_block(self):
        from confga import scene, versor

        # a vector's e0 weight is -einf . x, as e0 . einf = -1
        assert np.array_equal(versor._LOCATION[3], -einf.coeffs * ALG.rev_norm_signs)
        # the rows read a weighted point's w p and w (every float here exact)
        assert np.array_equal(versor._LOCATION @ (2.0 * embed_point([3.0, 4.0, 12.0])).coeffs, [6.0, 8.0, 24.0, 2.0])
        for key, mv in (("e0", e0), ("einf", einf)):
            assert scene._NULL_TERMS[key] == [(k, c) for k, c in enumerate(mv.coeffs.tolist()) if c]
        assert np.array_equal(conformal._LINEAR[:, conformal._COL["e0"]][:, 0], NULL_FROM_PM[0b01000])

    def test_embed_and_locations_are_the_block(self, rng):
        """`_embed` and `_locations` write and read a point's coefficients by hand, e+- = h -+ w/2
        and w = e- - e+: the same floats as the change of basis, out to |p| = 1e8."""
        pts = rng.normal(size=(6000, 3)) * 10.0 ** rng.uniform(-3, 8, size=(6000, 1))
        pts = np.vstack([pts, [[1e8, 0.0, 0.0], [0.0, -0.0, 0.0], [3.0, 4.0, 12.0]]])
        for p in pts:
            nc = np.zeros(ALG.dim)
            nc[[0b00001, 0b00010, 0b00100, 0b01000, 0b10000]] = [*p, 1.0, 0.5 * (p @ p)]
            assert np.array_equal(embed_point(p).coeffs, from_null_coeffs(nc).coeffs), p
        P = embed_points(pts) * rng.uniform(0.2, 5.0, size=(len(pts), 1))
        rows = P[:, [0b00001, 0b00010, 0b00100, 0b01000, 0b10000]]
        loc, errors = conformal._locations(rows)
        w = P @ NULL_FROM_PM[0b01000]
        assert len(errors) < len(pts) // 2  # weighted points past about 1e4 are refused
        for r in sorted(set(range(len(pts))) - set(errors)):
            assert np.array_equal(loc[r], rows[r, :3] / w[r]), r


class TestPoints:
    def test_embed_unit_x(self):
        # P(1,0,0) = e1 + (1/2) einf + e0 = e1 + e- in the +/- basis
        P = embed_point([1.0, 0.0, 0.0])
        assert_mv_close(P, e1 + ALG.basis_vector(4), tol=1e-15)

    def test_point_is_null(self, rng):
        for _ in range(100):
            P = embed_point(rand_point(rng, 50.0))
            assert (P * P).max_abs() <= 1e-10 * max(1.0, P.max_abs() ** 2)

    @given(x=coord, y=coord, z=coord)
    @settings(max_examples=60, deadline=None)
    def test_embed_extract_round_trip(self, x, y, z):
        p = np.array([x, y, z])
        got = extract_point(embed_point(p))
        assert np.max(np.abs(got - p)) <= 1e-12 * (1.0 + np.max(np.abs(p)))

    def test_extract_is_scale_invariant(self):
        P = embed_point([3.0, -2.0, 0.5])
        got = extract_point(-7.25 * P)
        assert np.max(np.abs(got - [3.0, -2.0, 0.5])) <= 1e-12

    def test_distance_matches_euclid(self, rng):
        for _ in range(200):
            p, q = rand_point(rng, 10.0), rand_point(rng, 10.0)
            d = point_distance(embed_point(p), embed_point(q))
            assert abs(d - np.linalg.norm(p - q)) <= 1e-12 * (1.0 + p @ p + q @ q)

    def test_distance_inner_product_form(self):
        # <P1 P2>_0 = -(1/2)|p1-p2|^2: unit separation gives -0.5
        P1, P2 = embed_point([0, 0, 0]), embed_point([1, 0, 0])
        assert abs((P1 | P2).scalar_part() + 0.5) <= 1e-15

    def test_extract_rejects_non_point(self):
        with pytest.raises(NotAPointError):
            extract_point(e1)  # unit vector, not null
        with pytest.raises(NotAPointError):
            extract_point(e1 ^ e2)
        with pytest.raises(PointAtInfinityError):
            extract_point(einf)
        with pytest.raises(NotAPointError, match=r"^zero multivector is not a point$"):
            extract_point(ALG.zero())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_extract_refuses_non_finite_coefficients(self, bad):
        P = Multivector(ALG, np.where(np.arange(ALG.dim) == 0b00001, bad, embed_point([1.0, 2.0, 3.0]).coeffs))
        with pytest.raises(DomainError) as info:
            extract_point(P)
        assert str(info.value) == f"non-finite coefficient {bad!r} on e1"

    def test_extract_refuses_rows_below_underflow(self):
        # every coefficient below tolerance.UNDERFLOW: a zero multivector, as classify has it
        with pytest.raises(NotAPointError, match=r"^zero multivector is not a point$"):
            extract_point(1e-300 * embed_point([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("k", [-480, 500, 990])
    def test_extract_at_power_of_two_weights_is_bit_for_bit(self, k):
        P = embed_point([3.0, -2.0, 0.5])
        assert extract_point(2.0**k * P).tobytes() == extract_point(P).tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("first", [True, False])
    def test_distance_refuses_non_finite_coefficients(self, bad, first):
        P = embed_point([1.0, 2.0, 3.0])
        Q = Multivector(ALG, np.where(np.arange(ALG.dim) == 0b00010, bad, P.coeffs))
        with pytest.raises(DomainError) as info:
            point_distance(Q, P) if first else point_distance(P, Q)
        assert str(info.value) == f"non-finite coefficient {bad!r} on e2"

    def test_distance_rejects_positive_inner(self):
        P, Q = embed_point([0.0, 0.0, 0.0]), embed_point([1.0, 0.0, 0.0])
        with pytest.raises(MetricError):
            point_distance(P, -Q)  # two points, of weights 1 and -1

    @pytest.mark.parametrize("first", [True, False])
    def test_distance_refuses_a_non_point(self, first):
        # an IPNS sphere is no point: once its inner product gave a "distance" of 4.899
        sigma, P = sphere_vector([3.0, 4.0, 0.0], 1.0), embed_point([0.0, 0.0, 0.0])
        with pytest.raises(NotAPointError, match=rf"^distance argument {1 if first else 2} of 2 is not a conformal point$"):
            point_distance(sigma, P) if first else point_distance(P, sigma)

    def test_extract_refuses_far_spheres(self):
        # r^2 of a sphere far out is well above its rounding, so no rule may read it as a point
        for c, r in [(1e2, 0.5), (1e2, 3.0), (1e2, 30.0), (1e3, 0.5), (1e3, 3.0), (1e3, 30.0), (1e4, 3.0), (1e4, 30.0)]:
            with pytest.raises(NotAPointError, match=r"^vector is not null; not a conformal point$"):
                extract_point(sphere_vector([c, 0.0, 0.0], r))

    @pytest.mark.parametrize("radius", [1e5, 1e6, 1e7])
    def test_extract_far_unit_weight_points_exactly(self, rng, radius):
        # e+ and e- are |p|^2/2 -+ 1/2 exactly here, so the weight is 1 and the location p
        for _ in range(50):
            p = radius * _unit(rng)
            assert extract_point(embed_point(p)).tolist() == p.tolist()

    def test_one_point_rule(self, rng):
        """is_point, extract_point and wedge_points take the same rows as points."""
        rows = [einf, -2.5 * einf, ALG.zero(), 1e-300 * embed_point([1.0, 2.0, 3.0]), e1 + 1e-3 * einf]
        for _ in range(60):
            c, w = 10.0 ** rng.uniform(0.0, 4.0) * _unit(rng), rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
            rows += [
                w * embed_point(10.0 ** rng.uniform(0.0, 8.0) * _unit(rng)),
                w * sphere_vector(c, math.sqrt(10.0 ** rng.uniform(-12.0, 4.0))),
                w * plane_vector(_unit(rng), float(rng.uniform(-10.0, 10.0))),
                w * embed_point(c) + 10.0 ** rng.uniform(-12.0, 0.0) * w * c[0] ** 2 * (e1 ^ e2),  # off-grade noise
            ]
        taken = []
        for v in rows:
            want = is_point(v)
            try:
                extract_point(v)
                extracted = True
            except (NotAPointError, PointAtInfinityError):
                extracted = False
            try:
                wedge_points(v, with_inf=True)
                wedged = True
            except NotAPointError:
                wedged = False
            except DegenerateError:
                wedged = True
            assert extracted == want and wedged == want, v
            taken.append(want)
        assert 60 <= sum(taken) <= len(rows) - 100  # both sides of the rule are drawn


class TestRounds:
    def test_point_pair_params(self, rng):
        for _ in range(50):
            p, q = rand_point(rng), rand_point(rng)
            if np.linalg.norm(p - q) < 1e-3:
                continue
            obj = make_point_pair(embed_point(p), embed_point(q))
            assert obj.kind == "point_pair"
            assert obj.params["sign"] == "real"
            mid, r2 = (p + q) / 2.0, (np.linalg.norm(p - q) / 2.0) ** 2
            assert np.max(np.abs(np.array(obj.params["center"]) - mid)) <= 1e-10
            assert abs(obj.params["radius2"] - r2) <= 1e-10
            got = sorted(obj.params["points"])
            want = sorted([tuple(p), tuple(q)])
            for g, w in zip(got, want):
                assert np.max(np.abs(np.array(g) - np.array(w))) <= 1e-9

    def test_circle_against_circumcenter_solve(self, rng):
        for _ in range(50):
            pts = [rand_point(rng) for _ in range(3)]
            try:
                c, r = circumcenter_circle(*pts)
            except np.linalg.LinAlgError:
                continue
            if r > 1e3:
                continue
            obj = make_circle(*(embed_point(p) for p in pts))
            assert obj.kind == "circle"
            scale = 1.0 + float(c @ c) + r * r
            assert np.max(np.abs(np.array(obj.params["center"]) - c)) <= 1e-8 * scale
            assert abs(obj.params["radius2"] - r * r) <= 1e-8 * scale
            n = np.array(obj.params["normal"])
            for p in pts:
                assert abs(n @ (p - c)) <= 1e-7 * scale

    def test_sphere_against_circumsphere_solve(self, rng):
        for _ in range(50):
            pts = [rand_point(rng) for _ in range(4)]
            try:
                c, r = circumcenter_sphere(*pts)
            except np.linalg.LinAlgError:
                continue
            if r > 1e3:
                continue
            obj = make_sphere_opns(*(embed_point(p) for p in pts))
            assert obj.kind == "sphere" and obj.params["form"] == "opns"
            scale = 1.0 + float(c @ c) + r * r
            assert np.max(np.abs(np.array(obj.params["center"]) - c)) <= 1e-8 * scale
            assert abs(obj.params["radius2"] - r * r) <= 1e-8 * scale

    def test_sphere_ipns_square_is_radius_squared(self, rng):
        for _ in range(30):
            c, r = rand_point(rng, 5.0), float(rng.uniform(0.1, 4.0))
            sigma = sphere_ipns(c, r).mv
            assert abs((sigma * sigma).scalar_part() - r * r) <= 1e-10 * (1.0 + c @ c) ** 2

    def test_sphere_ipns_params(self):
        obj = sphere_ipns([1.0, -2.0, 0.0], 3.0)
        assert obj.kind == "sphere" and obj.params["form"] == "ipns"
        assert np.max(np.abs(np.array(obj.params["center"]) - [1.0, -2.0, 0.0])) <= 1e-12
        assert abs(obj.params["radius2"] - 9.0) <= 1e-12

    def test_sphere_ipns_zero_radius_is_point(self):
        obj = sphere_ipns([0.5, 0.5, 0.5], 0.0)
        assert obj.kind == "point"
        assert np.max(np.abs(np.array(obj.params["location"]) - 0.5)) <= 1e-12

    def test_sphere_ipns_negative_radius(self):
        with pytest.raises(DomainError):
            sphere_ipns([0, 0, 0], -1.0)

    def test_imaginary_sphere(self):
        # sigma = P(c) - (1/2) r^2 einf with r^2 = -4
        sigma = embed_point([1.0, 0.0, 0.0]) + 2.0 * einf
        obj = classify(sigma)
        assert obj.kind == "sphere" and obj.params["sign"] == "imaginary"
        assert abs(obj.params["radius2"] + 4.0) <= 1e-12
        assert np.max(np.abs(np.array(obj.params["center"]) - [1.0, 0.0, 0.0])) <= 1e-12
        dual_obj = classify(sigma.dual())
        assert dual_obj.kind == "sphere" and dual_obj.params["sign"] == "imaginary"
        assert abs(dual_obj.params["radius2"] + 4.0) <= 1e-12

    def test_opns_ipns_sphere_duality(self, rng):
        for _ in range(20):
            pts = [rand_point(rng) for _ in range(4)]
            try:
                c, r = circumcenter_sphere(*pts)
            except np.linalg.LinAlgError:
                continue
            if r > 1e3:
                continue
            S = make_sphere_opns(*(embed_point(p) for p in pts)).mv
            sigma = sphere_ipns(c, r).mv
            assert_proportional(S.dual(), sigma, tol=1e-7 * (1.0 + c @ c + r * r))

    def test_round_params_function(self):
        obj = sphere_ipns([0, 0, 1], 2.0)
        got = round_params(obj.mv)
        assert got["sign"] == "real"
        assert abs(got["radius2"] - 4.0) <= 1e-12
        with pytest.raises(FlatObjectError):
            round_params(make_line(embed_point([0, 0, 0]), embed_point([1, 0, 0])).mv)
        with pytest.raises(FlatObjectError):
            round_params(e1 + 0.5 * einf)


class TestFlats:
    def test_line_axis(self):
        obj = make_line(embed_point([0, 0, 0]), embed_point([1, 0, 0]))
        assert obj.kind == "line"
        assert np.max(np.abs(np.array(obj.params["direction"]) - [1, 0, 0])) <= 1e-14
        assert np.max(np.abs(obj.params["moment"])) <= 1e-14

    def test_line_moment_is_direction_wedge_point(self):
        # line through (0,1,0) along x: m = d ^ p = e1 ^ e2
        obj = make_line(embed_point([0, 1, 0]), embed_point([1, 1, 0]))
        assert np.max(np.abs(np.array(obj.params["direction"]) - [1, 0, 0])) <= 1e-14
        assert np.max(np.abs(np.array(obj.params["moment"]) - [1, 0, 0])) <= 1e-14

    def test_line_params_independent_of_construction(self, rng):
        for _ in range(30):
            p, d = rand_point(rng), rng.normal(size=3)
            d /= np.linalg.norm(d)
            t = rng.uniform(-3, 3, size=4)
            o1 = make_line(embed_point(p + t[0] * d), embed_point(p + t[1] * d))
            o2 = make_line(embed_point(p + t[2] * d), embed_point(p + t[3] * d))
            assert np.max(np.abs(np.array(o1.params["direction"]) - o2.params["direction"])) <= 1e-9
            assert np.max(np.abs(np.array(o1.params["moment"]) - o2.params["moment"])) <= 1e-8

    def test_line_point_recovery(self, rng):
        # closest point to origin is d _| m, rebuilt line matches the blade
        for _ in range(20):
            p, q = rand_point(rng), rand_point(rng)
            if np.linalg.norm(p - q) < 1e-3:
                continue
            obj = make_line(embed_point(p), embed_point(q))
            d = euclid_vector(obj.params["direction"])
            m12, m13, m23 = obj.params["moment"]
            m = m12 * (e1 ^ e2) + m13 * (e1 ^ e3) + m23 * (e2 ^ e3)
            foot = d | m
            p0 = np.array([foot.coeff(0b001), foot.coeff(0b010), foot.coeff(0b100)])
            dv = np.array(obj.params["direction"])
            rebuilt = make_line(embed_point(p0), embed_point(p0 + dv))
            assert_proportional(rebuilt.mv, obj.mv, tol=1e-7)

    def test_plane_unit_simplex(self):
        pts = ([1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0])
        obj = make_plane_opns(*(embed_point(p) for p in pts))
        assert obj.kind == "plane" and obj.params["form"] == "opns"
        s = 1.0 / math.sqrt(3.0)
        assert np.max(np.abs(np.array(obj.params["normal"]) - s)) <= 1e-12
        assert abs(obj.params["distance"] - s) <= 1e-12

    def test_plane_through_origin_sign_canonical(self):
        pts = ([0.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0])  # plane x = 0
        obj = make_plane_opns(*(embed_point(p) for p in pts))
        assert np.max(np.abs(np.array(obj.params["normal"]) - [1, 0, 0])) <= 1e-12
        assert abs(obj.params["distance"]) <= 1e-12

    def test_plane_ipns_vector(self):
        # pi = n + d einf classifies directly
        pi = euclid_vector([0.0, 0.0, 1.0]) + 2.0 * einf
        obj = classify(pi)
        assert obj.kind == "plane" and obj.params["form"] == "ipns"
        assert np.max(np.abs(np.array(obj.params["normal"]) - [0, 0, 1])) <= 1e-14
        assert abs(obj.params["distance"] - 2.0) <= 1e-14

    def test_plane_members_satisfy_ipns(self, rng):
        for _ in range(20):
            pts = [rand_point(rng) for _ in range(3)]
            try:
                _, r = circumcenter_circle(*pts)
            except np.linalg.LinAlgError:
                continue
            obj = make_plane_opns(*(embed_point(p) for p in pts))
            n, dist = np.array(obj.params["normal"]), obj.params["distance"]
            for p in pts:
                assert abs(n @ p - dist) <= 1e-8 * (1.0 + np.max(np.abs(p)))

    def test_flat_point(self):
        obj = make_flat_point(embed_point([2.0, -1.0, 3.0]))
        assert obj.kind == "flat_point"
        assert np.max(np.abs(np.array(obj.params["location"]) - [2.0, -1.0, 3.0])) <= 1e-13

    def test_flat_point_at_origin_is_minus_E(self):
        obj = make_flat_point(embed_point([0.0, 0.0, 0.0]))
        assert_mv_close(obj.mv, -E, tol=1e-15)

    def test_whole_space(self):
        obj = whole_space()
        assert obj.kind == "space"
        assert_mv_close(obj.mv, I5, tol=0.0)


class TestClassify:
    def test_collinear_circle_degrades_to_line(self):
        pts = ([0.0, 0, 0], [1.0, 0, 0], [2.5, 0, 0])
        obj = make_circle(*(embed_point(p) for p in pts))
        assert obj.kind == "line"
        assert np.max(np.abs(np.array(obj.params["direction"]) - [1, 0, 0])) <= 1e-12

    def test_coplanar_sphere_degrades_to_plane(self):
        # non-concyclic coplanar points: the unique "sphere" is the plane
        pts = ([0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [3.0, 3.0, 0])
        obj = make_sphere_opns(*(embed_point(p) for p in pts))
        assert obj.kind == "plane"

    def test_concyclic_points_degenerate(self):
        # four corners of a square share a circle; their wedge vanishes
        pts = ([0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0])
        with pytest.raises(DegenerateError):
            make_sphere_opns(*(embed_point(p) for p in pts))

    def test_coincident_points_degenerate(self):
        P = embed_point([1.0, 1.0, 1.0])
        with pytest.raises(DegenerateError):
            make_point_pair(P, P)
        with pytest.raises(DegenerateError):
            make_circle(P, embed_point([0, 0, 0]), P)

    def test_classify_point(self):
        obj = classify(3.0 * embed_point([1.0, 2.0, -1.0]))
        assert obj.kind == "point"
        assert np.max(np.abs(np.array(obj.params["location"]) - [1.0, 2.0, -1.0])) <= 1e-12

    def test_randomized_kind_round_trip(self, rng):
        kinds = {k: 0 for k in ("point_pair", "circle", "sphere", "line", "plane", "flat_point")}
        for _ in range(200):
            pts = [embed_point(rand_point(rng)) for _ in range(4)]
            which = rng.integers(0, 6)
            if which == 0:
                obj, want = make_point_pair(pts[0], pts[1]), "point_pair"
            elif which == 1:
                obj, want = make_circle(pts[0], pts[1], pts[2]), "circle"
            elif which == 2:
                obj, want = make_sphere_opns(*pts), "sphere"
            elif which == 3:
                obj, want = make_line(pts[0], pts[1]), "line"
            elif which == 4:
                obj, want = make_plane_opns(pts[0], pts[1], pts[2]), "plane"
            else:
                obj, want = make_flat_point(pts[0]), "flat_point"
            assert obj.kind == want
            # classify is stable under rescaling of the blade
            again = classify(float(rng.uniform(0.2, 5.0)) * obj.mv)
            assert again.kind == want
            kinds[want] += 1
        assert all(v > 0 for v in kinds.values())

    def test_opns_membership_and_duality(self, rng):
        # x on A  <=>  x ^ A = 0  <=>  x _| A* = 0
        for _ in range(30):
            pts = [rand_point(rng) for _ in range(3)]
            try:
                c, r = circumcenter_circle(*pts)
            except np.linalg.LinAlgError:
                continue
            if r > 1e3:
                continue
            A = make_circle(*(embed_point(p) for p in pts)).mv
            Ad = A.dual()
            scale = max(1.0, A.max_abs())
            for p in pts:
                X = embed_point(p)
                assert (X ^ A).max_abs() <= 1e-9 * scale * X.max_abs()
                assert (X | Ad).max_abs() <= 1e-9 * scale * X.max_abs()
            off = embed_point(c + np.array([0.0, 0.0, 2.0 * r + 1.0]))
            assert (off ^ A).max_abs() > 1e-6 * scale
            assert (off | Ad).max_abs() > 1e-6 * scale

    def test_reconstruction_from_params(self, rng):
        for _ in range(20):
            c, r = rand_point(rng), float(rng.uniform(0.5, 3.0))
            obj = sphere_ipns(c, r)
            rebuilt = sphere_ipns(obj.params["center"], math.sqrt(obj.params["radius2"]))
            assert_proportional(rebuilt.mv, obj.mv, tol=1e-9)

    def test_circle_rebuild_from_params(self, rng):
        for _ in range(20):
            pts = [rand_point(rng) for _ in range(3)]
            try:
                _, r = circumcenter_circle(*pts)
            except np.linalg.LinAlgError:
                continue
            if r > 1e2:
                continue
            obj = make_circle(*(embed_point(p) for p in pts))
            c = np.array(obj.params["center"])
            r = math.sqrt(obj.params["radius2"])
            n = np.array(obj.params["normal"])
            seed = np.array([1.0, 0.0, 0.0])
            if abs(n @ seed) > 0.9:
                seed = np.array([0.0, 1.0, 0.0])
            u = np.cross(n, seed)
            u /= np.linalg.norm(u)
            v = np.cross(n, u)
            rebuilt = make_circle(
                embed_point(c + r * u), embed_point(c + r * v), embed_point(c - r * u)
            )
            assert_proportional(rebuilt.mv, obj.mv, tol=1e-6)


class TestClassifyErrors:
    def test_rejects_scalar(self):
        with pytest.raises(UnknownObjectError):
            classify(ALG.scalar(2.0))

    def test_rejects_mixed_grades(self):
        with pytest.raises(NotABladeError):
            classify(e1 + (e1 ^ e2))

    def test_rejects_non_blade(self):
        with pytest.raises(NotABladeError):
            classify((e1 ^ e2) + (e3 ^ ALG.basis_vector(3)))

    def test_rejects_point_at_infinity(self):
        with pytest.raises(UnknownObjectError):
            classify(einf)
        with pytest.raises(UnknownObjectError):
            classify(e1 ^ einf)  # flat point pushed to infinity has no location

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            coeffs = embed_point([1.0, 2.0, 3.0]).coeffs.copy()
            coeffs[0b00010] = bad
            with pytest.raises(DomainError, match="non-finite"):
                classify(ALG.mv(coeffs))
        with pytest.raises(DomainError, match="non-finite"):
            classify(ALG.mv(np.full(ALG.dim, math.nan)))
        with pytest.raises(DomainError, match="non-finite"):
            round_params(ALG.mv(np.full(ALG.dim, math.inf)))


class TestEmbedPoints:
    @staticmethod
    def reference_embed(p):
        # the per-point formula embed_point used before it became embed_points' one-row case
        arr = np.asarray(p, dtype=float)
        return euclid_vector(arr) + (0.5 * float(arr @ arr)) * einf + e0

    def test_rows_match_per_point_formula_bit_for_bit(self, rng):
        pts = rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-3.0, 5.0, size=(500, 1))
        rows = embed_points(pts)
        assert rows.shape == (500, ALG.dim)
        for p, row in zip(pts, rows):
            want = self.reference_embed(p).coeffs
            assert np.array_equal(row, want)
            assert np.array_equal(embed_point(p).coeffs, want)

    def test_empty_and_shape(self):
        assert embed_points(np.zeros((0, 3))).shape == (0, ALG.dim)
        with pytest.raises(ValueError):
            embed_points(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            embed_point([1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coordinates(self, bad):
        with pytest.raises(DomainError, match=repr(bad)):
            embed_point([bad, 0.0, 0.0])
        pts = np.zeros((3, 3))
        pts[2, 1] = bad
        with pytest.raises(DomainError, match="not finite"):
            embed_points(pts)

    def test_rejects_squared_norm_overflow(self):
        with pytest.raises(DomainError, match="1e\\+200"):
            embed_point([1e200, 0.0, 0.0])
        with pytest.raises(DomainError, match="overflows"):
            embed_points(np.array([[0.0, 0.0, 0.0], [0.0, -2e154, 0.0]]))
        # the largest squared norms that stay finite are accepted
        assert np.all(np.isfinite(embed_point([1e154, 0.0, 0.0]).coeffs))


# -- reference: per-object classification -------------------------------------
#
# The object-at-a-time decision tree that `classify_batch` replaced, kept as
# the oracle its rows are compared against. It runs on Multivector products
# only and shares no code with the batched path.


def _ref_e0(mv):
    return float(mv.coeffs[0b10000] - mv.coeffs[0b01000])


def ref_extract_point(P):
    """The one point rule, on one Multivector at unit scale: nonzero, e0 weight
    w above UNDERFLOW, and r^2 = (|a|^2 - w (e+ + e-)) / w^2 within the radius
    limit at |a|^2 / w^2 (w taken as 1 for the null test of a row with none)."""
    gs = P.grades()
    if gs and gs != frozenset({1}):
        raise NotAPointError(f"not a grade-1 vector (grades {sorted(gs)})")
    scale = P.max_abs()
    if scale == 0.0:
        raise NotAPointError("zero multivector is not a point")
    x = np.ldexp(P.coeffs, -math.frexp(scale)[1])
    a, plus, minus = x[[0b001, 0b010, 0b100]], float(x[0b01000]), float(x[0b10000])
    w = minus - plus
    w_or_1 = w if abs(w) > tolerance.UNDERFLOW else 1.0
    a2 = float(a @ a)
    if not abs((a2 - w * (plus + minus)) / w_or_1 / w_or_1) <= tolerance.threshold(1.0 + a2 / w_or_1 / w_or_1) * 10.0:
        raise NotAPointError("vector is not null; not a conformal point")
    if abs(w) <= tolerance.UNDERFLOW:
        raise PointAtInfinityError("no finite location: e0 coefficient vanishes")
    return a / w


def _ref_clean_vec(arr):
    return tuple(float(v) + 0.0 for v in arr)


def _ref_dominant_grade(mv):
    gs = mv.grades()
    if not gs:
        raise UnknownObjectError("zero multivector")
    if len(gs) > 1:
        raise NotABladeError(f"grade-inhomogeneous multivector (grades {sorted(gs)})")
    m = mv * ~mv
    off = m - m.grade(0)
    if not off.is_zero(scale=max(abs(m.scalar_part()), mv.max_abs() ** 2)):
        raise NotABladeError("mv * ~mv is not scalar; not a blade")
    return next(iter(gs))


def _ref_is_flat(mv):
    return (mv ^ einf).is_zero(scale=max(1.0, 2.0 * mv.max_abs()))


_REF_ROUND_SIGN = {1: 1.0, 2: 1.0, 3: -1.0, 4: 1.0}


def _ref_round(mv, grade):
    carrier = einf | mv
    bot = (carrier * carrier).scalar_part()
    if abs(bot) <= tolerance.threshold(mv.max_abs() ** 2):
        raise DegenerateError("round has no finite carrier; cannot extract radius")
    center = ref_extract_point((mv * einf * mv).grade(1))
    top = (mv * mv).scalar_part()
    return center, _REF_ROUND_SIGN[grade] * top / bot


def _ref_label(r2, center):
    if abs(r2) <= tolerance.threshold(1.0 + float(center @ center)) * 10.0:
        return "degenerate"
    return "real" if r2 > 0 else "imaginary"


def _ref_direction(d_raw):
    norm = float(np.linalg.norm(d_raw))
    if norm == 0.0:
        raise DegenerateError("vanishing direction")
    first = next((v for v in d_raw if abs(v) > tolerance.threshold(norm)), norm)
    alpha = norm if first >= 0 else -norm
    return d_raw / alpha, alpha


def _ref_plane(vec):
    nc = to_null_coeffs(vec)
    n_raw = nc[[1, 2, 4]]
    dist_raw = float(nc[0b10000])
    norm = float(np.linalg.norm(n_raw))
    if norm == 0.0:
        raise DegenerateError("plane with zero normal")
    alpha = norm
    if dist_raw < -tolerance.threshold(norm) * 10.0:
        alpha = -norm
    elif abs(dist_raw) <= tolerance.threshold(norm) * 10.0:
        first = next((v for v in n_raw if abs(v) > tolerance.threshold(norm)), norm)
        if first < 0:
            alpha = -norm
    return {"normal": _ref_clean_vec(n_raw / alpha), "distance": float(dist_raw / alpha) + 0.0}


def _ref_round_params(mv, grade):
    center, r2 = _ref_round(mv, grade)
    return center, r2, {"center": _ref_clean_vec(center), "radius2": float(r2) + 0.0, "sign": _ref_label(r2, center)}


def reference_classify(mv):
    """(kind, params) of one blade, by the object-at-a-time tree."""
    g = _ref_dominant_grade(mv)
    if g == 0:
        raise UnknownObjectError("scalars are not conformal objects")
    if g == 5:
        return "space", {}
    if g == 1:
        if abs(_ref_e0(mv)) <= tolerance.threshold(mv.max_abs()):
            nc = to_null_coeffs(mv)
            if np.max(np.abs(nc[[1, 2, 4]])) <= tolerance.threshold(mv.max_abs()):
                raise UnknownObjectError("pure einf direction (point at infinity)")
            return "plane", {**_ref_plane(mv), "form": "ipns"}
        center, _, params = _ref_round_params(mv, 1)
        if params["sign"] == "degenerate":
            return "point", {"location": params["center"]}
        return "sphere", {**params, "form": "ipns"}
    flat = _ref_is_flat(mv)
    if g == 2:
        if flat:
            nc = to_null_coeffs(mv)
            w = nc[0b11000]
            if abs(w) <= tolerance.threshold(mv.max_abs()):
                raise UnknownObjectError("flat point at infinity")
            return "flat_point", {"location": _ref_clean_vec(nc[[0b10001, 0b10010, 0b10100]] / w)}
        _, _, params = _ref_round_params(mv, 2)
        if params["sign"] == "real":
            beta = math.sqrt((mv * mv).scalar_part())
            F = mv / beta
            t = einf | mv
            plus = 0.5 * (ALG.scalar(1.0) + F) * t
            minus = 0.5 * (ALG.scalar(1.0) - F) * t
            a, b = ref_extract_point(minus.grade(1)), ref_extract_point(plus.grade(1))
            params["points"] = (_ref_clean_vec(a), _ref_clean_vec(b))
        return "point_pair", params
    if g == 3:
        if flat:
            nc = to_null_coeffs(mv)
            d, alpha = _ref_direction(nc[[0b11001, 0b11010, 0b11100]])
            m = nc[[0b10011, 0b10101, 0b10110]] / alpha
            return "line", {"direction": _ref_clean_vec(d), "moment": _ref_clean_vec(m)}
        _, _, params = _ref_round_params(mv, 3)
        n_raw = to_null_coeffs((mv ^ einf).dual().grade(1))[[1, 2, 4]]
        if float(np.linalg.norm(n_raw)) > tolerance.threshold(mv.max_abs()):
            params["normal"] = _ref_clean_vec(_ref_direction(n_raw)[0])
        return "circle", params
    if flat:
        return "plane", {**_ref_plane(mv.dual().grade(1)), "form": "opns"}
    _, _, params = _ref_round_params(mv, 4)
    return "sphere", {**params, "form": "opns"}


# -- batched classification ----------------------------------------------------


def _unit(rng):
    d = rng.normal(size=3)
    return d / np.linalg.norm(d)


def classification_mix(rng, rounds: int = 14) -> list:
    """Every kind at offsets 10^0..10^4, rescaled, plus rows each tree
    branch refuses: zero, scalar, mixed grades, non-blades, points at
    infinity, imaginary and degenerate rounds, collinear and coplanar
    degenerations."""
    P = embed_point
    mix = [
        ALG.zero(), ALG.scalar(2.0), e1 + (e1 ^ e2), (e1 ^ e2) + (e3 ^ ALG.basis_vector(3)),
        einf, -3.0 * einf, e1 ^ einf, e1 ^ e2, e1, I5, e1 ^ e2 ^ e3 ^ e0 ^ einf,
        P([0.0, 0, 0]) ^ P([1.0, 0, 0]) ^ P([0, 1.0, 0]) ^ P([1.0, 1.0, 0]),
    ]
    for k in range(rounds):
        o = _unit(rng) * 10.0 ** (4.0 * k / (rounds - 1))
        p = [o + rng.uniform(-1.0, 1.0, 3) for _ in range(4)]
        c, r = o + rng.uniform(-1.0, 1.0, 3), float(rng.uniform(0.3, 2.0))
        n1, n2 = _unit(rng), _unit(rng)
        plane1 = euclid_vector(n1) + float(n1 @ c) * einf
        plane2 = euclid_vector(n2) + float(n2 @ c) * einf
        real, imag = P(c) - (0.5 * r * r) * einf, P(c) + (0.5 * r * r) * einf
        d = _unit(rng)
        u = np.cross(d, n1)
        objects = [
            P(p[0]),
            P(p[0]) ^ P(p[1]),
            P(p[0]) ^ P(p[1]) ^ P(p[2]),
            P(p[0]) ^ P(p[1]) ^ P(p[2]) ^ P(p[3]),
            real,
            P(p[0]) ^ einf,
            P(p[0]) ^ P(p[1]) ^ einf,
            P(p[0]) ^ P(p[1]) ^ P(p[2]) ^ einf,
            plane1,
            (real ^ plane1).dual(),
            (real ^ plane1 ^ plane2).dual(),
            imag,
            imag.dual(),
            (imag ^ plane1).dual(),
            (imag ^ plane1 ^ plane2).dual(),
            (P(c) ^ plane1).dual(),
            (P(c) ^ plane1 ^ plane2).dual(),
            P(c) ^ P(c + d) ^ P(c + 2.5 * d),
            P(c) ^ P(c + d) ^ P(c + u) ^ P(c + 3.0 * d + 2.0 * u),
            ALG.mv(np.where(ALG.grades == 1 + k % 4, rng.normal(size=ALG.dim), 0.0)),
        ]
        mix += [float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0)) * mv for mv in objects]
    return mix


def reference_outcome(mv):
    try:
        return reference_classify(mv)
    except GAError as exc:
        return exc


def assert_params_close(got, want, rel=1e-12):
    assert list(got) == list(want)
    for key, w in want.items():
        g = got[key]
        if isinstance(w, str):
            assert g == w, key
            continue
        gv, wv = np.array(g, dtype=float), np.array(w, dtype=float)
        assert gv.shape == wv.shape, key
        assert np.max(np.abs(gv - wv), initial=0.0) <= rel * max(1.0, np.max(np.abs(wv), initial=0.0)), key


def assert_same_outcome(got, want):
    if isinstance(want, GAError):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
    else:
        assert not isinstance(got, GAError), (got, want)
        assert got.kind == want[0]
        assert_params_close(got.params, want[1])


def _rows(mvs) -> np.ndarray:
    return np.array([mv.coeffs for mv in mvs]).reshape(-1, ALG.dim)


class TestClassifyBatch:
    def test_matches_per_object_reference(self, rng):
        mix = classification_mix(rng, rounds=_BLOCK // 20 + 1)  # 20 objects a round: past one block
        got = classify_batch(_rows(mix))
        assert len(got) == len(mix) > _BLOCK
        kinds, errors = set(), set()
        for mv, outcome in zip(mix, got):
            want = reference_outcome(mv)
            assert_same_outcome(outcome, want)
            if isinstance(want, GAError):
                errors.add(str(want))
            else:
                kinds.add(want[0] if want[0] != "sphere" else f"sphere_{want[1]['form']}")
                kinds.add(f"sign_{want[1].get('sign')}")
        assert {"point", "point_pair", "circle", "sphere_ipns", "sphere_opns", "flat_point", "line",
                "plane", "space", "sign_real", "sign_imaginary", "sign_degenerate"} <= kinds
        assert len(errors) >= 6, errors

    def test_one_row_case_raises_that_rows_error(self, rng):
        for mv in classification_mix(rng, rounds=4):
            want = reference_outcome(mv)
            if isinstance(want, GAError):
                with pytest.raises(type(want)) as info:
                    classify(mv)
                assert str(info.value) == str(want)
            else:
                assert_same_outcome(classify(mv), want)

    def test_round_params_matches_reference(self, rng):
        for mv in classification_mix(rng, rounds=4):
            try:
                g = _ref_dominant_grade(mv)
                if g not in _REF_ROUND_SIGN:
                    raise UnknownObjectError(f"grade {g} is not a round object")
                if g > 1 and _ref_is_flat(mv):
                    raise FlatObjectError("flat object has no center/radius")
                if g == 1 and abs(_ref_e0(mv)) <= tolerance.threshold(mv.max_abs()):
                    raise FlatObjectError("grade-1 flat (plane) has no center/radius")
                want = _ref_round_params(mv, g)[2]
            except GAError as exc:
                with pytest.raises(type(exc)) as info:
                    round_params(mv)
                assert str(info.value) == str(exc)
                continue
            assert_params_close(round_params(mv), want)

    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_rows_do_not_depend_on_their_neighbours(self, rng, n):
        mix = classification_mix(rng)
        rows = _rows(mix[:n] if len(mix) >= n else (mix * (n // len(mix) + 1))[:n])
        batch = classify_batch(rows)
        perm = rng.permutation(n)
        permuted = classify_batch(rows[perm])
        for i in (0, n // 2, n - 2, n - 1):
            alone = classify_batch(rows[i:i + 1])[0]
            for other in (batch[i], permuted[int(np.flatnonzero(perm == i)[0])]):
                if isinstance(alone, GAError):
                    assert type(other) is type(alone) and str(other) == str(alone)
                else:
                    assert (other.kind, other.params) == (alone.kind, alone.params)
        for i, j in enumerate(perm):
            a, b = permuted[i], batch[j]
            if isinstance(a, GAError):
                assert type(b) is type(a) and str(b) == str(a)
            else:
                assert (a.kind, a.params) == (b.kind, b.params)

    def test_empty_and_shape(self):
        assert classify_batch(np.zeros((0, ALG.dim))) == []
        with pytest.raises(ValueError):
            classify_batch(np.zeros((3, 8)))

    def test_non_finite_rows_fail_alone(self):
        rows = _rows([embed_point([1.0, 0.0, 0.0]), ALG.scalar(1.0), embed_point([0.0, 2.0, 0.0])])
        rows[1, 5] = math.nan
        got = classify_batch(rows)
        assert got[0].kind == "point" and got[2].kind == "point"
        assert isinstance(got[1], DomainError) and "nan" in str(got[1])

    def test_cli_json_matches_per_object_classify(self, rng, tmp_path):
        mix = classification_mix(rng, rounds=4)
        names = [f"o{i:03d}" for i in range(len(mix))]
        path = tmp_path / "mix.json"
        write_scene(Scene(objects=dict(zip(names, mix))), path)
        result = run_ga(["classify", "--scene", str(path), "--format", "json"])
        assert result.exit_code == 0, result.output
        want = {}
        for name, mv in zip(names, mix):
            try:
                obj = classify(mv)
                want[name] = {"kind": obj.kind, "params": obj.params}
            except GAError as exc:
                want[name] = {"error": str(exc)}
        assert json.loads(result.output) == json.loads(json.dumps(want))


def _unit_weight_kinds() -> list:
    P = embed_point
    return [
        P([1.0, 2.0, 3.0]),
        make_point_pair(P([1.0, 0.0, 0.0]), P([0.0, 1.0, 2.0])).mv,
        make_circle(P([1.0, 0.0, 0.0]), P([0.0, 1.0, 0.0]), P([0.0, 0.0, 1.5])).mv,
        make_sphere_opns(P([1.0, 0.0, 0.0]), P([0.0, 1.0, 0.0]), P([0.0, 0.0, 1.0]), P([1.0, 1.0, 1.0])).mv,
        sphere_ipns([1.0, 2.0, 3.0], 1.5).mv,
        make_flat_point(P([1.0, 2.0, 3.0])).mv,
        make_line(P([1.0, 0.0, 0.0]), P([0.0, 1.0, 2.0])).mv,
        make_plane_opns(P([1.0, 0.0, 0.0]), P([0.0, 1.0, 0.0]), P([0.0, 0.0, 1.0])).mv,
    ]


class TestLargeWeights:
    """Rows whose raw products would overflow: a round's center P^2 is quartic
    in the weight, A ~A quadratic. Classification reads each row at unit scale,
    so they keep their kinds. The suite turns RuntimeWarning into an error, so
    these also check that classification warns about none of them."""

    @pytest.mark.parametrize("w", [1e80, 1e100, 1e160, 1e300])
    def test_batch_keeps_the_unit_weight_kinds(self, w):
        got = classify_batch(np.array([w * mv.coeffs for mv in _unit_weight_kinds()]))
        assert [o.kind if isinstance(o, ConformalObject) else type(o) for o in got] == [
            "point", "point_pair", "circle", "sphere", "sphere", "flat_point", "line", "plane"]

    def test_one_row_entry_points_without_warnings(self):
        sphere = 1e100 * sphere_ipns([1.0, 2.0, 3.0], 1.5).mv
        got = classify(sphere)
        assert got.kind == "sphere"
        for params in (got.params, round_params(sphere)):  # to rounding: w times the row rounds each coefficient
            assert params["center"] == pytest.approx((1.0, 2.0, 3.0), rel=1e-14)
            assert params["radius2"] == pytest.approx(2.25, rel=1e-14)
        assert extract_point(1e160 * embed_point([1.0, 2.0, 3.0])) == pytest.approx([1.0, 2.0, 3.0], rel=1e-14)

    @pytest.mark.parametrize("w", [1e155, 1e200, 1e300, -1e300])
    @pytest.mark.parametrize("bits, kind, param, want", [
        (0b00001, "plane", "normal", (1.0, 0.0, 0.0)),  # e1, an IPNS plane
        (0b11100, "line", "direction", (0.0, 0.0, 1.0)),  # e3+-
        (0b11011, "plane", "normal", (0.0, 0.0, 1.0)),  # e12+-, an OPNS plane
    ], ids=["e1", "e3+-", "e12+-"])
    def test_flats_keep_their_direction_when_its_square_overflows(self, w, bits, kind, param, want):
        # single blades: A ~A of a sum of blades overflows first at these weights (NotABladeError)
        got = classify(ALG.blade(bits, w))
        assert (got.kind, got.params[param]) == (kind, want)

    def test_directions_of_finite_squares_are_sqrt_of_the_dot(self, rng):
        D = rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(-150, 150, size=(300, 1))
        want = np.sqrt(conformal._sq_norms(D)).tolist()
        assert [abs(a) for a in conformal._directions(D)] == want


# Each _LIMIT row as a formula on one row's Python floats, with Python's max (a NaN from either
# argument is kept, as np.maximum keeps it): the limits the tree compared against before they
# were taken on arrays.
_SCALAR_LIMIT = {
    "coefficient": lambda scale: tolerance.threshold(scale),
    "blade": lambda scale, gram0: tolerance.threshold(
        math.nan if math.isnan(gram0) or math.isnan(scale) else max(abs(gram0), scale * scale)),
    "e0": lambda scale: tolerance.threshold(scale),
    "wedge": lambda scale: tolerance.threshold(2.0 * scale),
    "carrier": lambda scale: tolerance.threshold(scale * scale),
    "radius": lambda center2: tolerance.threshold(1.0 + center2) * 10.0,
    "direction": lambda norm: tolerance.threshold(norm),
    "distance": lambda norm: tolerance.threshold(norm) * 10.0,
    "infinity": lambda scale: tolerance.threshold(scale),
    "normal": lambda scale: tolerance.threshold(scale),
}
_LIMIT_INPUTS = [0.0, -0.0, 5e-324, 1e-310, 1.0, -1.0, 1e154, 1e308, -1e308, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("rel", [None, 1e-5])
@pytest.mark.parametrize("name", sorted(_SCALAR_LIMIT))
def test_array_limits_are_the_scalar_formulas_bit_for_bit(name, rel):
    columns = list(zip(*itertools.product(_LIMIT_INPUTS, repeat=_SCALAR_LIMIT[name].__code__.co_argcount)))
    with np.errstate(over="ignore", invalid="ignore"), tolerance.scope(rel):
        got = np.asarray(conformal._LIMIT[name](*map(np.array, columns)), dtype=float)
        want = np.array([_SCALAR_LIMIT[name](*args) for args in zip(*columns)])
    assert got.tobytes() == want.tobytes()


def test_radius_limit_past_the_float_range_is_inf_without_a_warning():
    """At rel 0.9, 10 times the threshold of a centre's |c|^2 near 1e308 passes the float range:
    the limit is inf, as the scalar formula gives, and numpy warns of no overflow (any warning
    is an error in this suite)."""
    inputs = [1e307, 1.9e307, 2e307, 1e308, 1.7976931348623157e308]
    with tolerance.scope(0.9):
        got = conformal._LIMIT["radius"](np.array(inputs))
        want = np.array([_SCALAR_LIMIT["radius"](x) for x in inputs])
    assert got.tobytes() == want.tobytes() and np.isinf(got).tolist() == [False, False, True, True, True]


def test_point_whose_centre_is_near_the_float_range_at_a_loose_tolerance():
    """Its unit-scale weight 1.7e-154 is just above 2^-511, so |c|^2 is about 2.6e307 and its
    radius limit at rel 0.9 is inf: a point, with no overflow warning."""
    with tolerance.scope(0.9):
        assert is_point(e1 + e2 + e3 + 3.4e-154 * ALG.blade(0b10000))


class TestPlan:
    """The classification plan's maps, built once at import, pinned bit for
    bit against the algebra's products on the same rows."""

    @staticmethod
    def rows(rng, n=240):
        """Rows at every magnitude from 1e-304 to 1e150, with negative zeros."""
        X = rng.normal(size=(n, ALG.dim)) * 10.0 ** rng.uniform(-4, 4, size=(n, ALG.dim))
        X[0::4] *= 1e-300
        X[1::4] = rng.normal(size=X[1::4].shape) * 1e150
        X[2::4, ::3] = -0.0
        X[3::4] = np.where(rng.random(X[3::4].shape) < 0.5, -0.0, X[3::4])
        return X

    def test_linear_maps_match_the_products(self, rng):
        X = self.rows(rng)
        Y = X @ conformal._LINEAR
        col = conformal._COL
        plane = [0b00001, 0b00010, 0b00100, 0b10000]
        for x, y in zip(X, Y):
            A = Multivector(ALG, x)
            want = {
                "e0": to_null_coeffs(A)[[0b01000]],
                "wedge": (A ^ einf).coeffs,
                "carrier": (einf | A).coeffs,
                "a_einf": (A * einf).coeffs,
                "circle_normal": (A ^ einf).dual().coeffs[[0b001, 0b010, 0b100]],
                "ipns_plane": to_null_coeffs(A)[plane],
                "opns_plane": to_null_coeffs(A.dual())[plane],
                "flat_point": to_null_coeffs(A)[[0b11000, 0b10001, 0b10010, 0b10100]],
                "line": to_null_coeffs(A)[[0b11001, 0b11010, 0b11100, 0b10011, 0b10101, 0b10110]],
            }
            assert list(want) == list(col)
            for name, w in want.items():
                assert np.array_equal(y[col[name]], w), name

    def test_bilinear_maps_match_the_products(self, rng):
        X = self.rows(rng)
        Y = X @ conformal._LINEAR
        carrier = Y[:, conformal._COL["carrier"]]
        gram = row_product(X, X, conformal._GRAM)
        bottom = row_product(carrier, carrier, conformal._SCALAR_GP)[:, 0]
        center = row_product(Y[:, conformal._COL["a_einf"]], X, conformal._VECTOR_GP)
        vector = list(conformal._VECTOR)
        # row 0 of a table is the scalar's term, at the output blade's own index
        kept = conformal._GRAM[0][0]
        assert kept[-1] == 0 and kept[:-1].tolist() == [k for k in range(ALG.dim) if ALG.grades[k] in (0, 4)]
        for i, x in enumerate(X):
            A = Multivector(ALG, x)
            assert np.array_equal(gram[i, :-1], (A * ~A).coeffs[kept[:-1]])
            assert gram[i, -1] == (A * A).coeffs[0]
            assert bottom[i] == ((einf | A) * (einf | A)).coeffs[0]
            assert np.array_equal(center[i], (A * einf * A).coeffs[vector])

    def test_round_params_matches_classify(self, rng):
        rounds = 0
        for mv in classification_mix(rng):
            try:
                obj = classify(mv)
            except GAError:
                continue
            if obj.kind in ("point", "point_pair", "circle", "sphere"):
                rounds += 1
                got = round_params(mv)
                if obj.kind == "point":
                    assert (got["center"], got["sign"]) == (obj.params["location"], "degenerate")
                else:
                    assert got == {k: obj.params[k] for k in ("center", "radius2", "sign")}
        assert rounds >= 100

    def test_gram_grades_left_out_cannot_fail_a_blade(self):
        """_GRAM keeps grades 0 and 4 of A ~A: for a row whose coefficients outside its
        grade are exactly 0, the full product's grades 1, 2, 3 and 5 are rounding, within
        the blade limit, so dropping them cannot change the blade test's decision."""
        mix = [mv for seed in range(20) for mv in classification_mix(np.random.default_rng(seed))]
        X = _rows(mix)
        one_grade = np.array([len(set(ALG.grades[x != 0.0].tolist())) == 1 for x in X])
        X = X[one_grade]
        assert len(X) >= 5000
        full = ALG.product("gp", X, X * ALG.reverse_signs)  # A ~A
        left_out = np.abs(full[:, np.isin(ALG.grades, [1, 2, 3, 5])]).max(axis=1)
        assert (left_out > 0.0).any()  # they are rounding, not zeros
        for rel in (1e-12, 1e-9, 1e-6, 1e-3):
            with tolerance.scope(rel):
                limit = conformal._LIMIT["blade"](np.abs(X).max(axis=1), full[:, 0])
            assert (left_out <= limit).all(), (rel, np.max(left_out / limit))


# -- the builders --------------------------------------------------------------

# vectors and blades that are no conformal point, for every constructor's every argument
NON_POINTS = {
    "e1": e1,  # no e0 weight
    "einf": einf,  # the point at infinity
    "zero": ALG.zero(),
    "bivector": e1 ^ e2,
    "point-plus-bivector": embed_point([1.0, 2.0, 3.0]) + (e1 ^ e2),
    "unit-sphere": sphere_vector([0.0, 0.0, 0.0], 1.0),  # r^2 = 1
    "far-sphere": sphere_vector([300.0, 0.0, 0.0], 1.0),  # which the norm test calls null
    "imaginary-sphere": embed_point([1.0, 0.0, 0.0]) + 2.0 * einf,  # r^2 = -4
    "weight-lost": embed_point([1e9, 0.0, 0.0]),  # e- - e+ rounds to 0
}
CONSTRUCTORS = {
    "pair": (make_point_pair, 2),
    "circle": (make_circle, 3),
    "sphere": (make_sphere_opns, 4),
    "flat_point": (make_flat_point, 1),
    "line": (make_line, 2),
    "plane": (make_plane_opns, 3),
}


class TestBuilders:
    def test_is_point_out_to_1e7(self, rng):
        # embed_point's e+ and e- coefficients are (1/2)|p|^2 -+ 1/2, exact up to |p| near 1e8
        for _ in range(300):
            p = 10 ** rng.uniform(0, 7) * _unit(rng)
            assert is_point(embed_point(p)) and is_point(-embed_point(p)), p

    def test_is_point_at_weights_1e_3_to_1e3(self, rng):
        # a weight rounds e+ and e- apart, by u |p|^2 relative to w, so r^2 picks up u |p|^4 / 2:
        # within the radius limit out to |p| near 1e4
        for _ in range(300):
            p = 10 ** rng.uniform(0, 3.5) * _unit(rng)
            w = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3, 3)
            assert is_point(w * embed_point(p)), (p, w)

    @pytest.mark.parametrize("name", sorted(NON_POINTS))
    def test_is_point_refuses(self, name):
        assert not is_point(NON_POINTS[name])

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    @pytest.mark.parametrize("bad", sorted(NON_POINTS))
    def test_non_point_argument_raises_not_a_point(self, name, bad):
        make, n = CONSTRUCTORS[name]
        good = [embed_point([float(k), float(k * k), 1.0 - k]) for k in range(n)]
        for k in range(n):
            args = good[:k] + [NON_POINTS[bad]] + good[k + 1:]
            with pytest.raises(NotAPointError) as info:
                make(*args)
            assert str(info.value) == f"construction point {k + 1} of {n} is not a conformal point"

    def test_make_constructors_classify_the_builders_blade(self, rng):
        def outcome(call):
            try:
                obj = call()
            except GAError as exc:
                return type(exc).__name__, str(exc)
            return obj.kind, obj.mv.coeffs.tobytes(), repr(obj.params)

        kinds = set()
        for _ in range(20):
            pts = [rand_point(rng) for _ in range(4)]
            P = [w * embed_point(p) for w, p in zip(10 ** rng.uniform(-3, 3, 4), pts)]
            for name, (make, n) in CONSTRUCTORS.items():
                want = outcome(lambda: classify(wedge_points(*P[:n], with_inf=name in ("flat_point", "line", "plane"))))
                assert outcome(lambda: make(*P[:n])) == want, name
                kinds.add(want[0])
        assert kinds >= {"point_pair", "circle", "sphere", "flat_point", "line", "plane"}

    def test_far_ipns_sphere_is_built_where_classify_refuses(self):
        sigma = sphere_vector([300.0, 0.0, 0.0], 1.0)
        assert sigma == embed_point([300.0, 0.0, 0.0]) - 0.5 * einf
        with pytest.raises(DegenerateError, match="no finite carrier"):
            sphere_ipns([300.0, 0.0, 0.0], 1.0)

    @pytest.mark.parametrize("center, r, message", [
        ([0.0, 0.0, 0.0], float("nan"), "sphere radius nan is not finite"),
        ([0.0, 0.0, 0.0], float("inf"), "sphere radius inf is not finite"),
        ([0.0, 0.0, 0.0], -1.0, "negative radius -1.0"),
        ([0.0, 0.0, 0.0], 1e200, "sphere radius 1e+200 overflows: r^2/2 is not finite"),
        ([float("nan"), 0.0, 0.0], 1.0, "sphere center coordinate nan is not finite"),
        ([0.0, float("-inf"), 0.0], 1.0, "sphere center coordinate -inf is not finite"),
    ], ids=["nan-radius", "inf-radius", "negative-radius", "overflowing-radius", "nan-center", "inf-center"])
    def test_one_radius_check(self, center, r, message):
        for build in (sphere_vector, sphere_ipns, reflector_sphere):
            with pytest.raises(DomainError) as info:
                build(center, r)
            assert str(info.value) == message, build

    def test_ipns_plane_is_built_without_the_mirror_certificate(self):
        assert plane_vector([2.0, 0.0, 0.0], 1e5) == e1 + 1e5 * einf
        assert classify(plane_vector([2.0, 0.0, 0.0], 1e5)).kind == "plane"
        mirror = reflector_plane([2.0, 0.0, 0.0], 1e5)  # its formula states mu^2 = 1; nothing re-checks it
        assert mirror.mv == e1 + 1e5 * einf and mirror.norm2 == 1.0
