"""Versor construction, the twisted-adjoint action, and composition."""

import functools
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from confga import (
    DegenerateError,
    DomainError,
    GradeError,
    MixedParityError,
    NotVersorError,
    ParityModeError,
    RowRoundingError,
    SignatureMismatchError,
    SingularVersorError,
    algebra,
    apply,
    compose,
    embed_point,
    extract_point,
    make_circle,
    make_line,
    make_point_pair,
    make_versor,
    motor,
    reflector_line,
    reflector_plane,
    reflector_point,
    reflector_sphere,
    rotor,
    scalor,
    sphere_ipns,
    translator,
)
from confga import versor as versor_module
from confga.versor import CONVENTIONS, Versor, _SAME_GRADE, _action_matrix
from confga.conformal import (
    ALG,
    E,
    I3,
    ConformalObject,
    e0,
    e1,
    e2,
    e3,
    einf,
    embed_points,
    euclid_bivector,
    euclid_vector,
    plane_vector,
    sphere_vector,
)

from confga.algebra import exp_special, scalar_product
from conftest import (
    assert_mv_close,
    assert_proportional,
    certificate_rows,
    outcome,
    random_mv,
    reference_make_versor,
    reference_rotor,
)

e12 = e1 ^ e2
e23 = e2 ^ e3


def act_point(v, p, mode):
    return extract_point(apply(v, embed_point(p), mode))


class TestMakeVersor:
    def test_identity(self):
        v = make_versor(ALG.scalar(1.0))
        assert v.parity == "even" and v.norm2 == 1.0 and not v.is_null

    def test_rotor_is_versor(self):
        v = make_versor(math.cos(0.3) + math.sin(0.3) * e12)
        assert v.parity == "even"
        assert abs(v.norm2 - 1.0) <= 1e-15

    def test_mixed_parity_rejected(self):
        with pytest.raises(MixedParityError):
            make_versor(ALG.scalar(1.0) + e1)

    def test_non_versor_rejected(self):
        with pytest.raises(NotVersorError):
            make_versor(e12 + (e3 ^ ALG.basis_vector(3)))

    def test_null_vector_rejected_then_allowed(self):
        # only a Cl(4,1) vector can be a conformal point, so a null vector of Cl(1,1) is no mirror
        for null in (einf, algebra(1, 1).vector([1.0, 1.0])):
            with pytest.raises(SingularVersorError, match=r"^v \* ~v vanishes; versor is not invertible$"):
                make_versor(null)
        v = make_versor(embed_point([1.0, 0.0, 0.0]))
        assert v.is_null
        with pytest.raises(SingularVersorError):
            v.inverse()

    def test_matches_reference(self):
        """The one certificate decides as make_versor's own checks did (conftest's reference
        copy), with the same error and message or the same bytes."""
        seen = set()
        for c in certificate_rows():
            mv = ALG.mv(c)
            want = outcome(reference_make_versor, mv)
            assert outcome(make_versor, mv) == want, mv
            seen.add(want[1] if want[0] == "raises" else want[0])
        assert seen >= {"gives", "NotVersorError", "MixedParityError", "DomainError", "SingularVersorError"}


class TestRotor:
    def test_quarter_turn_sends_e1_to_e2(self):
        R = rotor(e12, math.pi / 2.0)
        assert_mv_close(apply(R, e1, "motion"), e2, tol=1e-15)

    def test_plane_is_normalized(self, rng):
        for _ in range(10):
            theta = float(rng.uniform(-3, 3))
            a, b = rotor(e12, theta), rotor(2.5 * e12, theta)
            assert_mv_close(a.mv, b.mv, tol=1e-15)

    def test_angles_add(self, rng):
        t1, t2 = 0.7, -1.3
        combined = compose([rotor(e12, t1), rotor(e12, t2)])
        assert_mv_close(combined.mv, rotor(e12, t1 + t2).mv, tol=1e-15)

    def test_rotation_matrix_agreement(self, rng):
        for _ in range(25):
            theta = float(rng.uniform(-math.pi, math.pi))
            p = rng.uniform(-3, 3, size=3)
            got = act_point(rotor(e12, theta), p, "motion")
            c, s = math.cos(theta), math.sin(theta)
            want = np.array([c * p[0] - s * p[1], s * p[0] + c * p[1], p[2]])
            assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(p)))

    def test_matches_reference_where_it_accepts(self):
        # the certificate scales the off-scalar test by max(|s|, max|i|^2), where rotor used
        # max|i|^2 alone, so it may accept more planes, never fewer. The reference certifies
        # its rotor numerically; rotor states norm2 = 1, within rounding of the reference's.
        rng = np.random.default_rng(3)
        accepted = 0
        for c in certificate_rows():
            i, theta = ALG.mv(c), float(rng.uniform(-3, 3))
            if outcome(reference_rotor, i, theta)[0] == "gives":
                want, got = reference_rotor(i, theta), rotor(i, theta)
                assert (got.parity, got.mv) == (want.parity, want.mv), i
                assert got.norm2 == 1.0 and abs(want.norm2 - 1.0) <= scalar_rounding(got.mv), i
                assert got.inv.coeffs.tobytes() == (~got.mv).coeffs.tobytes(), i  # ~v / 1.0
                accepted += 1
        assert accepted >= 50

    def test_tiny_plane_is_a_plane(self):
        plane = 1e-7 * e12
        assert not scalar_product(plane, plane, "")[1]  # its square, -1e-14, is its size squared: no zero
        assert_mv_close(rotor(plane, 1.0).mv, rotor(e12, 1.0).mv, tol=1e-15)

    def test_mode_enforcement(self):
        R = rotor(e12, 0.5)
        with pytest.raises(ParityModeError):
            apply(R, e1, "reflection")

    def test_bad_planes(self):
        with pytest.raises(GradeError):
            rotor(e1, 1.0)
        with pytest.raises(DomainError):
            rotor(E, 1.0)  # squares to +1
        with pytest.raises(DomainError):
            rotor(e12 + (e3 ^ ALG.basis_vector(3)), 1.0)  # non-scalar square


class TestTranslator:
    def test_translates_points(self, rng):
        for _ in range(25):
            p, t = rng.uniform(-5, 5, size=3), rng.uniform(-5, 5, size=3)
            got = act_point(translator(t), p, "motion")
            assert np.max(np.abs(got - (p + t))) <= 1e-12 * (1.0 + np.max(np.abs(p + t)))

    def test_translations_add(self, rng):
        a, b = rng.uniform(-2, 2, size=3), rng.uniform(-2, 2, size=3)
        assert_mv_close(compose([translator(a), translator(b)]).mv, translator(a + b).mv, 1e-15)

    def test_origin_goes_to_t(self):
        got = apply(translator([1.0, 2.0, 3.0]), e0, "motion")
        assert_mv_close(got, embed_point([1.0, 2.0, 3.0]), tol=1e-15)


class TestScalor:
    def test_action_on_null_directions(self):
        Z = scalor(4.0)
        assert_mv_close(apply(Z, e0, "motion"), e0 / 4.0, tol=1e-12)
        assert_mv_close(apply(Z, einf, "motion"), 4.0 * einf, tol=1e-12)

    def test_scales_about_origin(self, rng):
        for _ in range(20):
            s = float(rng.uniform(0.2, 5.0))
            p = rng.uniform(-3, 3, size=3)
            got = act_point(scalor(s), p, "motion")
            assert np.max(np.abs(got - s * p)) <= 1e-10 * (1.0 + s * np.max(np.abs(p)))

    def test_scales_about_center(self, rng):
        for _ in range(20):
            s = float(rng.uniform(0.2, 5.0))
            c, p = rng.uniform(-2, 2, size=3), rng.uniform(-3, 3, size=3)
            got = act_point(scalor(s, c), p, "motion")
            want = c + s * (p - c)
            assert np.max(np.abs(got - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))

    def test_coefficients_are_the_formula(self):
        """cosh lam on the scalar, sinh lam on E = e+-, and -(sinh lam c_i) on e_i+ and e_i-, bit
        for bit, at centres from 10^0 to 10^200: each coefficient takes one rounding. They are
        the algebra's exact cosh lam + sinh lam (E - c ^ einf). The product T(-c) exp(lam E) T(c)
        it replaced cancels terms of size |c|^2 and printed a scalar of 1 for scalor(2, 1e8, 0, 0)."""
        rng = np.random.default_rng(83)
        for k in range(400):
            c = float(10 ** rng.uniform(0, 200)) * unit_vector(rng)
            s = float(2 ** rng.uniform(-1, 1)) if k % 2 else float(10 ** rng.uniform(-8, 8))
            lam = 0.5 * math.log(s)
            got = scalor(s, c).mv.coeffs
            assert got.tobytes() == scalor_formula(s, c).coeffs.tobytes(), (s, c)
            assert np.array_equal(got, (ALG.scalar(math.cosh(lam)) + math.sinh(lam) * (E - (euclid_vector(c) ^ einf))).coeffs)
        v = scalor(2.0, [1e8, 0.0, 0.0])
        assert v.mv.coeffs[0] == math.cosh(0.5 * math.log(2.0)) == 1.0606601717798212
        assert v.inv.coeffs.tobytes() == (~v.mv).coeffs.tobytes()

    def test_centre_past_the_float_range_is_refused_quietly(self):
        """sinh lam c overflows: no finite inverse, and numpy warns of nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=r"^versor has no finite inverse: "):
                scalor(1e300, [1e300, 0.0, 0.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            scalor(0.0)
        with pytest.raises(DomainError):
            scalor(-2.0)


class TestPlaneMirror:
    def test_xy_mirror_flips_z(self, rng):
        m = reflector_plane([0, 0, 1.0], 0.0)
        for _ in range(10):
            p = rng.uniform(-3, 3, size=3)
            got = act_point(m, p, "reflection")
            assert np.max(np.abs(got - p * [1, 1, -1])) <= 1e-12 * (1 + np.max(np.abs(p)))

    def test_offset_mirror(self, rng):
        m = reflector_plane([1.0, 0, 0], 1.0)  # plane x = 1
        p = np.array([3.0, 0.5, -2.0])
        got = act_point(m, p, "reflection")
        assert np.max(np.abs(got - [-1.0, 0.5, -2.0])) <= 1e-12

    def test_mirror_squares_to_identity(self):
        m = reflector_plane([1.0, 2.0, -0.5], 0.7)
        assert_mv_close(compose([m, m]).mv, ALG.scalar(1.0), tol=1e-15)

    def test_normal_is_normalized(self):
        a = reflector_plane([0, 0, 2.0], 1.0)
        b = reflector_plane([0, 0, 1.0], 1.0)
        assert_mv_close(a.mv, b.mv, tol=1e-15)

    def test_zero_normal(self):
        with pytest.raises(DegenerateError):
            reflector_plane([0.0, 0.0, 0.0], 1.0)

    @pytest.mark.parametrize("n, unit", [([1e200, 0, 0], [1, 0, 0]), ([0, -1e155, 1e155], [0, -1, 1]),
                                         ([1e308, 1e308, 1e308], [1, 1, 1])], ids=["n0", "n1", "n2"])
    def test_huge_normal_is_the_unit_normal_form(self, n, unit):
        """|n|^2 would overflow; the normal is read at unit scale, so the mirror is the one of
        n 2^-1000, whose |n|^2 is a normal float, bit for bit, and of the unit normal."""
        v = reflector_plane(n, 1.0)
        assert v.mv.coeffs.tobytes() == reflector_plane(np.ldexp(n, -1000), 1.0).mv.coeffs.tobytes()
        assert_mv_close(v.mv, reflector_plane(unit, 1.0).mv, tol=2 * U)

    @pytest.mark.parametrize("n", [[3.0, 4.0, 12.0], [1e150, -1e150, 3e149], [1e-150, 0, 2e-150], [0.1, 0.2, 0.3]])
    def test_finite_normal_keeps_linalg_norm(self, n):
        arr = np.array(n)
        want = euclid_vector(arr / np.linalg.norm(arr)) + 0.5 * einf
        assert np.array_equal(reflector_plane(n, 0.5).mv.coeffs, want.coeffs)

    @pytest.mark.parametrize("n, unit", [
        ([1e-170, 0, 0], [1.0, 0, 0]),
        ([0, -5e-324, 0], [0, -1.0, 0]),
        ([1e-160, 0, 2e-160], [1.0, 0, 2.0]),
        ([3e-155, 4e-155, 0], [3.0, 4.0, 0]),
    ])
    def test_tiny_normal_is_a_unit_mirror(self, n, unit):
        # |n|^2 underflows (to 0, or to a subnormal that has lost digits):
        # the mirror is still the one of the same direction at unit length
        m = reflector_plane(n, 0.5)
        assert abs(m.norm2 - 1.0) <= 4e-16
        assert_mv_close(m.mv, reflector_plane(unit, 0.5).mv, tol=4e-16)

    def test_reflecting_a_sphere(self):
        m = reflector_plane([0, 0, 1.0], 0.0)
        obj = apply(m, sphere_ipns([1.0, 2.0, 3.0], 0.5), "reflection")
        assert obj.kind == "sphere"
        assert np.max(np.abs(np.array(obj.params["center"]) - [1.0, 2.0, -3.0])) <= 1e-10
        assert abs(obj.params["radius2"] - 0.25) <= 1e-10


class TestSphereMirror:
    def test_unit_origin_sphere_is_minus_eplus(self):
        sigma = reflector_sphere([0.0, 0.0, 0.0], 1.0)
        assert_mv_close(sigma.mv, -ALG.basis_vector(3), tol=1e-15)

    def test_unit_inversion(self, rng):
        sigma = reflector_sphere([0.0, 0.0, 0.0], 1.0)
        for _ in range(20):
            p = rng.uniform(-3, 3, size=3)
            if np.linalg.norm(p) < 1e-2:
                continue
            got = act_point(sigma, p, "reflection")
            want = p / (p @ p)
            assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + 1.0 / (p @ p))

    def test_general_inversion(self, rng):
        for _ in range(20):
            c, r = rng.uniform(-2, 2, size=3), float(rng.uniform(0.5, 3.0))
            sigma = reflector_sphere(c, r)
            p = rng.uniform(-4, 4, size=3)
            if np.linalg.norm(p - c) < 1e-2:
                continue
            got = act_point(sigma, p, "reflection")
            want = c + r * r * (p - c) / ((p - c) @ (p - c))
            assert np.max(np.abs(got - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))

    def test_fixed_points_on_sphere(self):
        sigma = reflector_sphere([1.0, 0.0, 0.0], 2.0)
        fixed = act_point(sigma, [3.0, 0.0, 0.0], "reflection")
        assert np.max(np.abs(fixed - [3.0, 0.0, 0.0])) <= 1e-12

    def test_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            reflector_sphere([0, 0, 0], 0.0)
        with pytest.raises(DomainError):
            reflector_sphere([0, 0, 0], -1.0)


class TestPointMirror:
    def test_is_null_and_constant(self, rng):
        v = reflector_point([1.0, -1.0, 2.0])
        assert v.is_null and v.parity == "odd"
        target = embed_point([1.0, -1.0, 2.0])
        for _ in range(5):
            X = embed_point(rng.uniform(-3, 3, size=3))
            assert_proportional(apply(v, X, "reflection"), target, tol=1e-9)

    def test_cannot_compose(self):
        v = reflector_point([0.0, 0.0, 0.0])
        with pytest.raises(SingularVersorError):
            compose([v, v])

    @pytest.mark.parametrize("x", [1.0, 3e2, 1e4, 1e6, 1e7])
    def test_applies_out_to_1e7(self, x):
        P = embed_point([x, -x / 3.0, 0.5])
        v = reflector_point([x, -x / 3.0, 0.5])
        assert v.is_null
        assert_proportional(apply(v, embed_point([1.0, 2.0, 3.0]), "reflection"), P, tol=1e-9)

    @pytest.mark.parametrize("mv", [
        translator([4e4, 0.0, 0.0]).mv * translator([4e4, 0.0, 0.0]).mv,  # even: no point
        e1 + 1e5 * einf,  # no e0 weight
        embed_point([300.0, 0.0, 0.0]) - 0.5 * einf,  # a sphere of radius 1
        embed_point([1e9, 0.0, 0.0]),  # its e0 weight rounds to 0
    ], ids=["translator-product", "far-plane", "far-sphere", "weight-lost-point"])
    def test_allow_null_refuses_a_vanishing_non_point(self, mv):
        with pytest.raises(SingularVersorError, match=r"^v \* ~v vanishes; versor is not invertible$"):
            make_versor(mv)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, message", [
    (lambda: translator([NAN, 0.0, 0.0]), "translation coordinate nan is not finite"),
    (lambda: translator([0.0, -INF, 0.0]), "translation coordinate -inf is not finite"),
    (lambda: reflector_plane([1.0, 0.0, 0.0], INF), "plane distance inf is not finite"),
    (lambda: reflector_plane([1.0, 0.0, 0.0], NAN), "plane distance nan is not finite"),
    (lambda: reflector_plane([NAN, 0.0, 1.0], 1.0), "plane normal coordinate nan is not finite"),
    (lambda: reflector_plane([0.0, INF, 0.0], 1.0), "plane normal coordinate inf is not finite"),
    (lambda: reflector_sphere([0.0, 0.0, 0.0], NAN), "sphere radius nan is not finite"),
    (lambda: reflector_sphere([0.0, 0.0, 0.0], INF), "sphere radius inf is not finite"),
    (lambda: reflector_sphere([0.0, 0.0, NAN], 1.0), "sphere center coordinate nan is not finite"),
    (lambda: sphere_ipns([0.0, 0.0, 0.0], NAN), "sphere radius nan is not finite"),
    (lambda: rotor(e12, INF), "rotation angle inf is not finite"),
    (lambda: rotor(e12, NAN), "rotation angle nan is not finite"),
    (lambda: motor(e12, -INF, [0.0, 0.0, 0.0]), "rotation angle -inf is not finite"),
    (lambda: motor(e12, 0.5, [0.0, 0.0, NAN]), "translation coordinate nan is not finite"),
    (lambda: scalor(INF), "scale factor inf is not finite"),
    (lambda: scalor(NAN), "scale factor nan is not finite"),
    (lambda: scalor(2.0, [INF, 0.0, 0.0]), "scale center coordinate inf is not finite"),
], ids=["translator-nan", "translator-inf", "plane-d-inf", "plane-d-nan", "plane-n-nan", "plane-n-inf",
        "sphere-mirror-r-nan", "sphere-mirror-r-inf", "sphere-mirror-c-nan", "sphere-ipns-r-nan", "rotor-inf",
        "rotor-nan", "motor-angle-inf", "motor-t-nan", "scalor-inf", "scalor-nan", "scalor-center-inf"])
def test_non_finite_argument_is_refused_by_name(build, message):
    with pytest.raises(DomainError) as info:  # any RuntimeWarning on the way is an error in this suite
        build()
    assert str(info.value) == message


class TestLineMirror:
    def test_x_axis_form(self):
        line = make_line(embed_point([0, 0, 0]), embed_point([1, 0, 0]))
        v = reflector_line(line)
        assert v.parity == "even"
        assert_mv_close(v.mv, e23, tol=1e-15)

    def test_offset_line_form(self):
        line = make_line(embed_point([0, 1.0, 0]), embed_point([1, 1.0, 0]))
        v = reflector_line(line)
        assert_mv_close(v.mv, e23 - (e3 ^ einf), tol=1e-14)

    def test_half_turn_about_x_axis(self, rng):
        v = reflector_line(make_line(embed_point([0, 0, 0]), embed_point([1, 0, 0])))
        for _ in range(10):
            p = rng.uniform(-3, 3, size=3)
            got = act_point(v, p, "motion")
            assert np.max(np.abs(got - p * [1, -1, -1])) <= 1e-12 * (1 + np.max(np.abs(p)))

    def test_half_turn_about_offset_line(self):
        v = reflector_line(make_line(embed_point([0, 1.0, 0]), embed_point([2, 1.0, 0])))
        got = act_point(v, [0.5, 0.0, 1.0], "motion")
        assert np.max(np.abs(got - [0.5, 2.0, -1.0])) <= 1e-12

    def test_accepts_raw_blade(self):
        mv = make_line(embed_point([0, 0, 0]), embed_point([0, 0, 2.0])).mv
        v = reflector_line(3.0 * mv)
        got = act_point(v, [1.0, 1.0, 5.0], "motion")
        assert np.max(np.abs(got - [-1.0, -1.0, 5.0])) <= 1e-12

    def test_coefficients_are_the_formula_of_classify_params(self):
        """d | I3 + (I3 m) ^ einf from the direction and moment `classify` returns, every
        coefficient, for lines through two points as far apart as they are from the origin, at
        offsets 10^0 to 3e3 (far past that, `make_line` refuses the wedge of far points), and
        for the same line's raw blade."""
        rng = np.random.default_rng(89)
        for _ in range(200):
            off = float(10 ** rng.uniform(0, math.log10(3e3)))
            p = off * unit_vector(rng)
            line = make_line(embed_point(p), embed_point(p + off * unit_vector(rng)))
            want = line_formula(line).coeffs.tobytes()
            assert reflector_line(line).mv.coeffs.tobytes() == want, p
            assert reflector_line(line.mv).mv.coeffs.tobytes() == want, p

    def test_rejects_non_line(self):
        circle = make_circle(
            embed_point([1, 0, 0]), embed_point([0, 1, 0]), embed_point([-1, 0, 0])
        )
        with pytest.raises(DomainError):
            reflector_line(circle)


class TestCompose:
    def test_two_plane_mirrors_make_a_rotor(self, rng):
        for _ in range(15):
            phi = float(rng.uniform(0.1, 1.4))
            m1 = reflector_plane([1.0, 0, 0], 0.0)
            m2 = reflector_plane([math.cos(phi), math.sin(phi), 0.0], 0.0)
            got = compose([m1, m2])
            assert got.parity == "even"
            assert_mv_close(got.mv, rotor(e12, 2.0 * phi).mv, tol=1e-14)

    def test_parallel_mirrors_make_a_translator(self, rng):
        for _ in range(10):
            d1, d2 = rng.uniform(-2, 2, size=2)
            m1 = reflector_plane([0, 0, 1.0], d1)
            m2 = reflector_plane([0, 0, 1.0], d2)
            got = compose([m1, m2])
            want = translator([0.0, 0.0, 2.0 * (d2 - d1)])
            assert_mv_close(got.mv, want.mv, tol=1e-14)

    def test_concentric_spheres_make_a_scalor(self, rng):
        for _ in range(10):
            r1, r2 = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
            got = compose([reflector_sphere([0, 0, 0], r1), reflector_sphere([0, 0, 0], r2)])
            want = scalor((r2 / r1) ** 2)
            assert_proportional(got.mv, want.mv, tol=1e-12)
            p = rng.uniform(-2, 2, size=3)
            assert np.max(np.abs(act_point(got, p, "motion") - act_point(want, p, "motion"))) <= 1e-9

    def test_empty_compose_is_identity(self):
        v = compose([])
        assert_mv_close(v.mv, ALG.scalar(1.0), tol=0.0)

    def test_application_order(self):
        # translate then rotate differs from rotate then translate
        T, R = translator([1.0, 0, 0]), rotor(e12, math.pi / 2.0)
        p = np.array([0.0, 0.0, 0.0])
        first_t = act_point(compose([T, R]), p, "motion")
        first_r = act_point(compose([R, T]), p, "motion")
        assert np.max(np.abs(first_t - [0.0, 1.0, 0.0])) <= 1e-12
        assert np.max(np.abs(first_r - [1.0, 0.0, 0.0])) <= 1e-12

    def test_motor_is_translate_then_rotate(self):
        M = motor(e12, math.pi / 2.0, [1.0, 0.0, 0.0])
        assert_mv_close(M.mv, (translator([1.0, 0, 0]).mv * rotor(e12, math.pi / 2).mv), 1e-15)

    def test_glide_squares_to_translation(self):
        g = compose([reflector_plane([0, 0, 1.0], 0.0), translator([1.5, 0, 0])])
        assert g.parity == "odd"
        gg = compose([g, g])
        assert_mv_close(gg.mv, translator([3.0, 0, 0]).mv, tol=1e-13)


class TestConventions:
    def test_agree_on_points(self, rng):
        m = reflector_plane([0, 1.0, 0], 0.5)
        for _ in range(10):
            X = embed_point(rng.uniform(-3, 3, size=3))
            a = apply(m, X, "reflection", convention="twisted-adjoint")
            b = apply(m, X, "reflection", convention="paper-literal")
            assert_mv_close(a, b, tol=1e-14)

    def test_global_sign_on_even_objects(self):
        m = reflector_plane([0, 0, 1.0], 0.0)
        pair = make_point_pair(embed_point([1, 0, 1]), embed_point([-1, 0, 1])).mv
        a = apply(m, pair, "reflection", convention="twisted-adjoint")
        b = apply(m, pair, "reflection", convention="paper-literal")
        assert_mv_close(a, -b, tol=1e-14)

    def test_even_versors_identical(self, rng):
        R = rotor(e12, 0.8)
        X = embed_point(rng.uniform(-2, 2, size=3))
        a = apply(R, X, "motion", convention="twisted-adjoint")
        b = apply(R, X, "motion", convention="paper-literal")
        assert_mv_close(a, b, tol=0.0)

    def test_bad_arguments(self):
        R = rotor(e12, 0.8)
        with pytest.raises(ValueError):
            apply(R, e1, "sideways")
        with pytest.raises(ValueError):
            apply(R, e1, "motion", convention="whatever")


class TestObjectTransforms:
    def test_rotor_moves_circle(self):
        circle = make_circle(
            embed_point([2.0, 0, 0]), embed_point([3.0, 0, 1.0]), embed_point([2.0, 0, 2.0])
        )
        got = apply(rotor(e12, math.pi / 2.0), circle, "motion")
        assert got.kind == "circle"
        c0 = np.array(circle.params["center"])
        want = np.array([-c0[1], c0[0], c0[2]])
        assert np.max(np.abs(np.array(got.params["center"]) - want)) <= 1e-10
        assert abs(got.params["radius2"] - circle.params["radius2"]) <= 1e-10

    def test_motor_preserves_distances(self, rng):
        M = motor(e2 ^ e3, 0.9, [0.5, -1.0, 2.0])
        pts = [rng.uniform(-2, 2, size=3) for _ in range(6)]
        moved = [act_point(M, p, "motion") for p in pts]
        for i in range(6):
            for j in range(i + 1, 6):
                before = np.linalg.norm(pts[i] - pts[j])
                after = np.linalg.norm(moved[i] - moved[j])
                assert abs(before - after) <= 1e-11 * (1.0 + before)

    def test_scalor_scales_sphere_radius(self):
        got = apply(scalor(3.0), sphere_ipns([1.0, 0, 0], 2.0), "motion")
        assert got.kind == "sphere"
        assert np.max(np.abs(np.array(got.params["center"]) - [3.0, 0, 0])) <= 1e-9
        assert abs(got.params["radius2"] - 36.0) <= 1e-8


def product_sandwich(v, X, convention):
    """The versor action written as two geometric products: the reference
    for the action matrix behind `apply`."""
    left = v.mv if v.inv is None else v.inv
    if convention == "twisted-adjoint":
        mid = X.involute() if v.parity == "odd" else X
        return left * mid * v.mv
    out = left * X * v.mv
    return -out if v.parity == "odd" else out


def operator_families():
    line = make_line(embed_point([0, 1.0, 0]), embed_point([1.0, 1.0, 0]))
    return {
        "plane": reflector_plane([0.0, 1.0, 0.5], 0.3),
        "sphere": reflector_sphere([0.5, -0.2, 0.0], 1.5),
        "point": reflector_point([1.0, -0.5, 2.0]),
        "line": reflector_line(line),
        "rotor": rotor(e12, 0.8),
        "translator": translator([0.7, -0.4, 0.1]),
        "motor": motor(e23, 0.6, [0.3, 0.2, -0.1]),
        "scalor": scalor(1.7, [0.5, 0.0, 0.0]),
    }


class TestActionMatrix:
    @pytest.mark.parametrize("family", sorted(operator_families()))
    @pytest.mark.parametrize("convention", ["twisted-adjoint", "paper-literal"])
    def test_matches_product_form(self, rng, family, convention):
        v = operator_families()[family]
        mode = "motion" if v.parity == "even" else "reflection"
        inputs = [random_mv(ALG, rng, grade=g) for g in range(ALG.n + 1) for _ in range(3)]
        inputs.append(random_mv(ALG, rng))
        batch = apply(v, np.stack([X.coeffs for X in inputs]), mode, convention=convention)
        assert batch.shape == (len(inputs), ALG.dim)
        for X, row in zip(inputs, batch):
            want = product_sandwich(v, X, convention)
            got = apply(v, X, mode, convention=convention)
            assert_mv_close(got, want, tol=1e-13)
            assert_mv_close(ALG.mv(row), want, tol=1e-13)
            # a single multivector is a one-row batch
            assert np.array_equal(got.coeffs, apply(v, X.coeffs[None, :], mode, convention=convention)[0])

    def test_empty_and_invalid_batches(self):
        R = rotor(e12, 0.8)
        empty = apply(R, np.zeros((0, ALG.dim)), "motion")
        assert isinstance(empty, np.ndarray) and empty.shape == (0, ALG.dim)
        with pytest.raises(ParityModeError):
            apply(R, np.stack([e1.coeffs, e2.coeffs]), "reflection")
        with pytest.raises(SignatureMismatchError):
            apply(R, algebra(3, 0).blade(1), "motion")
        # a sequence of multivectors is refused, not stacked
        with pytest.raises(TypeError, match="list"):
            apply(R, [e1, e2], "motion")


# -- closed forms: the norm their formula states -------------------------------

U = 2.0 ** -53  # unit roundoff of float64
EUCLID, PLUS, MINUS = [1, 2, 4], 8, 16  # coefficient indices of e1, e2, e3, e+, e-
RANGE_REFUSAL = "versor's action on points is all rounding or overflows: error bound "
NO_INVERSE = "versor has no finite inverse: <v ~v>_0 = "
NO_ROWS = np.empty((0, ALG.dim))  # `apply` on it runs the range check alone


def scalar_rounding(mv):
    """8 u sum v_i^2: a rounding bound for the computed scalar part of v ~v, a sum of the
    32 terms +-v_i^2, of a v whose coefficients are exact."""
    return 8 * U * float(mv.coeffs @ mv.coeffs)


def abs_product(*factors):
    """|f1| o |f2| o ...: the product with every sign +1. A product of rounded factors is
    off by at most about n u times it, coefficient by coefficient (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 3), so it stands in for |v| in the
    rounding bound of a versor whose .mv is a computed product."""
    w = np.abs(factors[0].coeffs)
    for f in factors[1:]:
        w = np.abs(ALG.right_matrix(f.coeffs)) @ w
    return w


def unit_vector(rng):
    d = rng.normal(size=3)
    return d / np.linalg.norm(d)


def line_through(p, d):
    """The classified line through p along the unit vector d, from its parameters (moment
    d ^ p): far out, `make_line` refuses the wedge of its points."""
    moment = (d[0] * p[1] - d[1] * p[0], d[0] * p[2] - d[2] * p[0], d[1] * p[2] - d[2] * p[1])
    blade = embed_point(p) ^ embed_point(p + d) ^ einf
    return ConformalObject("line", blade, {"direction": tuple(d), "moment": moment})


TRANSLATION = [ALG.blade_bits(f"e{i}{sign}") for i in "123" for sign in "+-"]  # e1+, e1-, e2+, ...


def scalor_formula(s, c):
    """cosh lam + sinh lam (E - c ^ einf), lam = ln(s) / 2, coefficient by coefficient: cosh lam
    on the scalar, sinh lam on E = e+-, and -(sinh lam c_i) on e_i+ and e_i-."""
    lam = 0.5 * math.log(s)
    coeffs = np.zeros(ALG.dim)
    coeffs[0], coeffs[ALG.blade_bits("e+-")] = math.cosh(lam), math.sinh(lam)
    coeffs[TRANSLATION] = np.repeat([-(math.sinh(lam) * x) for x in c], 2)
    return ALG.mv(coeffs)


def line_formula(line):
    """d | I3 + (I3 m) ^ einf from the line's direction d and moment m, in algebra products that are all exact."""
    d, m = line.params["direction"], line.params["moment"]
    return (euclid_vector(d) | I3) + ((I3 * euclid_bivector(m)) ^ einf)


def rotate(axes, theta, q):
    """Rotation by theta in the coordinate plane axes = (a, b), e_a towards e_b."""
    a, b = axes
    out = q.copy()
    out[:, a] = math.cos(theta) * q[:, a] - math.sin(theta) * q[:, b]
    out[:, b] = math.sin(theta) * q[:, a] + math.cos(theta) * q[:, b]
    return out


def reflect(n, d, q):
    return q - 2.0 * np.outer(q @ n - d, n)


CLOSED_FORMS = ("translator", "rotor", "motor", "scalor", "scalor-center", "plane", "sphere", "line", "glide")


@functools.lru_cache(maxsize=None)
def closed_forms(seed, count) -> tuple:
    """Seeded closed forms at offsets 10^0 to 10^6 and angles across [-2 pi, 2 pi]. Each is
    (name, versor, the factors its .mv is the product of, mode, the Euclidean map it
    applies, the offset); the versor is None where `apply`'s range check refuses it."""
    rng = np.random.default_rng(seed)
    return tuple((name, in_range(build), *rest) for k in range(count) for name, build, *rest in _closed_forms_at(rng, k))


def in_range(build):
    """build(), or None where `apply` refuses its action on points as all rounding."""
    v = build()
    try:
        apply(v, NO_ROWS, mode_of(v))
    except DomainError as exc:
        assert str(exc).startswith(RANGE_REFUSAL), exc
        return None
    return v


def _closed_forms_at(rng, k, decades=6):
    planes = [(e12, (0, 1)), (e23, (1, 2)), (2.5 * (e1 ^ e3), (0, 2))]
    off = float(10 ** rng.uniform(0, decades))
    c, n, dl = off * unit_vector(rng), unit_vector(rng), unit_vector(rng)
    theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
    i, axes = planes[k % 3]
    d, r, s = off * float(rng.choice([-1.0, 1.0])), float(10 ** rng.uniform(-1, 1)), float(2 ** rng.uniform(-1, 1))
    T = translator(c).mv
    line = line_through(c, dl)
    mirror = reflector_plane(n, d)
    return [
        ("translator", lambda: translator(c), [T], "motion", lambda q: q + c, off),
        ("rotor", lambda: rotor(i, theta), [rotor(i, theta).mv], "motion", lambda q: rotate(axes, theta, q), 1.0),
        ("motor", lambda: motor(i, theta, c), [T, rotor(i, theta).mv], "motion",
         lambda q: rotate(axes, theta, q + c), off),
        ("scalor", lambda: scalor(s), [scalor_formula(s, [0.0, 0.0, 0.0])], "motion", lambda q: s * q, 1.0),
        ("scalor-center", lambda: scalor(s, c), [scalor_formula(s, c)], "motion", lambda q: c + s * (q - c), off),
        ("plane", lambda: mirror, [mirror.mv], "reflection", lambda q: reflect(n, d, q), off),
        ("sphere", lambda: reflector_sphere(c, r), [sphere_vector(c, r)], "reflection",
         lambda q: c + r * r * (q - c) / ((q - c) ** 2).sum(axis=1)[:, None], off),
        ("line", lambda: reflector_line(line), [line_formula(line)], "motion",
         lambda q: 2.0 * (c + np.outer((q - c) @ dl, dl)) - q, off),
        ("glide", lambda: compose([mirror, translator(c)]), [mirror.mv, T], "reflection",
         lambda q: reflect(n, d, q) + c, off),
    ]


def locations(rows):
    """Euclidean location x / w of point rows, w = e- - e+, read off the coefficients:
    classification refuses far points on its own tolerance."""
    return rows[:, EUCLID] / (rows[:, [MINUS]] - rows[:, [PLUS]])


WEIGHT_REFUSAL = re.compile(r"versor's action on row (\d+) is all rounding: weight (\S+) within its error bound (\S+)$")
ONE_WEIGHT_REFUSAL = re.compile(r"versor's action is all rounding: weight (\S+) within its error bound (\S+)$")


def answered(v, X, mode):
    """apply(v, X, mode), or where the weight guard refuses a row, each row alone, with NaN
    for every row it refuses."""
    try:
        return apply(v, X, mode)
    except DomainError as exc:
        assert WEIGHT_REFUSAL.match(str(exc)), exc
    out = np.full_like(X, np.nan)
    for k in range(len(X)):
        try:
            out[k] = apply(v, X[k:k + 1], mode)[0]
        except DomainError as exc:
            assert WEIGHT_REFUSAL.match(str(exc)), exc
    return out


class TestClosedFormCertificate:
    """The closed forms state their norm <v ~v>_0 instead of certifying it numerically."""

    def test_agrees_with_make_versor_where_it_accepts(self):
        """Wherever the numeric certificate accepts a closed form's .mv: the same parity, a norm
        within rounding of the computed one, and the same action on points. The bound on the
        norm is 8 u sum w_i^2, with w = |v| for a form given by one formula (`scalar_rounding`)
        and the absolute product of its factors for one computed as a product (the motor and
        the glide).
        The two inverses differ by the factor s / norm2, which rescales every row of `apply`;
        with it taken out, the rows agree to 1e-13 of the sum of absolute terms they add up.
        Half the points sit near the form's offset, where the weight guard refuses some rows
        as all rounding; the rows that it answers for both versors agree."""
        rng = np.random.default_rng(41)
        accepted, refused, guarded = Counter(), Counter(), 0
        for name, v, factors, mode, _, off in closed_forms(17, 200):
            if v is None:  # out of range, which the numeric certificate refuses too
                with pytest.raises(SingularVersorError):
                    make_versor(math.prod(factors))
                continue
            try:
                ref = make_versor(v.mv)
                ref.inverse()  # a far sphere mirror that vanishes there may pass the point rule
            except SingularVersorError:
                refused[name] += 1
                continue
            accepted[name] += 1
            assert ref.parity == v.parity, name
            w = abs_product(*factors)
            assert abs(v.norm2 - ref.norm2) <= 8 * U * float(w @ w), (name, off)
            if len(factors) == 1:
                assert abs(v.norm2 - ref.norm2) <= scalar_rounding(v.mv), (name, off)
            c = off * unit_vector(rng)
            X = embed_points(np.vstack([rng.uniform(-3, 3, (2, 3)), c + rng.uniform(-3, 3, (2, 3))]))
            got, want = answered(v, X, mode) * v.norm2, answered(ref, X, mode) * ref.norm2
            kept = ~np.isnan(got[:, 0]) & ~np.isnan(want[:, 0])
            guarded += int((~kept).sum())
            K = np.abs(ALG.left_matrix((~v.mv).coeffs)) @ np.abs(ALG.right_matrix(v.mv.coeffs))
            size = (np.abs(X) @ K.T).max(axis=1)
            assert np.all(np.abs(got - want)[kept].max(axis=1, initial=0.0) <= 1e-13 * size[kept]), (name, off)
        assert set(accepted) == set(CLOSED_FORMS) and min(accepted.values()) >= 60, accepted
        assert guarded >= 1, guarded
        # far out the numeric test calls the norm zero for every form but the rotor and scalor
        assert set(refused) == set(CLOSED_FORMS) - {"rotor", "scalor"}, refused

    def test_far_forms_apply_the_euclidean_map(self):
        """Where the numeric certificate refuses a far closed form, `apply` still gives the
        Euclidean answer, to a bound that grows with u |c|^2. The action matrix has entries
        up to about (1 + |c|)^2 (each factor of the sandwich holds |c|-sized terms), so each
        output coefficient of a point near the origin carries a rounding of about
        n u (1 + |c|)^2 for n summed terms, while its weight is of order 1: the location's
        relative error is about n u (1 + |c|)^2. The bound takes 512 u (1 + |c|)^2; seeded
        runs reach about 110."""
        rng = np.random.default_rng(43)
        refused = Counter()
        for name, v, _, mode, euclid, off in closed_forms(17, 200):
            if v is None:
                continue
            try:
                make_versor(v.mv).inverse()
                continue
            except SingularVersorError:
                refused[name] += 1
            P = rng.uniform(-3, 3, (4, 3))
            want = euclid(P)
            err = np.abs(locations(apply(v, embed_points(P), mode)) - want).max(axis=1)
            assert np.all(err <= 512 * U * (1 + off) ** 2 * (1 + np.abs(want).max(axis=1))), (name, off)
        assert min(refused.values()) >= 20, refused

    def test_mv_is_the_formula(self):
        """The closed forms keep the bytes of their formulas; the inverse is ~v / norm2."""
        rng = np.random.default_rng(47)

        def same(a, b):
            return a.coeffs.tobytes() == b.coeffs.tobytes()

        for _ in range(40):
            off = float(10 ** rng.uniform(0, 6))
            t, n = off * unit_vector(rng), unit_vector(rng)
            theta, r = float(rng.uniform(-2 * math.pi, 2 * math.pi)), float(10 ** rng.uniform(-1, 1))
            s = float(2 ** rng.uniform(-1, 1))
            i = 2.5 * (e1 ^ e3)
            a, b = rotor(i, theta), translator(t)
            cases = [
                (b, ALG.scalar(1.0) + 0.5 * (euclid_vector(t) ^ einf), 1.0),
                (a, exp_special((0.5 * theta) * (i / 2.5)), 1.0),
                (reflector_plane(n, off), plane_vector(n, off), 1.0),
                (reflector_sphere(t, r), sphere_vector(t, r), r * r),
                (scalor(s), scalor_formula(s, [0.0, 0.0, 0.0]), 1.0),
                (scalor(s, t), scalor_formula(s, t), 1.0),
                (motor(i, theta, t), b.mv * a.mv, 1.0),
                (compose([b, a, reflector_sphere(t, r)]), b.mv * a.mv * sphere_vector(t, r), r * r),
            ]
            for v, mv, norm2 in cases:
                assert same(v.mv, mv) and v.norm2 == norm2, v
                assert same(v.inv, ~v.mv / norm2), v

    def test_scalor_about_the_origin_is_its_core(self):
        """scalor(s) is its core exp(lam E) = cosh lam + sinh lam E: the formula at c = 0 bit for
        bit, signs of zeros included, and within an ulp of exp_special's core in every
        coefficient (that core's E part is lam (sinh |lam| / |lam|), two roundings); it is
        built whatever s, and `apply` takes it wherever s is in range."""
        kept = 0
        rng = np.random.default_rng(53)
        for s in 10 ** np.concatenate([rng.uniform(-300, 300, 400), rng.uniform(-6, 6, 100)]):
            core = exp_special((0.5 * math.log(float(s))) * E)
            v = scalor(float(s))
            assert v.mv.coeffs.tobytes() == scalor_formula(float(s), [0.0, 0.0, 0.0]).coeffs.tobytes(), s
            assert np.all(np.abs(v.mv.coeffs - core.coeffs) <= 2 * U * np.abs(core.coeffs)), s
            kept += in_range(lambda: v) is not None
        assert kept >= 100, kept

    @pytest.mark.parametrize("build, norm2, p, want", [
        (lambda: translator([1e6, 0.0, 0.0]), 1.0, [1.0, 2.0, 3.0], [1e6 + 1.0, 2.0, 3.0]),
        (lambda: reflector_plane([1.0, 0.0, 0.0], 5e4), 1.0, [1.0, 2.0, 3.0], [1e5 - 1.0, 2.0, 3.0]),
        (lambda: reflector_sphere([1e3, 0.0, 0.0], 1.5), 2.25, [0.0, 0.0, 0.0], [1e3 - 2.25e-3, 0.0, 0.0]),
        (lambda: compose([translator([4e4, 0.0, 0.0])] * 2), 1.0, [1.0, 2.0, 3.0], [8e4 + 1.0, 2.0, 3.0]),
    ], ids=["translator-1e6", "plane-5e4", "sphere-1e3", "translator-product-8e4"])
    def test_far_versors_are_accepted(self, build, norm2, p, want):
        """Exact versors that the numeric test refuses, as it still does for a user's v."""
        v = build()
        assert v.norm2 == norm2 and not v.is_null
        with pytest.raises(SingularVersorError):
            make_versor(v.mv)
        mode = "motion" if v.parity == "even" else "reflection"
        got = locations(apply(v, embed_point(p), mode).coeffs[None, :])[0]
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def unchecked(mv, norm2=1.0):
    """A closed form's versor, from its formula and the norm it states."""
    return Versor(mv, "odd" if mv.parity() == "odd" else "even", norm2, ~mv / norm2)


def unchecked_apply(v, X):
    """`apply`'s images of the rows X under the twisted adjoint, with no range check or weight guard."""
    return X @ np.where(_SAME_GRADE, full_action(v, "twisted-adjoint"), 0.0).T


def mode_of(v):
    return "motion" if v.parity == "even" else "reflection"


class TestRangeCheck:
    """A versor whose action on points near the origin would be all rounding, or would
    overflow, is refused where it acts, by `apply`, with a bound named in the message. A
    closed form is built whatever its range."""

    @pytest.mark.parametrize("build, formula, norm2, euclid", [
        (lambda: translator([1e7, 0.0, 0.0]), lambda: ALG.scalar(1.0) + 0.5 * (1e7 * e1 ^ einf), 1.0,
         lambda q: q + [1e7, 0.0, 0.0]),
        (lambda: compose([translator([6e4, 0.0, 0.0])] * 250), lambda: ALG.scalar(1.0) + 0.5 * (1.5e7 * e1 ^ einf),
         1.0, lambda q: q + [1.5e7, 0.0, 0.0]),
        (lambda: reflector_plane([1.0, 0.0, 0.0], 1e7), lambda: plane_vector([1.0, 0.0, 0.0], 1e7), 1.0,
         lambda q: q * [-1.0, 1.0, 1.0] + [2e7, 0.0, 0.0]),
        (lambda: reflector_sphere([1e7, 0.0, 0.0], 1.5), lambda: sphere_vector([1e7, 0.0, 0.0], 1.5), 2.25,
         lambda q: [1e7, 0.0, 0.0] + 2.25 * (q - [1e7, 0.0, 0.0]) / ((q - [1e7, 0.0, 0.0]) ** 2).sum(axis=1)[:, None]),
        (lambda: scalor(1e7), lambda: exp_special((0.5 * math.log(1e7)) * E), 1.0, lambda q: 1e7 * q),
    ], ids=["translator-1e7", "chain-of-250-T(6e4)", "plane-1e7", "sphere-1e7", "scalor-1e7"])
    def test_refuses_where_the_image_is_rounding(self, build, formula, norm2, euclid):
        """Built as its formula; `apply` refuses it with its bound, which is at least 1; applied
        without the check, the same versor moves points near the origin by at least 1e-4 of
        their image's size away from the Euclidean answer, up to all of it."""
        v = build()
        assert v.norm2 == norm2 and np.array_equal(v.mv.coeffs, formula().coeffs)
        P = np.random.default_rng(59).uniform(-1.7, 1.7, (8, 3))
        with pytest.raises(DomainError) as info:
            apply(v, embed_points(P), mode_of(v))
        message = str(info.value)
        assert message.startswith(RANGE_REFUSAL) and float(message[len(RANGE_REFUSAL):].split()[0]) >= 1.0
        got = locations(unchecked_apply(unchecked(formula(), norm2), embed_points(P)))
        want = np.asarray(euclid(P), dtype=float)
        err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
        assert not np.all(err < 1e-4), err

    @pytest.mark.parametrize("build, where, message", [
        (lambda: translator([1e150, 0.0, 0.0]), "apply",
         RANGE_REFUSAL + "1.14e+287 from <v ~v>_0 = 1.0 and largest coefficient 5e+149"),
        (lambda: translator([1e200, 0.0, 0.0]), "apply", RANGE_REFUSAL + "nan from <v ~v>_0 = 1.0 and largest coefficient 5e+199"),
        (lambda: scalor(1e200), "apply", RANGE_REFUSAL + "inf from <v ~v>_0 = 1.0 and largest coefficient 5.000000000000055e+99"),
        (lambda: scalor(2.0, [1e200, 0.0, 0.0]), "apply", RANGE_REFUSAL + "nan from <v ~v>_0 = 1.0 and largest coefficient 3.535533905932737e+199"),
        (lambda: compose([make_versor(1e100 * e1)] * 2), "build", NO_INVERSE + "inf and largest coefficient 1e+200"),
        (lambda: reflector_sphere([0.0, 0.0, 0.0], 1e-160), "build", NO_INVERSE + "1e-320 and largest coefficient 0.5"),
        (lambda: reflector_sphere([0.0, 0.0, 0.0], 0.0), "build", NO_INVERSE + "0.0 and largest coefficient 0.5"),
    ], ids=["translator-1e150", "translator-overflow", "scalor-1e200", "scalor-center-overflow", "compose-norm-overflow",
            "sphere-norm-underflows", "sphere-radius-0"])
    def test_refusal_names_the_bound_the_norm_and_the_size(self, build, where, message):
        """A form whose action is all rounding or overflows is refused by `apply`; one whose
        norm is 0 or not finite, or whose product overflowed, has no finite inverse and is
        refused when it is built. Any RuntimeWarning on the way is an error in this suite."""
        with pytest.raises(DomainError) as info:
            v = build()
            assert where == "apply", v
            apply(v, embed_point([0.0, 0.0, 0.0]), mode_of(v))
        assert str(info.value) == message

    def test_bound_holds_where_it_accepts(self):
        """Seeded forms from 10^0 out past the refusals: wherever `apply` accepts the closed
        form, its images of points within 3 of the origin are within 0.2 of the Euclidean
        answer, relative. Its bound is below 1 there, and seeded runs stay under a fifth of it."""
        rng = np.random.default_rng(61)
        accepted = refused = 0
        for k in range(300):
            off = float(10 ** rng.uniform(0, 8))
            c, n, r = off * unit_vector(rng), unit_vector(rng), float(10 ** rng.uniform(-1, 1))
            s = float(10 ** rng.uniform(-8, 8))
            name, build, mode, euclid = [
                ("translator", lambda: translator(c), "motion", lambda q: q + c),
                ("plane", lambda: reflector_plane(n, off), "reflection", lambda q: reflect(n, off, q)),
                ("sphere", lambda: reflector_sphere(c, r), "reflection",
                 lambda q: c + r * r * (q - c) / ((q - c) ** 2).sum(axis=1)[:, None]),
                ("scalor", lambda: scalor(s), "motion", lambda q: s * q),
            ][k % 4]
            v = in_range(build)
            if v is None:
                refused += 1
                continue
            accepted += 1
            P = rng.uniform(-1.7, 1.7, (4, 3))
            want = euclid(P)
            err = np.abs(locations(apply(v, embed_points(P), mode)) - want).max(axis=1) / np.abs(want).max(axis=1)
            assert np.all(err <= 0.2), (name, off, s, err)
        assert accepted >= 150 and refused >= 40, (accepted, refused)


class TestMotorCertificate:
    """`motor` is T R from the translator and rotor formulas; the path it replaced,
    compose([translator(t), rotor(i, theta)]), gives the same versor, and `apply` checks the
    range of either once."""

    def test_is_the_composed_path(self):
        """Seeded motors at offsets 10^0 to 10^9, in four planes, at angles across [-2 pi, 2 pi]:
        `motor` is the composed path's versor, its .mv, norm and inverse bit for bit, and
        `apply` refuses it by the range check exactly where it refuses the composed one."""
        rng = np.random.default_rng(67)
        planes = [e12, e23, 2.5 * (e1 ^ e3), e12 + 0.5 * e23]
        accepted = refused = 0
        for k in range(2000):
            t = float(10 ** rng.uniform(0, 9)) * unit_vector(rng)
            i, theta = planes[k % 4], float(rng.uniform(-2 * math.pi, 2 * math.pi))
            want, got = compose([translator(t), rotor(i, theta)]), motor(i, theta, t)
            assert got.mv.coeffs.tobytes() == want.mv.coeffs.tobytes() and got.norm2 == want.norm2, (t, theta)
            assert got.inv.coeffs.tobytes() == want.inv.coeffs.tobytes(), (t, theta)
            assert (in_range(lambda: got) is None) == (in_range(lambda: want) is None), (t, theta)
            if in_range(lambda: got) is None:
                refused += 1
            else:
                accepted += 1
        assert accepted >= 1000 and refused >= 500, (accepted, refused)

    def test_product_at_the_float_limit_is_refused_without_a_warning(self):
        """No coefficient of T R passes |t| / 2, so T R is finite even at translations near the
        float limit; it is built, `apply` refuses it by the range check, and numpy warns of
        nothing (an error here)."""
        big = float(np.finfo(float).max)
        for t in ([big, big, big], [big, -big, 0.0], [big, 0.0, 0.0]):
            v = motor(e12 + 0.5 * e23, 0.7, t)
            with pytest.raises(DomainError) as info:
                apply(v, embed_point([1.0, 2.0, 3.0]), "motion")
            assert str(info.value).startswith(RANGE_REFUSAL), info.value

    def test_one_range_check(self, monkeypatch):
        """Building a motor checks no range; applying it checks it once, from the L(v^-1) and
        R(v) that the action is formed from, and the |L| |R| that the weight guard uses too."""
        calls = []
        check = versor_module._check_range
        monkeypatch.setattr(versor_module, "_check_range", lambda *args: calls.append(args) or check(*args))
        v = motor(e12, 0.7, [1.0, 2.0, 3.0])
        assert calls == []
        apply(v, embed_points(np.eye(3)), "motion")
        assert len(calls) == 1 and calls[0][0] is v
        L, R = ALG.left_matrix(v.inv.coeffs), ALG.right_matrix(v.mv.coeffs)
        assert np.array_equal(calls[0][1], np.abs(L) @ np.abs(R))
        assert np.array_equal(calls[0][2], L) and np.array_equal(calls[0][3], R)

    def test_refusal_names_the_motors_own_size(self):
        """The bound and largest coefficient are T R's, where the composed path of factors
        that were each checked named its translator's (1.14e+287 and 5e+149)."""
        with pytest.raises(DomainError) as info:
            apply(motor(e12, 0.7, [1e150, 0.0, 0.0]), embed_point([0.0, 0.0, 0.0]), "motion")
        assert str(info.value) == RANGE_REFUSAL + "3.56e+153 from <v ~v>_0 = 1.0 and largest coefficient 4.696863564236894e+149"


def old_bound(v):
    """A copy of the range bound that closed forms and `compose` were checked by when they were
    built, before `apply` took the check over: 1024 u times the ratio of terms to image over
    the location rows of K = L(v^-1) R(v)."""
    location = np.vstack([np.eye(ALG.dim)[EUCLID], -einf.coeffs * ALG.rev_norm_signs])
    with np.errstate(all="ignore"):
        L, R = ALG.left_matrix(v.inv.coeffs), ALG.right_matrix(v.mv.coeffs)
        terms, image = np.abs(location) @ np.abs(L) @ np.abs(R), np.abs(location @ L @ R)
        return 2.0 ** -43 * float(np.maximum(terms[:3].max() / image[:3].max(), terms[3].max() / image[3].max()))


class TestRangeInApply:
    """`apply` is the one place that checks a versor's range, for every invertible versor:
    the closed forms, `compose` and what `make_versor` accepts."""

    def test_make_versor_versors_are_range_checked(self):
        """exp(8.06 E) written out is a scalor by about 1e7, refused as scalor(1e7) is."""
        for v in (make_versor(exp_special(8.06 * E)), scalor(1e7)):
            with pytest.raises(DomainError) as info:
                apply(v, embed_point([1.0, 2.0, 3.0]), "motion")
            message = str(info.value)
            assert message.startswith(RANGE_REFUSAL) and float(message[len(RANGE_REFUSAL):].split()[0]) >= 1.0

    def test_closed_forms_build_out_to_their_overflow_limit(self):
        """At offsets 10^0 to 10^100 every closed form and `compose` is built without a refusal
        or a warning, its .mv the formula's bytes, its norm the stated one, and its inverse
        ~v / norm2."""
        rng = np.random.default_rng(71)

        def same(a, b):
            return a.coeffs.tobytes() == b.coeffs.tobytes()

        for _ in range(60):
            off = float(10 ** rng.uniform(0, 100))
            t, n, dl = off * unit_vector(rng), unit_vector(rng), unit_vector(rng)
            theta, r = float(rng.uniform(-2 * math.pi, 2 * math.pi)), float(10 ** rng.uniform(-1, 1))
            s = float(2 ** rng.uniform(-1, 1))
            i = 2.5 * (e1 ^ e3)
            T = ALG.scalar(1.0) + 0.5 * (euclid_vector(t) ^ einf)
            Rt = exp_special((0.5 * theta) * (i / 2.5))
            line = line_through(t * min(1.0, 1e50 / off), dl)  # past 1e50 the test's own blade overflows
            cases = [
                (translator(t), T, 1.0),
                (rotor(i, theta), Rt, 1.0),
                (motor(i, theta, t), T * Rt, 1.0),
                (reflector_plane(n, off), plane_vector(n, off), 1.0),
                (reflector_sphere(t, r), sphere_vector(t, r), r * r),
                (scalor(s, t), scalor_formula(s, t), 1.0),
                (reflector_line(line), line_formula(line), 1.0),
                (compose([translator(t), rotor(i, theta), reflector_sphere(t, r)]), T * Rt * sphere_vector(t, r), r * r),
            ]
            for v, mv, norm2 in cases:
                assert same(v.mv, mv) and v.norm2 == norm2, (v, off)
                assert same(v.inv, ~mv / norm2), (v, off)

    def test_refuses_where_the_old_bound_reaches_1_and_nowhere_else(self):
        """Seeded closed forms at offsets 10^0 to 10^9: `apply` refuses exactly those whose copy
        of the old bound is at least 1 (or NaN), with that bound in the message."""
        rng = np.random.default_rng(73)
        refused = accepted = 0
        for k in range(120):
            for name, build, *_ in _closed_forms_at(rng, k, decades=9):
                v = build()
                bound = old_bound(v)
                try:
                    apply(v, NO_ROWS, mode_of(v))
                except DomainError as exc:
                    assert not bound < 1.0, (name, bound)
                    assert str(exc) == f"{RANGE_REFUSAL}{bound:.3g} from <v ~v>_0 = {v.norm2!r} and largest coefficient {v.mv.max_abs()!r}"
                    refused += 1
                else:
                    assert bound < 1.0, (name, bound)
                    accepted += 1
        assert refused >= 200 and accepted >= 400, (refused, accepted)

    def test_one_left_and_one_right_matrix_per_apply(self, monkeypatch):
        """Each `apply` builds L(v^-1) and R(v) once, for its range check, its weight guard and
        its action alike, for every kind of versor."""
        versors = [motor(e12, 0.7, [1.0, 2.0, 3.0]), reflector_sphere([0.5, 0.0, 0.0], 1.5),
                   compose([translator([1.0, 0.0, 0.0]), reflector_plane([0.0, 1.0, 0.0], 0.5)]),
                   make_versor(e1 * e2 + 0.5 * (e1 ^ einf)), reflector_point([1.0, 2.0, 3.0])]
        calls = Counter()
        for name in ("left_matrix", "right_matrix"):
            real = getattr(ALG, name)
            monkeypatch.setattr(ALG, name, lambda coeffs, real=real, name=name: calls.update([name]) or real(coeffs))
        X = embed_points(np.random.default_rng(79).uniform(-2, 2, (5, 3)))
        for v in versors:
            calls.clear()
            apply(v, X, mode_of(v))
            assert calls == {"left_matrix": 1, "right_matrix": 1}, (v, calls)


def weight_and_bound(v, X):
    """A copy of the weight guard's two sides for the rows X: max |einf | image| and its
    rounding bound, 66 u (|C| |L| |R|) |x| at its largest, with C the map X -> einf | X: 32
    terms in each of the nested sums L R and K x, and at most 2 in C's (Higham, ch. 3)."""
    C = ALG.product("lcont", einf.coeffs, np.eye(ALG.dim))
    L, R = ALG.left_matrix(v.inv.coeffs), ALG.right_matrix(v.mv.coeffs)
    weight = np.abs(unchecked_apply(v, X) @ C).max(axis=1)
    bound = 66 * U * (np.abs(X) @ (np.abs(L) @ np.abs(R)).T @ np.abs(C)).max(axis=1)
    return weight, bound


class TestWeightGuard:
    """`apply` refuses a row whose image's weight part, einf | image, is above the zero
    threshold and within its rounding bound: any location read from it is rounding. The range
    check bounds points near the origin only."""

    def test_far_mirror_of_a_point_near_its_sphere_is_refused(self):
        """The mirror at 1e3 passes the range check; its image of (1002, 0, 0) read as a point at
        (176.6, 0, 0) before, where (1001.125, 0, 0) is due."""
        v = reflector_sphere([1e3, 0.0, 0.0], 1.5)
        with pytest.raises(DomainError) as info:
            apply(v, embed_point([1002.0, 0.0, 0.0]), "reflection")
        match = ONE_WEIGHT_REFUSAL.match(str(info.value))
        assert match and float(match[1]) <= float(match[2]), info.value
        assert not isinstance(info.value, RowRoundingError)  # one multivector has no row to name

    def test_refusal_names_the_row(self):
        v = reflector_sphere([1e3, 0.0, 0.0], 1.5)
        X = embed_points([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [1002.0, 0.0, 0.0]])
        with pytest.raises(RowRoundingError) as info:
            apply(v, X, "reflection")
        assert WEIGHT_REFUSAL.match(str(info.value))[1] == "2" and info.value.row == 2, info.value
        assert str(info.value).endswith(": " + info.value.reason)
        apply(v, X[:2], "reflection")  # the other rows are answered

    def test_exact_far_translation_is_answered(self):
        """T(3e3, 1, 2) moves (3e3, 3, 1) to (6e3, 4, 3) with no rounding at all; the weight 1
        is above its bound, about 0.58. A bound 16 times as large refused it."""
        X = embed_points([[3e3, 3.0, 1.0]])
        v = translator([3e3, 1.0, 2.0])
        weight, bound = weight_and_bound(v, X)
        assert weight[0] == 1.0 and 0.5 < bound[0] < 1.0 < 16 * bound[0], bound
        got = apply(v, X, "motion")
        assert locations(got).tolist() == [[6e3, 4.0, 3.0]] and got[0, MINUS] - got[0, PLUS] == 1.0

    def test_near_mirror_of_a_point_near_its_sphere_is_answered(self):
        """The mirror at 100 sends (101, 0, 0) to (102.25, 0, 0), within bound / weight."""
        v, X = reflector_sphere([100.0, 0.0, 0.0], 1.5), embed_points([[101.0, 0.0, 0.0]])
        weight, bound = weight_and_bound(v, X)
        err = np.max(np.abs(locations(apply(v, X, "reflection"))[0] - [102.25, 0.0, 0.0])) / 102.25
        assert err <= bound[0] / weight[0] and err <= 1e-4, (err, bound, weight)

    def test_flats_with_no_weight_part_are_answered(self):
        """An IPNS plane n + d einf has einf | X = 0; a far motion or mirror moves it without a
        refusal, to the plane its Euclidean map gives."""
        planes = np.stack([plane_vector(n, d).coeffs for n, d in (([1.0, 0.0, 0.0], 2.0), ([0.0, 0.6, 0.8], -1e3))])
        for v in (translator([3e4, 0.0, 0.0]), reflector_plane([0.0, 0.0, 1.0], 5e3), motor(e12, 0.7, [1e3, -2e3, 0.0])):
            got = apply(v, planes, mode_of(v))
            assert np.all(weight_and_bound(v, planes)[0] <= 1e-9 * np.abs(got).max(axis=1))

    def test_answered_rows_are_within_their_bound_and_refused_rows_are_rounding(self):
        """Sphere mirrors at 1e2 to 3e3 acting on points near their sphere: each row the guard
        answers has a location within bound / weight of the Euclidean answer, relative; each row
        it refuses is, applied without it, more than 1e-6 off."""
        rng = np.random.default_rng(83)
        answered_rows = refused_rows = 0
        for _ in range(60):
            c = float(10 ** rng.uniform(2, math.log10(3e3))) * unit_vector(rng)
            r = float(10 ** rng.uniform(-0.5, 0.5))
            v = reflector_sphere(c, r)
            P = c + r * 10 ** rng.uniform(-0.5, 0.5, (6, 1)) * np.array([unit_vector(rng) for _ in range(6)])
            want = c + r * r * (P - c) / ((P - c) ** 2).sum(axis=1)[:, None]
            X = embed_points(P)
            weight, bound = weight_and_bound(v, X)
            rows = answered(v, X, "reflection")
            err = np.abs(locations(unchecked_apply(v, X)) - want).max(axis=1) / np.abs(want).max(axis=1)
            kept = ~np.isnan(rows[:, 0])
            assert np.all(err[kept] <= bound[kept] / weight[kept]), (c, r)
            assert np.all(err[~kept] > 1e-6), (c, r)
            answered_rows, refused_rows = answered_rows + int(kept.sum()), refused_rows + int((~kept).sum())
        assert answered_rows >= 20 and refused_rows >= 100, (answered_rows, refused_rows)


# -- apply keeps the action's grade blocks --------------------------------------------


def full_action(v, convention):
    """The action matrix K = L(v^-1) R(v) with every block, as the neuron uses it."""
    left = v.mv if v.inv is None else v.inv
    return _action_matrix(ALG.left_matrix(left.coeffs) @ ALG.right_matrix(v.mv.coeffs), v.parity, convention)


def grade_block_cases():
    return {
        **operator_families(),
        "point-far": reflector_point([1e6, 0.0, 0.0]),
        "compose": compose([reflector_sphere([0.5, -0.2, 0.0], 1.5), motor(e23, 0.6, [0.3, 0.2, -0.1])]),
    }


class TestGradeBlocks:
    """A versor's action preserves grade, so `apply` keeps only the grade-diagonal blocks of
    K: the cross-grade entries of the computed K are rounding, which the full K writes into
    every grade the input does not have."""

    @pytest.mark.parametrize("family", sorted(grade_block_cases()))
    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_no_off_grade_output(self, rng, family, convention):
        """Row g of the batch has grade g: its image is exactly 0.0 outside grade g, and inside
        it the same floats as the full K gives."""
        v = grade_block_cases()[family]
        mode = "motion" if v.parity == "even" else "reflection"
        X = np.stack([random_mv(ALG, rng, grade=g).coeffs for g in range(ALG.n + 1)])
        got = apply(v, X, mode, convention=convention)
        in_grade = np.arange(ALG.n + 1)[:, None] == ALG.grades[None, :]
        assert np.all(got[~in_grade] == 0.0)
        assert np.array_equal(got[in_grade], (X @ full_action(v, convention).T)[in_grade])

    @pytest.mark.parametrize("family", sorted(grade_block_cases()))
    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_mixed_grade_maps_grade_by_grade(self, rng, family, convention):
        v = grade_block_cases()[family]
        mode = "motion" if v.parity == "even" else "reflection"
        X = random_mv(ALG, rng)
        got = apply(v, X, mode, convention=convention).coeffs
        for g in range(ALG.n + 1):
            part = apply(v, X.grade(g), mode, convention=convention).coeffs
            assert np.all(part[ALG.grades != g] == 0.0)
            assert np.array_equal(got[ALG.grades == g], part[ALG.grades == g]), g

    def test_dropped_entries_are_rounding(self):
        """Every entry the mask drops is within 64 u (|L| |R|) of zero, the bound of
        `versor._check_range` for K's nested sums (Higham, Accuracy and Stability of Numerical
        Algorithms, ch. 3), with the absolute product w of v's factors for |v| since a
        computed .mv carries its product's rounding (`abs_product`): |L| = L(w / |norm2|)
        and |R| = R(w) for the seeded closed forms at offsets up to 10^6, point mirrors, and
        `make_versor` of products of 1 to 4 random vectors. An even or odd v with v ~v a
        scalar is a versor in Cl(4,1) (Lounesto, Clifford Algebras and Spinors, 2nd ed.,
        sec. 17), so its exact K has no cross-grade entries."""
        rng = np.random.default_rng(21)
        cases = [(v, factors) for _, v, factors, *_ in closed_forms(17, 200) if v is not None]
        cases += [(reflector_point(p), [embed_point(p)]) for p in rng.uniform(-1e3, 1e3, (20, 3))]
        for k in rng.integers(1, 5, 400):
            factors = [random_mv(ALG, rng, grade=1) for _ in range(k)]
            cases.append((make_versor(math.prod(factors, start=ALG.scalar(1.0))), factors))
        nonzero = 0
        for v, factors in cases:
            w, scale = abs_product(*factors), 1.0 if v.inv is None else abs(v.norm2)
            K = np.abs(full_action(v, "twisted-adjoint"))[~_SAME_GRADE]
            terms = (np.abs(ALG.left_matrix(w / scale)) @ np.abs(ALG.right_matrix(w)))[~_SAME_GRADE]
            assert np.all(K <= 64 * U * terms), v
            nonzero += int(np.count_nonzero(K))
        assert nonzero > 0  # the full K does carry cross-grade rounding
