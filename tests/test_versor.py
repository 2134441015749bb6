"""Versor construction, the twisted-adjoint action, and composition."""

import math

import numpy as np
import pytest

from confga import (
    DegenerateError,
    DomainError,
    GradeError,
    MixedParityError,
    NotVersorError,
    ParityModeError,
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
from confga.conformal import ALG, E, e0, e1, e2, e3, einf, euclid_vector

from confga.algebra import scalar_product
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
        with pytest.raises(SingularVersorError):
            make_versor(einf)
        v = make_versor(embed_point([1.0, 0.0, 0.0]), allow_null=True)
        assert v.is_null
        with pytest.raises(SingularVersorError):
            v.inverse()

    @pytest.mark.parametrize("allow_null", [False, True])
    def test_matches_reference(self, allow_null):
        """The one certificate decides as make_versor's own checks did (conftest's reference
        copy), with the same error and message or the same bytes."""
        seen = set()
        for c in certificate_rows():
            mv = ALG.mv(c)
            want = outcome(reference_make_versor, mv, allow_null)
            assert outcome(make_versor, mv, allow_null) == want, mv
            seen.add(want[1] if want[0] == "raises" else want[0])
        assert seen >= {"gives", "NotVersorError", "MixedParityError", "DomainError"} | (
            set() if allow_null else {"SingularVersorError"}
        )


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
        # max|i|^2 alone, so it may accept more planes, never fewer
        rng = np.random.default_rng(3)
        accepted = 0
        for c in certificate_rows():
            i, theta = ALG.mv(c), float(rng.uniform(-3, 3))
            want = outcome(reference_rotor, i, theta)
            if want[0] == "gives":
                assert outcome(rotor, i, theta) == want, i
                accepted += 1
        assert accepted >= 50

    def test_tiny_plane_is_a_plane(self):
        plane = 1e-7 * e12
        assert scalar_product(plane, plane, "")[1]  # its square vanishes, which rotor ignores
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

    @pytest.mark.parametrize("n", [[1e200, 0, 0], [0, -1e155, 1e155], [1e308, 1e308, 1e308]])
    def test_overflowing_normal_refused(self, n):
        # |n| overflows in np.linalg.norm's dot; refused before the versor
        # test could call the unit-less result "v * ~v vanishes"
        with pytest.raises(DomainError, match=r"\|n\|\^2 of plane normal .* overflows"):
            reflector_plane(n, 1.0)

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
            make_versor(mv, allow_null=True)


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
