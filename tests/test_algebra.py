"""Unit tests for the dense multivector core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confga import tolerance
from confga.algebra import (
    Multivector,
    algebra,
    exp_special,
    format_coeff,
    format_multivector,
    geometric_product,
    grade_involution,
    grade_projection,
    left_contraction,
    outer_product,
    reverse,
    vector_inverse,
    versor_inverse,
)
from confga.errors import (
    GradeError,
    NotExponentiableError,
    NotVersorError,
    NullVectorError,
    SignatureMismatchError,
    SingularVersorError,
)
from confga.oracle import oracle_product
from conftest import assert_mv_close, max_err, random_mv

ALG = algebra(4, 1)
E1, E2, E3, EP, EM = (ALG.basis_vector(k) for k in range(5))


def coeffs_strategy():
    return st.lists(
        st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False),
        min_size=ALG.dim,
        max_size=ALG.dim,
    )


class TestGeometricProduct:
    def test_generator_squares(self):
        assert (E1 * E1) == ALG.scalar(1.0)
        assert (E2 * E2) == ALG.scalar(1.0)
        assert (E3 * E3) == ALG.scalar(1.0)
        assert (EP * EP) == ALG.scalar(1.0)
        assert (EM * EM) == ALG.scalar(-1.0)

    def test_anticommutation(self):
        assert (E1 * E2) == -(E2 * E1)

    def test_blade_times_blade(self):
        assert ((E1 ^ E2) * (E2 ^ E3)) == (E1 ^ E3)

    def test_cayley_table_matches_oracle(self, cga):
        for a_bits in range(cga.dim):
            for b_bits in range(cga.dim):
                sign, bits = oracle_product(a_bits, b_bits, cga)
                got = cga.blade(a_bits) * cga.blade(b_bits)
                want = cga.blade(bits, float(sign))
                assert got == want, f"blade {a_bits} * blade {b_bits}"

    def test_associativity_random(self, cga, rng):
        for _ in range(100):
            a = random_mv(cga, rng)
            b = random_mv(cga, rng)
            c = random_mv(cga, rng)
            lhs = (a * b) * c
            rhs = a * (b * c)
            scale = max(1.0, lhs.max_abs(), rhs.max_abs())
            assert max_err(lhs, rhs) <= 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(a=coeffs_strategy(), b=coeffs_strategy(), c=coeffs_strategy())
    def test_distributes_over_addition(self, a, b, c):
        ma, mb, mc = ALG.mv(a), ALG.mv(b), ALG.mv(c)
        lhs = ma * (mb + mc)
        rhs = ma * mb + ma * mc
        scale = max(1.0, lhs.max_abs(), rhs.max_abs())
        assert max_err(lhs, rhs) <= 1e-12 * scale

    def test_vector_product_splits_into_grades_zero_and_two(self, cga, rng):
        # a b = <a b>_0 + <a b>_2 exactly, and the scalar part is the
        # metric-weighted sum of component products.
        metric = np.array([1.0, 1.0, 1.0, 1.0, -1.0])
        for _ in range(50):
            av = rng.uniform(-2, 2, 5)
            bv = rng.uniform(-2, 2, 5)
            a, b = cga.vector(av), cga.vector(bv)
            prod = a * b
            split = prod.grade(0) + prod.grade(2)
            assert prod == split
            want = float(np.sum(metric * av * bv))
            assert abs(prod.scalar_part() - want) <= 1e-13 * max(1.0, abs(want))

    def test_scalar_broadcasting(self):
        assert (2.0 * E1) == (E1 * 2.0)
        assert (E1 / 2.0) == (0.5 * E1)

    def test_signature_mismatch_rejected(self):
        other = algebra(3, 0)
        with pytest.raises(SignatureMismatchError):
            _ = E1 * other.basis_vector(0)


class TestOuterProduct:
    def test_antisymmetric_on_vectors(self, cga, rng):
        for _ in range(20):
            a = cga.vector(rng.uniform(-2, 2, 5))
            b = cga.vector(rng.uniform(-2, 2, 5))
            assert_mv_close(a ^ b, -(b ^ a), tol=0.0, scale=1.0)
            assert (a ^ a).max_abs() == 0.0

    def test_orthogonal_wedge_equals_product(self):
        assert (E1 ^ E2) == (E1 * E2)

    def test_grade_raising(self, cga, rng):
        a = random_mv(cga, rng, grade=2)
        b = random_mv(cga, rng, grade=2)
        w = a ^ b
        assert w.grades() <= {4}

    def test_associativity(self, cga, rng):
        for _ in range(50):
            a, b, c = (random_mv(cga, rng) for _ in range(3))
            lhs = (a ^ b) ^ c
            rhs = a ^ (b ^ c)
            assert max_err(lhs, rhs) <= 1e-12 * max(1.0, lhs.max_abs())


class TestLeftContraction:
    def test_vector_into_bivector(self):
        assert (E1 | (E1 ^ E2)) == E2
        assert ((E1 ^ E2) | E1).max_abs() == 0.0

    def test_scalar_cases(self):
        two = ALG.scalar(2.0)
        assert (two | E1) == (2.0 * E1)
        assert (E1 | two).max_abs() == 0.0

    def test_grade_selection_definition(self, cga, rng):
        # A_k contracted on B_l equals the (l-k)-grade part of A_k B_l.
        for ka in range(3):
            for kb in range(4):
                a = random_mv(cga, rng, grade=ka)
                b = random_mv(cga, rng, grade=kb)
                want = (a * b).grade(kb - ka) if kb >= ka else cga.zero()
                assert_mv_close(a | b, want, tol=1e-13)


class TestGradeProjection:
    def test_partition(self, cga, rng):
        a = random_mv(cga, rng)
        total = cga.zero()
        for k in range(6):
            total = total + a.grade(k)
        assert total == a

    def test_idempotent(self, cga, rng):
        a = random_mv(cga, rng)
        assert a.grade(3) == a.grade(3).grade(3)

    def test_out_of_range(self, cga, rng):
        a = random_mv(cga, rng)
        with pytest.raises(GradeError):
            a.grade(6)
        with pytest.raises(GradeError):
            grade_projection(a, -1)

    def test_outer_and_contraction_as_graded_parts(self, cga, rng):
        # For homogeneous a_k, b_l: wedge is the (k+l)-part of the product.
        a = random_mv(cga, rng, grade=2)
        b = random_mv(cga, rng, grade=1)
        assert_mv_close(a ^ b, (a * b).grade(3), tol=1e-13)


class TestInvolutions:
    def test_reverse_per_grade_signs(self, cga, rng):
        signs = [1, 1, -1, -1, 1, 1]
        for k in range(6):
            a = random_mv(cga, rng, grade=k)
            assert (~a) == (a * float(signs[k]))

    def test_reverse_antiautomorphism(self, cga, rng):
        for _ in range(50):
            a, b = random_mv(cga, rng), random_mv(cga, rng)
            lhs = ~(a * b)
            rhs = (~b) * (~a)
            assert max_err(lhs, rhs) <= 1e-12 * max(1.0, lhs.max_abs())

    def test_reverse_of_vector_chain(self, cga, rng):
        vecs = [cga.vector(rng.uniform(-2, 2, 5)) for _ in range(4)]
        chain = vecs[0] * vecs[1] * vecs[2] * vecs[3]
        back = vecs[3] * vecs[2] * vecs[1] * vecs[0]
        assert_mv_close(~chain, back, tol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(a=coeffs_strategy(), b=coeffs_strategy())
    def test_involution_automorphism(self, a, b):
        ma, mb = ALG.mv(a), ALG.mv(b)
        lhs = grade_involution(ma * mb)
        rhs = grade_involution(ma) * grade_involution(mb)
        assert max_err(lhs, rhs) <= 1e-12 * max(1.0, lhs.max_abs())

    def test_involution_signs(self, cga, rng):
        for k in range(6):
            a = random_mv(cga, rng, grade=k)
            want = a if k % 2 == 0 else -a
            assert a.involute() == want


class TestDual:
    def test_pseudoscalar_square(self, cga):
        i5 = cga.pseudoscalar()
        assert (i5 * i5) == cga.scalar(-1.0)

    def test_dual_of_scalar(self, cga):
        # 1* = I^-1 = -I since I^2 = -1.
        assert cga.scalar(1.0).dual() == cga.blade(cga.dim - 1, -1.0)

    def test_grade_complement(self, cga, rng):
        for k in range(6):
            a = random_mv(cga, rng, grade=k)
            assert a.dual().grades() <= {5 - k}

    def test_double_dual(self, cga, rng):
        a = random_mv(cga, rng)
        assert_mv_close(a.dual().dual(), -a, tol=1e-14)

    def test_dual_is_linear(self, cga, rng):
        a, b = random_mv(cga, rng), random_mv(cga, rng)
        assert_mv_close((a + b).dual(), a.dual() + b.dual(), tol=1e-14)


class TestVectorInverse:
    def test_unit_and_scaled(self):
        assert vector_inverse(E1) == E1
        assert vector_inverse(2.0 * E1) == (0.5 * E1)
        assert vector_inverse(EM) == -EM

    def test_random_vectors(self, cga, rng):
        for _ in range(50):
            v = cga.vector(rng.uniform(-2, 2, 5))
            sq = (v * v).scalar_part()
            if abs(sq) < 1e-3:
                continue
            assert_mv_close(vector_inverse(v) * v, cga.scalar(1.0), tol=1e-12)

    def test_null_vector_rejected(self):
        with pytest.raises(NullVectorError):
            vector_inverse(EP + EM)

    def test_non_vector_rejected(self):
        with pytest.raises(GradeError):
            vector_inverse(E1 ^ E2)
        with pytest.raises(GradeError):
            vector_inverse(ALG.scalar(1.0) + E1)


class TestVersorInverse:
    def test_rotor_inverse_is_reverse(self):
        r = exp_special((math.pi / 5) * (E1 ^ E2))
        assert_mv_close(versor_inverse(r), ~r, tol=1e-14)
        assert_mv_close(versor_inverse(r) * r, ALG.scalar(1.0), tol=1e-14)

    def test_scaled_versor(self, cga):
        v = 3.0 * (E1 * E2)
        assert_mv_close(versor_inverse(v) * v, cga.scalar(1.0), tol=1e-14)

    def test_grade_mixed_versor_in_cl30(self):
        # 1 + e123 in Cl(3,0): v ~v = 2, so the inverse certificate holds.
        g3 = algebra(3, 0)
        v = g3.scalar(1.0) + g3.pseudoscalar()
        inv = versor_inverse(v)
        assert_mv_close(inv * v, g3.scalar(1.0), tol=1e-14)

    def test_non_versor_rejected(self):
        with pytest.raises(NotVersorError):
            versor_inverse(ALG.scalar(1.0) + E1)

    def test_singular_rejected(self):
        with pytest.raises(SingularVersorError):
            versor_inverse(EP + EM)


class TestExpSpecial:
    def test_trig_branch(self):
        theta = math.pi / 4
        r = exp_special(theta * (E1 ^ E2))
        want = ALG.scalar(math.cos(theta)) + math.sin(theta) * (E1 ^ E2)
        assert_mv_close(r, want, tol=1e-15)

    def test_nilpotent_branch(self):
        b = E1 ^ (EP + EM)
        assert ((b * b)).max_abs() == 0.0
        assert exp_special(b) == (ALG.scalar(1.0) + b)

    def test_hyperbolic_branch(self):
        e_big = EP ^ EM
        a = 0.5 * math.log(4.0)
        z = exp_special(a * e_big)
        want = ALG.scalar(math.cosh(a)) + math.sinh(a) * e_big
        assert_mv_close(z, want, tol=1e-15)

    def test_unit_norm_of_rotor(self, rng):
        for _ in range(20):
            theta = rng.uniform(-3, 3)
            r = exp_special(theta * (E2 ^ E3))
            assert_mv_close(r * ~r, ALG.scalar(1.0), tol=1e-14)

    def test_zero_gives_one(self, cga):
        assert exp_special(cga.zero()) == cga.scalar(1.0)

    def test_rejects_wrong_grade(self):
        with pytest.raises(NotExponentiableError):
            exp_special(E1)
        with pytest.raises(NotExponentiableError):
            exp_special(ALG.scalar(1.0) + (E1 ^ E2))

    def test_rejects_nonscalar_square(self):
        b = (E1 ^ E2) + (E3 ^ EP)
        assert ((b * b) - (b * b).grade(0)).max_abs() > 0.1
        with pytest.raises(NotExponentiableError):
            exp_special(b)


class TestToleranceAndHelpers:
    def test_zero_policy_scales(self, cga):
        big = cga.scalar(1.0) + cga.blade(0b11, 1e-13)
        assert big.grades() == {0}
        visible = cga.scalar(1.0) + cga.blade(0b11, 1e-6)
        assert visible.grades() == {0, 2}

    def test_rel_eps_override(self, cga):
        noisy = cga.scalar(1.0) + cga.blade(0b11, 1e-7)
        assert noisy.grades() == {0, 2}
        tolerance.set_rel_eps(1e-6)
        try:
            assert noisy.grades() == {0}
        finally:
            tolerance.set_rel_eps(None)

    def test_parity_helper(self, cga):
        assert (E1 * E2).parity() == "even"
        assert E1.parity() == "odd"
        assert (ALG.scalar(1.0) + E1).parity() == "mixed"
        assert cga.zero().parity() is None

    def test_grade_set(self):
        m = ALG.scalar(2.0) + (E1 ^ E2) + E3
        assert m.grades() == {0, 1, 2}

    def test_immutability(self, cga):
        a = cga.scalar(1.0)
        with pytest.raises((ValueError, AttributeError)):
            a.coeffs[0] = 5.0

    def test_algebra_cache(self):
        assert algebra(4, 1) is algebra(4, 1)
        assert algebra(3, 0) is not algebra(4, 1)


class TestMultiplicationMatrices:
    def test_left_matrix_matches_product(self, cga, rng):
        m = random_mv(cga, rng)
        x = random_mv(cga, rng)
        want = (m * x).coeffs
        got = cga.left_matrix(m.coeffs) @ x.coeffs
        assert np.max(np.abs(want - got)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_right_matrix_matches_product(self, cga, rng):
        m = random_mv(cga, rng)
        x = random_mv(cga, rng)
        want = (x * m).coeffs
        got = cga.right_matrix(m.coeffs) @ x.coeffs
        assert np.max(np.abs(want - got)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestTextForm:
    def test_blade_names(self, cga):
        assert cga.blade_names[0] == "1"
        assert cga.blade_name(0b00001) == "e1"
        assert cga.blade_name(0b01000) == "e+"
        assert cga.blade_name(0b10000) == "e-"
        assert cga.blade_name(0b00011) == "e12"
        assert cga.blade_name(0b01001) == "e1+"
        assert cga.blade_name(0b11111) == "e123+-"

    def test_format_terms(self):
        m = ALG.scalar(1.0) - 0.5 * (E1 ^ E2) + 2.0 * (E1 ^ EP)
        assert format_multivector(m) == "1 - 0.5*e12 + 2*e1+"
        assert format_multivector(ALG.zero()) == "0"
        assert format_multivector(-E1) == "-e1"

    def test_format_coeff_round_trip(self, rng):
        for _ in range(200):
            x = float(rng.uniform(-1e6, 1e6)) * 10.0 ** float(rng.integers(-12, 12))
            assert float(format_coeff(x)) == x

    def test_oracle_spec_cases(self, cga):
        assert oracle_product(0b00011, 0b00010, cga) == (1, 0b00001)
        assert oracle_product(0b10000, 0b10000, cga) == (-1, 0)
        assert oracle_product(0b00001, 0b00010, cga) == (1, 0b00011)


class TestRowProductKernel:
    """`Algebra.product` on coefficient rows: every row matches the
    scatter-add fold the products used before it, bit for bit, whatever
    the rows around it, the output blades asked for, or the broadcast."""

    @staticmethod
    def fold(alg, a, b, signs):
        # the one-row product by np.bincount, kept as the reference
        outer = (a[:, None] * b[None, :]) * signs
        return np.bincount(alg.xor_table.ravel(), weights=outer.ravel(), minlength=alg.dim)

    @pytest.mark.parametrize("kind", ["gp", "outer", "lcont"])
    @pytest.mark.parametrize("blades", [None, (0,), (1, 2, 4), (3, 5, 8, 13, 21, 30, 31)])
    def test_rows_match_one_row_fold(self, cga, rng, kind, blades):
        signs = {"gp": cga.sign_table, "outer": cga.outer_sign, "lcont": cga.lcont_sign}[kind]
        cols = slice(None) if blades is None else list(blades)
        n = 300
        a = rng.normal(size=(n, cga.dim)) * 10.0 ** rng.uniform(-4, 4, size=(n, cga.dim))
        b = rng.normal(size=(n, cga.dim)) * 10.0 ** rng.uniform(-4, 4, size=(n, cga.dim))
        want = np.array([self.fold(cga, a[i], b[i], signs) for i in range(n)])[:, cols]
        assert np.array_equal(cga.product(kind, a, b, blades), want)
        for i in (0, 1, n - 1):
            assert np.array_equal(cga.product(kind, a[i], b[i], blades), want[i])
            assert np.array_equal(cga.product(kind, a[i:i + 1], b[i:i + 1], blades)[0], want[i])
        # one operand shared by every row, on either side
        shared = np.array([self.fold(cga, a[i], b[0], signs) for i in range(n)])[:, cols]
        assert np.array_equal(cga.product(kind, a, b[0], blades), shared)
        shared = np.array([self.fold(cga, a[0], b[i], signs) for i in range(n)])[:, cols]
        assert np.array_equal(cga.product(kind, a[0], b, blades), shared)

    def test_other_signatures(self, rng):
        for p, q in ((3, 0), (2, 2), (1, 0), (5, 3)):
            alg = algebra(p, q)
            a, b = rng.normal(size=(5, alg.dim)), rng.normal(size=(5, alg.dim))
            want = np.array([self.fold(alg, a[i], b[i], alg.sign_table) for i in range(5)])
            assert np.array_equal(alg.product("gp", a, b), want)
