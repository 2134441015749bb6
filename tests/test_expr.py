"""Tokenizer, parser, evaluator, and the render round trip."""

import inspect
import itertools
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confga import (
    I5,
    DegenerateError,
    DomainError,
    GAError,
    GradeError,
    NotAPointError,
    ParseError,
    SingularVersorError,
    UnboundNameError,
    apply,
    embed_point,
    eval_expression,
    exp_special,
    make_circle,
    make_flat_point,
    make_line,
    make_plane_opns,
    make_point_pair,
    make_sphere_opns,
    make_versor,
    motor,
    render,
    reflector_line,
    reflector_plane,
    reflector_point,
    reflector_sphere,
    rotor,
    scalor,
    sphere_ipns,
    translator,
)
from confga.conformal import ALG, e0, e1, e2, e3, einf, plane_vector, sphere_vector, wedge_points
from confga import expr as expr_module
from confga import versor as versor_module
from confga.expr import default_env, evaluate, parse, tokenize

from conftest import assert_mv_close, outcome

e12 = e1 ^ e2


def ev(text):
    return eval_expression(text)


P, Q, R, S = (embed_point(p) for p in ([0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]))
PQ = "point(0,0,0), point(1,0,0)"
PQR = PQ + ", point(0,1,0)"
PQRS = PQR + ", point(0,0,1)"

# name -> (the text after "expects", {accepted argument kinds: (arguments, expected result)})
_BUILTINS = {
    "point": ("three numbers x, y, z", {"nnn": ("1, 2, 3", lambda: embed_point([1, 2, 3]))}),
    "pair": ("two conformal points", {"mm": (PQ, lambda: make_point_pair(P, Q).mv)}),
    "circle": ("three conformal points", {"mmm": (PQR, lambda: make_circle(P, Q, R).mv)}),
    "sphere": ("four conformal points or cx, cy, cz, r", {
        "mmmm": (PQRS, lambda: make_sphere_opns(P, Q, R, S).mv),
        "nnnn": ("1, 2, 3, 4", lambda: sphere_ipns([1, 2, 3], 4.0).mv),
    }),
    "line": ("two conformal points", {"mm": (PQ, lambda: make_line(P, Q).mv)}),
    "plane": ("three conformal points or nx, ny, nz, d", {
        "mmm": (PQR, lambda: make_plane_opns(P, Q, R).mv),
        "nnnn": ("0, 0, 2, 3", lambda: reflector_plane([0, 0, 2], 3.0).mv),
    }),
    "flat_point": ("a conformal point or x, y, z", {
        "m": ("point(1,2,3)", lambda: make_flat_point(embed_point([1, 2, 3])).mv),
        "nnn": ("1, 2, 3", lambda: make_flat_point(embed_point([1, 2, 3])).mv),
    }),
    "space": ("no arguments", {"": ("", lambda: I5)}),
    "mirror_plane": ("nx, ny, nz, d", {"nnnn": ("0, 0, 2, 3", lambda: reflector_plane([0, 0, 2], 3.0).mv)}),
    "mirror_sphere": ("cx, cy, cz, r", {"nnnn": ("1, 2, 3, 4", lambda: reflector_sphere([1, 2, 3], 4.0).mv)}),
    "mirror_point": ("x, y, z", {"nnn": ("1, 2, 3", lambda: reflector_point([1, 2, 3]).mv)}),
    "mirror_line": ("a line or two conformal points", {
        "m": (f"line({PQ})", lambda: reflector_line(make_line(P, Q)).mv),
        "mm": (PQ, lambda: reflector_line(make_line(P, Q)).mv),
    }),
    "rotor": ("a bivector and an angle", {"mn": ("e12, 0.5", lambda: rotor(e12, 0.5).mv)}),
    "translator": ("three numbers tx, ty, tz", {"nnn": ("1, 2, 3", lambda: translator([1, 2, 3]).mv)}),
    "motor": ("a bivector, an angle, and tx, ty, tz", {
        "mnnnn": ("e12, 0.5, 1, 2, 3", lambda: motor(e12, 0.5, [1, 2, 3]).mv),
    }),
    "scalor": ("s or s, cx, cy, cz", {
        "n": ("2", lambda: scalor(2.0).mv),
        "nnnn": ("2, 1, 2, 3", lambda: scalor(2.0, [1, 2, 3]).mv),
    }),
    "apply": ("a versor, a multivector, and motion or reflection", {
        "mms": ("translator(1,2,3), point(0,0,0), motion",
                lambda: apply(make_versor(translator([1, 2, 3]).mv), P, "motion")),
    }),
    "dual": ("one multivector", {"m": ("e1 + e12", lambda: (e1 + e12).dual())}),
    "inv": ("one invertible versor", {"m": ("2 * e1", lambda: make_versor(2.0 * e1).inverse())}),
    "exp": ("one bivector with scalar square", {"m": ("0.35 * e12", lambda: exp_special(0.35 * e12))}),
    "grade": ("a multivector and an integer grade", {"mn": ("e1 + e12, 2", lambda: e12)}),
}


class TestTokenize:
    def test_number_forms(self):
        for text, value in [("2", 2.0), ("2.5", 2.5), (".5", 0.5), ("1e-3", 1e-3), ("2.5E+2", 250.0)]:
            toks = tokenize(text)
            assert toks[0].kind == "number" and toks[0].value == value
            assert toks[1].kind == "eof"

    def test_blade_tokens(self):
        assert tokenize("e12")[0].value == 0b00011
        assert tokenize("e123")[0].value == 0b00111
        assert tokenize("e1+")[0].value == 0b01001
        assert tokenize("e123+-")[0].value == 0b11111

    def test_digit_aliases_match_sign_names(self):
        # 4 and 5 alias the + and - generators
        assert tokenize("e45")[0].value == tokenize("e+-"[:0] + "e45")[0].value == 0b11000
        assert ev("e45 - e4 * e5").is_zero()
        assert ev("e145").coeffs.tolist() == ev("e14 ^ e5").coeffs.tolist()

    def test_trailing_signs_absorb_into_blade(self):
        # "e1+e2" is blade e1+ followed by blade e2, not a sum
        toks = tokenize("e1+e2")
        assert [t.kind for t in toks] == ["blade", "blade", "eof"]
        assert toks[0].value == 0b01001
        with pytest.raises(ParseError, match="trailing"):
            parse("e1+e2")
        with pytest.raises(ParseError, match="trailing"):
            parse("e1+3")
        assert_mv_close(ev("e1 + e2"), e1 + e2)

    def test_bare_e_is_a_name(self):
        toks = tokenize("e")
        assert toks[0].kind == "name" and toks[0].value == "e"

    def test_generators_must_ascend(self):
        for bad in ["e21", "e11", "e-+", "e54"]:
            with pytest.raises(ParseError, match="ascending"):
                tokenize(bad)

    def test_positions_are_one_based(self):
        toks = tokenize("e1 +\n  2.5")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (1, 4)
        assert (toks[2].line, toks[2].col) == (2, 3)

    def test_positions_across_tabs_returns_and_newlines(self):
        toks = tokenize("\te1 +\r2\n\n  (e12\t*\r\n~x)  \n")
        assert [(t.kind, t.value, t.line, t.col) for t in toks] == [
            ("blade", 0b1, 1, 2), ("op", "+", 1, 5), ("number", 2.0, 1, 7),
            ("op", "(", 3, 3), ("blade", 0b11, 3, 4), ("op", "*", 3, 8),
            ("op", "~", 4, 1), ("name", "x", 4, 2), ("op", ")", 4, 3),
            ("eof", None, 5, 1),
        ]

    @pytest.mark.parametrize("text, error, message", [
        ("e1 +\n2 *\n\t* e3", ParseError, "syntax error at 3:2: expected an operand"),
        ("e1\r\n\n  e2 @", ParseError, "syntax error at 3:6: unexpected character '@'"),
        ("e1 +\n\n e21", ParseError, "syntax error at 3:2: "),
        ("(1\n+ 2\n\t\t+ 3", ParseError, "syntax error at 3:6: expected ')'"),
        ("1\n2\n\t1e999", DomainError, "number 1e999 at 3:2 overflows"),
    ])
    def test_error_on_line_3(self, text, error, message):
        with pytest.raises(error) as info:
            parse(text)
        assert str(info.value).startswith(message)

    def test_overflowing_number_is_refused(self):
        with pytest.raises(DomainError, match=r"1e999 at 1:6"):
            tokenize("2 * (1e999 * e1)")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match=r"unexpected character '@'"):
            tokenize("e1 @ e2")


class TestParse:
    def test_truncated_input_position(self):
        with pytest.raises(ParseError, match=r"syntax error at 1:5: expected an operand"):
            parse("e1 *")

    def test_trailing_input_position(self):
        with pytest.raises(ParseError, match=r"at 1:4"):
            parse("e1 e2")

    def test_unclosed_paren(self):
        with pytest.raises(ParseError, match=r"expected '\)'"):
            parse("(e1 + e2")
        with pytest.raises(ParseError, match=r"expected '\)'"):
            parse("point(1, 0, 0")

    def test_product_of_blades(self):
        assert parse("e1*e2") == [("blade", 1), ("operand",), ("blade", 2), ("binary", "*")]

    def test_wedge_binds_tighter_than_star(self):
        assert_mv_close(ev("e12 * e2 ^ e3"), ev("e12 * (e2 ^ e3)"))
        assert_mv_close(ev("2 * e1 | e1"), ev("2 * (e1 | e1)"))

    def test_star_binds_tighter_than_plus(self):
        assert_mv_close(ev("1 + e1 * e2"), ALG.scalar(1.0) + e12)

    def test_left_associative_subtraction(self):
        assert ev("1 - 2 - 3").scalar_part() == -4.0

    @pytest.mark.parametrize("op1, op2", itertools.product(expr_module._BINARY, repeat=2))
    def test_every_binary_pair_groups_as_the_table_says(self, op1, op2):
        # a tighter operator on the right groups right; otherwise left to right
        a, b, c, check = ("blade", 0b1), ("blade", 0b10), ("blade", 0b100), ("operand",)
        if expr_module._BINARY[op1][0] >= expr_module._BINARY[op2][0]:
            want, grouped = [a, check, b, ("binary", op1), check, c, ("binary", op2)], f"(e1 {op1} e2) {op2} e3"
        else:
            want, grouped = [a, check, b, check, c, ("binary", op2), ("binary", op1)], f"e1 {op1} (e2 {op2} e3)"
        assert parse(f"e1 {op1} e2 {op2} e3") == parse(grouped) == want

    @pytest.mark.parametrize("u, op", itertools.product(expr_module._UNARY, expr_module._BINARY))
    def test_unary_binds_tighter_than_every_binary(self, u, op):
        a, b, check = ("blade", 0b1), ("blade", 0b10), ("operand",)
        assert parse(f"{u}e1 {op} e2") == parse(f"({u}e1) {op} e2") == [a, ("unary", u), check, b, ("binary", op)]
        assert parse(f"e1 {op} {u}e2") == parse(f"e1 {op} ({u}e2)") == [a, check, b, ("unary", u), ("binary", op)]

    def test_unary_chains(self):
        assert_mv_close(ev("--e1"), e1)
        assert_mv_close(ev("~~e12"), e12)
        assert_mv_close(ev("-~e12"), e12)

    def test_semicolon_separates_arguments(self):
        assert_mv_close(ev("sphere(0,0,0;1)"), ev("sphere(0, 0, 0, 1)"))


def test_readme_lists_every_builtin_overload():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    constructors = text[text.index("Constructors:"):text.index("## Command line")]
    listed = {}
    for name, args in re.findall(r"`([a-z_]+)\(([^)`]*)\)`", constructors):
        listed.setdefault(name, []).append(len(args.split(",")) if args else 0)
    assert sorted(listed) == sorted(expr_module._BUILTINS)
    for name, (_, overloads) in expr_module._BUILTINS.items():
        assert sorted(listed[name]) == sorted(map(len, overloads)), name


def test_docs_list_operators_in_table_order():
    # binary operators grouped by binding level, loosest first, then the unary ones
    levels = sorted({level for level, _, _ in expr_module._BINARY.values()})
    table = [[op for op, (lv, _, _) in expr_module._BINARY.items() if lv == level] for level in levels]
    table.append(list(expr_module._UNARY))
    symbols = {*expr_module._BINARY, *expr_module._UNARY}
    doc = expr_module.__doc__
    grammar = doc[doc.index("Grammar"):doc.index("    primary")].splitlines()
    assert [ops for ops in ([w for w in line.split() if w in symbols] for line in grammar) if ops] == table
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("Binding from loosest to tightest:")
    sentence = text[start:text.index(".", start)]
    assert [" ".join(re.findall(r"`([^`]+)`", part)).split() for part in sentence.split(", then ")] == table


def _repeated_dual(mv, n):
    for _ in range(n):
        mv = mv.dual()
    return mv


class TestDeepInput:
    """The parser and the evaluator keep their own stacks, so deep input
    works at any recursion limit; brackets nested past the fixed bound are a
    syntax error at the bracket that goes past it."""

    DEEP = [
        ("(" * 400 + "1" + ")" * 400, "1"),
        ("-" * 1200 + "1", "1"),
        ("-" * 1201 + "1", "-1"),
        ("~" * 1200 + "e1", "e1"),
        ("~" * 1201 + "e12", "-e12"),
        ("dual(" * 400 + "e1" + ")" * 400, render(_repeated_dual(e1, 400))),
        ("+".join(["1"] * 3000), "3000"),
        (" - ".join(["e1"] * 3000), "-2998*e1"),
        ("*".join(["e12"] * 3002), "-1"),
    ]

    @pytest.mark.parametrize("text, want", DEEP, ids=[
        "parens", "negations", "odd-negations", "reversions", "odd-reversions", "calls", "sum", "difference", "product",
    ])
    def test_deep_input_evaluates(self, text, want):
        assert render(ev(text)) == want

    def test_results_do_not_depend_on_the_recursion_limit(self):
        old = sys.getrecursionlimit()
        # a few dozen frames above this one: far fewer than any input's depth
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            got = [render(ev(text)) for text, _ in self.DEEP]
        finally:
            sys.setrecursionlimit(old)
        assert got == [want for _, want in self.DEEP]

    def test_brackets_up_to_the_bound_parse(self):
        n = expr_module.MAX_NESTING
        assert render(ev("(" * n + "e1" + ")" * n)) == "e1"
        assert render(ev("dual(" * n + "e1" + ")" * n)) == render(_repeated_dual(e1, n))

    @pytest.mark.parametrize("opening", ["(", "dual(", "sphere(0, 0, ("])
    def test_brackets_past_the_bound_are_a_syntax_error(self, opening):
        n = expr_module.MAX_NESTING
        per_level = opening.count("(")
        levels = -(-(n + 1) // per_level)
        text = opening * levels + "1" + ")" * (levels * per_level)
        # the bracket that opens level n + 1
        bracket = [i for i, ch in enumerate(text) if ch == "("][n]
        with pytest.raises(ParseError, match=rf"^syntax error at 1:{bracket + 1}: brackets nest deeper than {n}$"):
            parse(text)

    def test_bound_is_checked_before_the_rest_of_the_input(self):
        with pytest.raises(ParseError, match="nest deeper"):
            parse("(" * 100_000)


class TestEval:
    def test_difference_of_squares(self):
        # (e1+e2)(e1-e2) = 1 - e12 - e12 - 1 = -2 e12
        assert_mv_close(ev("(e1 + e2) * (e1 - e2)"), -2.0 * e12)

    def test_reverse_flips_bivector(self):
        assert_mv_close(ev("~ (e1*e2)"), -e12)

    def test_involution_negates_odd_grades(self):
        assert_mv_close(ev("!e1"), -e1)
        assert_mv_close(ev("!(e1 ^ e2)"), e12)
        assert_mv_close(ev("!(2 + e1 + e12)"), ALG.scalar(2.0) - e1 + e12)

    def test_point_inner_product_is_half_squared_distance(self):
        assert ev("point(1,0,0) | point(0,0,0)").scalar_part() == pytest.approx(-0.5, abs=1e-15)

    def test_translator_moves_origin(self):
        out = ev("apply(translator(1,0,0), point(0,0,0), motion)")
        assert_mv_close(out, embed_point([1.0, 0.0, 0.0]))

    def test_line_expression_matches_constructor(self):
        got = ev("point(1,0,0) ^ point(0,1,0) ^ einf")
        want = make_line(embed_point([1, 0, 0]), embed_point([0, 1, 0])).mv
        assert_mv_close(got, want)

    def test_object_constructors_match_library(self):
        pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        got = ev("sphere(point(0,0,0), point(1,0,0), point(0,1,0), point(0,0,1))")
        want = make_sphere_opns(*[embed_point(p) for p in pts]).mv
        assert_mv_close(got, want)
        got = ev("plane(point(0,0,0), point(1,0,0), point(0,1,0))")
        want = make_plane_opns(*[embed_point(p) for p in pts[:3]]).mv
        assert_mv_close(got, want)

    def test_numeric_plane_is_the_unit_mirror(self):
        assert_mv_close(ev("plane(0, 0, 2, 3)"), reflector_plane([0, 0, 2], 3.0).mv)

    def test_mirror_constructors(self):
        assert_mv_close(ev("mirror_sphere(1,0,0;2)"), reflector_sphere([1, 0, 0], 2.0).mv)
        assert_mv_close(ev("mirror_plane(1,0,0,0)"), reflector_plane([1, 0, 0], 0.0).mv)
        assert_mv_close(ev("mirror_point(1,2,3)"), embed_point([1, 2, 3]))
        assert_mv_close(ev("mirror_line(point(0,0,0), point(0,0,1))"), e12)

    def test_inversion_in_unit_sphere(self):
        out = ev("apply(mirror_sphere(0,0,0;1), point(2,0,0), reflection)")
        assert_mv_close(4.0 * ev("point(0.5, 0, 0)"), out)

    def test_inv_cancels_versor(self):
        assert_mv_close(ev("inv(rotor(e12, 0.7)) * rotor(e12, 0.7)"), ALG.scalar(1.0))
        assert_mv_close(ev("inv(e1)"), e1)

    def test_exp_reproduces_rotor_and_translator(self):
        assert_mv_close(ev("exp(0.35 * e12)"), rotor(e12, 0.7).mv)
        assert_mv_close(ev("exp(0.5 * (e1 ^ einf))"), translator([1, 0, 0]).mv)

    def test_grade_projection(self):
        got = ev("grade((e1 + e2) * (e1 + e3), 2)")
        assert_mv_close(got, -e12 + (e1 ^ e3) + (e2 ^ e3))
        with pytest.raises(DomainError):
            ev("grade(e1, 1.5)")

    def test_dual_of_pseudoscalar(self):
        assert_mv_close(ev("dual(space())"), ALG.scalar(1.0))
        assert_mv_close(ev("dual(e1)"), e1.dual())

    def test_scalar_arithmetic_returns_scalar_mv(self):
        out = ev("2 + 3 * 4")
        assert out.scalar_part() == 14.0
        assert out.grades() <= {0}

    def test_scalar_coerces_into_products(self):
        assert_mv_close(ev("2 ^ e1"), 2.0 * e1)
        assert_mv_close(ev("e1 - 1"), e1 - ALG.scalar(1.0))

    def test_constants_resolve(self):
        assert_mv_close(ev("e0"), e0)
        assert_mv_close(ev("einf"), einf)
        assert_mv_close(ev("e0 | einf"), ALG.scalar(-1.0))

    def test_unbound_name_carries_position(self):
        with pytest.raises(UnboundNameError, match=r"'frob' at 1:6"):
            ev("e1 + frob")

    def test_function_name_without_call(self):
        with pytest.raises(DomainError, match="is a function"):
            ev("point + e1")

    def test_mode_names_only_valid_in_apply(self):
        for text in ["motion", "motion + 1", "e1 ^ reflection", "-motion", "~motion", "!reflection", "--motion"]:
            with pytest.raises(DomainError) as info:
                ev(text)
            assert str(info.value) == "mode names are only valid as the last argument of apply", text

    @pytest.mark.parametrize("text, bad", [
        ("1e308*10*e1", "inf"),
        ("(1e308*10 - 1e308*10)*e1", "inf"),
        ("e1*1e200*1e200", "inf"),
        ("-1e200*e12 ^ (1e200*e3)", "-inf"),
        ("(1e200*e1 + 1e200*e2) | (1e200*e1 - 1e200*e2)", "nan"),
    ])
    def test_non_finite_arithmetic_is_refused(self, text, bad):
        with pytest.raises(DomainError, match="overflows") as info:
            ev(text)
        assert str(info.value).endswith(f" {bad}"), str(info.value)

    def test_reflection_of_normal_vector(self):
        assert_mv_close(ev("apply(e1, e1, reflection)"), -e1)

    def test_signature_errors(self):
        # every builtin, every argument-kind string up to five arguments
        # (n number, m multivector, s mode name): the accepted ones give the
        # library's result, every other one the builtin's exact message
        stand_in = {"n": "1", "m": "e1", "s": "motion"}
        kind_strings = [""] + ["".join(k) for r in range(1, 6) for k in itertools.product("nms", repeat=r)]
        assert sorted(_BUILTINS) == sorted(name for name, value in default_env().items() if callable(value))
        for name, (expects, accepted) in _BUILTINS.items():
            for kinds, (args, want) in accepted.items():
                assert np.array_equal(ev(f"{name}({args})").coeffs, want().coeffs), (name, args)
            for kinds in kind_strings:
                if kinds in accepted:
                    continue
                text = f"{name}({', '.join(stand_in[k] for k in kinds)})"
                with pytest.raises(DomainError) as info:
                    ev(text)
                assert str(info.value) == f"{name} expects {expects}", text
        with pytest.raises(DomainError) as info:
            ev("grade(e1 + e12, 1.5)")
        assert str(info.value) == "grade expects a multivector and an integer grade"
        with pytest.raises(GradeError):
            ev("rotor(e1, 0.5)")
        with pytest.raises(DegenerateError):
            ev("pair(point(0,0,0), point(0,0,0))")

    def test_custom_environment(self):
        env = default_env()
        env["P"] = embed_point([1.0, 2.0, 3.0])
        assert_mv_close(evaluate(parse("P ^ einf"), env), embed_point([1, 2, 3]) ^ einf)


class TestFloatingPointState:
    """`evaluate` ignores overflow for the whole program, since `_finite` refuses
    every non-finite value, and gives the caller's numpy error state back."""

    _STATES = [np.geterr(), {"all": "raise"}, {"over": "warn", "invalid": "raise", "divide": "ignore", "under": "warn"}]

    @pytest.mark.parametrize("state", _STATES)
    def test_error_state_is_restored_after_a_result(self, state):
        with np.errstate(**state):
            before = np.geterr()
            assert_mv_close(ev("apply(translator(1,0,0), point(0,0,0), motion)"), embed_point([1, 0, 0]))
            assert np.geterr() == before

    @pytest.mark.parametrize("text", [
        "e1 + 1e308*e2 * 10 + e3",
        "point(1,2,3) ^ grade(e1, 1.5) ^ e2",
        "point(1,2,3) + exp(1000*e1-) + e3",
        "apply(translator(1e200,0,0), point(0,0,0), motion) + e1",
    ])
    @pytest.mark.parametrize("state", _STATES)
    def test_error_state_is_restored_after_a_domain_error(self, state, text):
        with np.errstate(**state):
            before = np.geterr()
            with pytest.raises(DomainError):
                ev(text)
            assert np.geterr() == before

    @pytest.mark.parametrize("text, message", [
        ("exp(1000*e1-)", "exp's argument is too large"),
        ("1e308*e1 * 10", "'*' overflows: it gives inf"),
        ("(1e200*e1) * (1e200*e2)", "'*' overflows: it gives inf"),
        ("(1e200*e1 + 1e200*e2) | (1e200*e1 - 1e200*e2)", "'|' overflows: it gives nan"),
    ])
    def test_overflow_raises_no_runtime_warning(self, text, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(message)):
                ev(text)


# -- object constructors against the library -----------------------------------

# name -> (the library constructor, conformal's builder that it classifies or certifies)
_OBJECT_FORMS = {
    "pair": (make_point_pair, wedge_points),
    "circle": (make_circle, wedge_points),
    "sphere": (make_sphere_opns, wedge_points),
    "line": (make_line, lambda *P: wedge_points(*P, with_inf=True)),
    "plane": (make_plane_opns, lambda *P: wedge_points(*P, with_inf=True)),
    "flat_point": (make_flat_point, lambda P: wedge_points(P, with_inf=True)),
    "sphere(nnnn)": (lambda x, y, z, r: sphere_ipns([x, y, z], r), lambda x, y, z, r: sphere_vector([x, y, z], r)),
    "plane(nnnn)": (lambda x, y, z, d: reflector_plane([x, y, z], d), lambda x, y, z, d: plane_vector([x, y, z], d)),
    "flat_point(nnn)": (lambda x, y, z: make_flat_point(embed_point([x, y, z])),
                        lambda x, y, z: wedge_points(embed_point([x, y, z]), with_inf=True)),
}
_POINT_COUNT = {"pair": 2, "circle": 3, "sphere": 4, "line": 2, "plane": 3, "flat_point": 1}


def _far_center(rng):
    d = rng.normal(size=3)
    return 10 ** rng.uniform(0, 4) * d / np.linalg.norm(d)


def _constructor_cases(rng, form):
    """(arguments, expression text, names bound to points) for one seeded call: points at
    offsets 10^0 to 10^4 and weights 1e-3 to 1e3 of either sign, some coincident, some with
    one point repeated at another weight, four concyclic or three collinear."""
    c = _far_center(rng)
    if form in _POINT_COUNT:
        n = _POINT_COUNT[form]
        dirs = rng.normal(size=(n, 3))
        pts = c + rng.uniform(0.5, 2.0) * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        roll = rng.random()
        if roll < 0.15 and n == 4:  # concyclic: on a circle about c
            phis = rng.uniform(0, 2 * np.pi, 4)
            pts = c + np.stack([np.cos(phis), np.sin(phis), np.zeros(4)], axis=1)
        elif roll < 0.15 and n == 3:  # collinear
            pts = c + np.outer([0.0, 1.0, 2.5], dirs[0])
        weights = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-3, 3, n)
        P = [w * embed_point(p) for w, p in zip(weights, pts)]
        if n > 1 and roll > 0.85:  # the last point coincides with the first, or is it at another weight
            P[-1] = P[0] if roll > 0.92 else 2.0 * P[0]
        names = {f"P{k}": mv for k, mv in enumerate(P)}
        return P, f"{form}({', '.join(names)})", names
    if form == "sphere(nnnn)":
        args = [*c, float(rng.choice([0.0, -0.5, rng.uniform(0.5, 2.0)], p=[0.1, 0.1, 0.8]))]
    elif form == "plane(nnnn)":
        d = rng.normal(size=3) * 10 ** rng.uniform(-1, 1) if rng.random() < 0.9 else np.zeros(3)
        args = [*d, float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(0, 5.5))]
    else:
        args = list(c)
    args = [float(a) for a in args]
    return args, f"{form.split('(')[0]}({', '.join(map(repr, args))})", {}


@pytest.mark.parametrize("form", sorted(_OBJECT_FORMS))
def test_object_constructors_return_the_builders_blade(form):
    """Seeded differential: each expression constructor returns its builder's blade, so it has
    the bytes of the library constructor's .mv wherever the library accepts, and the library's
    error class and message wherever the builder refuses. Where only the library's classification
    refuses (far rounds), the expression prints the blade; the plane mirror, certified by its
    formula, accepts every plane the builder gives."""
    library, builder = _OBJECT_FORMS[form]
    rng = np.random.default_rng(sum(map(ord, form)))
    seen = {"gives": 0, "library only": 0}
    for _ in range(150):
        args, text, names = _constructor_cases(rng, form)
        got = outcome(lambda: evaluate(parse(text), {**default_env(), **names}))
        built = outcome(builder, *args)
        lib = outcome(lambda: library(*args).mv)
        assert got == built, text
        if lib[0] == "gives" or built[0] == "raises":
            assert got == lib, text
        key = got[0] if lib[0] == "gives" else "library only" if built[0] == "gives" else lib[2]
        seen[key] = seen.get(key, 0) + 1
    assert seen["gives"] >= 30, seen
    if form in ("pair", "circle", "sphere(nnnn)"):  # classify refuses far ones
        assert seen["library only"] >= 1, seen
    if form in ("plane(nnnn)", "sphere"):  # far spheres through points are refused by wedge_points first
        assert seen["library only"] == 0, seen
    if form in _POINT_COUNT and form != "flat_point":
        assert seen.keys() >= {"coincident points", "wedge of construction points vanishes"}, seen


@pytest.mark.parametrize("form", sorted(_POINT_COUNT) + ["mirror_line"])
def test_non_point_arguments_raise_not_a_point(form):
    n = _POINT_COUNT.get(form, 2)
    good = [f"point({k}, {k * k}, {1 - k})" for k in range(n)]
    for bad in ["e1", "einf", "e1 ^ e2", "sphere(0, 0, 0, 1)", "sphere(300, 0, 0, 1)", "point(1e9, 0, 0)"]:
        for k in range(n):
            text = f"{form}({', '.join(good[:k] + [bad] + good[k + 1:])})"
            with pytest.raises(NotAPointError) as info:
                ev(text)
            assert str(info.value) == f"construction point {k + 1} of {n} is not a conformal point", text


def _args(*values) -> str:
    """Numbers as expression text that parses back to the same floats."""
    return ", ".join(repr(float(x)) for x in values)


def _closed_form_texts(rng, off):
    """(expression, the library's versor, mode) for each closed-form builtin, drawn at offset off."""
    c = off * rng.normal(size=3) / 3**0.5
    n, d, theta = rng.normal(size=3), float(off * rng.choice([-1.0, 1.0])), float(rng.uniform(-2 * math.pi, 2 * math.pi))
    r, s, q = float(10 ** rng.uniform(-1, 1)), float(2 ** rng.uniform(-1, 1)), c + rng.normal(size=3)
    plane, bivector = [("e12", e12), ("e23", e2 ^ e3), ("2.5*e13", 2.5 * (e1 ^ e3))][rng.integers(3)]
    return [
        (f"mirror_plane({_args(*n, d)})", lambda: reflector_plane(n, d), "reflection"),
        (f"mirror_sphere({_args(*c, r)})", lambda: reflector_sphere(c, r), "reflection"),
        (f"mirror_point({_args(*c)})", lambda: reflector_point(c), "reflection"),
        (f"mirror_line(point({_args(*c)}), point({_args(*q)}))",
         lambda: reflector_line(make_line(embed_point(c), embed_point(q))), "motion"),
        (f"rotor({plane}, {_args(theta)})", lambda: rotor(bivector, theta), "motion"),
        (f"translator({_args(*c)})", lambda: translator(c), "motion"),
        (f"motor({plane}, {_args(theta, *c)})", lambda: motor(bivector, theta, c), "motion"),
        (f"scalor({_args(s)})", lambda: scalor(s), "motion"),
        (f"scalor({_args(s, *c)})", lambda: scalor(s, c), "motion"),
    ]


class TestClosedFormCarrier:
    """A closed form's value keeps the versor it was certified as when it was built: `apply`
    and `inv` take that versor as it is, and arithmetic on the value drops it."""

    def test_apply_and_inv_are_the_librarys(self):
        """Seeded arguments at offsets 10^0 to 10^6: `apply` and `inv` of each closed-form
        builtin equal `versor.apply` of the library's versor and its `.inverse()` bit for bit,
        or raise its error where it has one."""
        rng = np.random.default_rng(71)
        far = 0
        for k in range(24):
            off = float(10 ** rng.uniform(0, 6))
            p = rng.uniform(-3, 3, 3)
            for text, build, mode in _closed_form_texts(rng, off):
                want = outcome(lambda: apply(build(), embed_point(p), mode))
                got = outcome(lambda: ev(f"apply({text}, point({_args(*p)}), {mode})"))
                assert got == want, text
                assert outcome(lambda: ev(f"inv({text})")) == outcome(lambda: build().inverse()), text
                far += off > 1e4 and want[0] == "gives"
        assert far >= 20, far

    def test_a_closed_form_takes_no_second_certificate(self, monkeypatch):
        """`make_versor` certifies only what arithmetic or the user made."""
        calls = []
        make_versor = versor_module.make_versor
        monkeypatch.setattr(versor_module, "make_versor", lambda mv: calls.append(mv) or make_versor(mv))
        for text in ["apply(motor(e12, 0.7, 1, 2, 3), point(1, 2, 3), motion)", "inv(mirror_sphere(1, 2, 3, 0.5))",
                     "apply(mirror_line(point(0,0,0), point(1,1,0)), point(1, 0, 0), motion)"]:
            ev(text)
        assert calls == []
        ev("apply(e1, point(1, 0, 0), reflection)")
        assert calls == [e1]

    def test_arithmetic_drops_the_versor(self):
        """A product, a scale or a grade of a closed form is a plain multivector, certified
        numerically: a far one is refused as singular, a small multiple is accepted."""
        for text in ["1*translator(1e5,0,0)", "translator(4e4,0,0) * translator(4e4,0,0)",
                     "-motor(e12, 0.7, 1e5, 0, 0)", "grade(mirror_plane(1, 0, 0, 1e5), 1)"]:
            with pytest.raises(SingularVersorError, match=r"^v \* ~v vanishes; versor is not invertible$"):
                ev(f"inv({text})")
        small = 1e-7 * translator([1.0, 0.0, 0.0]).mv
        assert ev("apply(1e-7*translator(1,0,0), point(0,0,0), motion)") == apply(make_versor(small), P, "motion")


# -- render round trip --------------------------------------------------------

_EXAMPLES = [
    "0",
    "1",
    "-1",
    "e1",
    "2*e1+ + e12345",
    "1 - 0.5*e12 + 2*e1+",
    "point(1,0,0) ^ point(0,1,0) ^ einf",
    "rotor(e12, 1.0471975511965976)",
    "mirror_sphere(0.5, -0.25, 2; 1.5)",
]


class TestRenderRoundTrip:
    @pytest.mark.parametrize("text", _EXAMPLES)
    def test_examples_reach_a_fixed_point(self, text):
        once = render(ev(text))
        twice = render(ev(once))
        assert once == twice
        assert np.array_equal(ev(once).coeffs, ev(twice).coeffs)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=31),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_random_multivectors_round_trip_exactly(self, entries):
        coeffs = np.zeros(32)
        for bits, value in entries:
            coeffs[bits] = value
        mv = ALG.mv(coeffs)
        text = render(mv)
        back = ev(text)
        assert np.array_equal(back.coeffs, mv.coeffs), text
        assert render(back) == text
