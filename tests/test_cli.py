"""The ga command line: output formats, exit codes, and API equivalence."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confga import (
    TrainConfig,
    apply,
    embed_point,
    make_circle,
    make_line,
    make_plane_opns,
    make_point_pair,
    eval_expression,
    extract_point,
    generate_dataset,
    make_versor,
    mv_entries,
    new_neuron,
    read_scene,
    render,
    reflector_plane,
    reflector_sphere,
    motor,
    sphere_ipns,
    train,
    translator,
)
import confga
from confga import cli, tolerance
from confga.cli import main
from confga.algebra import Multivector
from confga.conformal import ALG, classify, e1, e2, einf

from conftest import SPECIAL_FLOATS, assert_proportional, run_ga

_coefficients = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


def write_point_scene(path, include_versor=True):
    doc = {
        "objects": {
            "p": {"e1": 1.0, "e0": 1.0, "einf": 0.5},
            "q": {"e0": 1.0},
        },
    }
    if include_versor:
        doc["versors"] = {"lift": {"1": 1.0, "e3+": 0.5, "e3-": 0.5}}
    path.write_text(json.dumps(doc))
    return path


class TestEval:
    def test_distance_scalar_prints_exactly(self):
        result = run_ga(["eval", "point(1,0,0) | point(0,0,0)"])
        assert result.exit_code == 0
        assert result.output == "-0.5\n"

    @pytest.mark.parametrize(
        "src",
        [
            "e1*e2",
            "(e1 + e2) * (e1 - e2)",
            "point(1,0,0) ^ point(0,1,0) ^ einf",
            "~ (e1*e2)",
            "apply(translator(1,0,0), point(0,0,0), motion)",
            "apply(mirror_sphere(0,0,0;1), point(2,0,0), reflection)",
            "dual(sphere(0,0,1;2))",
            "exp(0.25 * e12) * inv(rotor(e12, 0.5))",
        ],
    )
    def test_output_matches_library_render(self, src):
        result = run_ga(["eval", src])
        assert result.exit_code == 0
        assert result.output == render(eval_expression(src)) + "\n"

    def test_json_format(self):
        result = run_ga(["eval", "2*e1 + e12", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        mv = eval_expression("2*e1 + e12")
        assert payload == {"text": render(mv), "coefficients": mv_entries(mv)}

    @staticmethod
    def _assert_json_is_json_dumps(mv):
        result = run_ga(["eval", "--format", "json", render(mv)])
        assert result.exit_code == 0, result.output
        want = json.dumps({"text": render(mv), "coefficients": mv_entries(mv)}, indent=2) + "\n"
        assert result.output == want

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.integers(0, ALG.dim - 1), _coefficients, max_size=8))
    @example({})
    @example({0: SPECIAL_FLOATS[-1], 31: -SPECIAL_FLOATS[1], 7: -0.0})
    def test_json_format_is_json_dumps_byte_for_byte(self, columns):
        coeffs = np.zeros(ALG.dim)
        for bits, value in columns.items():
            coeffs[bits] = value
        self._assert_json_is_json_dumps(ALG.mv(coeffs))

    def test_json_format_of_every_blade(self):
        for bits in range(ALG.dim):
            for value in (1.0, -1.0, 0.1, -2.2250738585072014e-308):
                self._assert_json_is_json_dumps(ALG.blade(bits, value))

    def test_leading_minus_is_an_expression_not_an_option(self):
        result = run_ga(["eval", "-2*e1 - 0.5*e12"])
        assert result.exit_code == 0
        assert result.output == "-2*e1 - 0.5*e12\n"

    def test_syntax_error_exit_2(self):
        result = run_ga(["eval", "e1 *"])
        assert result.exit_code == 2
        assert "syntax error at 1:5" in result.stderr

    def test_domain_error_exit_1(self):
        result = run_ga(["eval", "pair(point(0,0,0), point(0,0,0))"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error:")

    @pytest.mark.parametrize("src", ["1e999 * e1", "point(1e400, 0, 0)", "point(1e200, 0, 0)", "sphere(0, -1e200, 0, 1)"])
    def test_overflowing_literal_exit_1(self, src):
        result = run_ga(["eval", src])
        assert result.exit_code == 1
        assert "overflows" in result.stderr

    @pytest.mark.parametrize("src, reason", [
        ("-motion", "mode names are only valid as the last argument of apply"),
        ("~motion", "mode names are only valid as the last argument of apply"),
        ("1e308*10*e1", "overflows"),
        ("e1*1e200*1e200", "overflows"),
        ("apply(translator(1e200,0,0), point(0,0,0), motion)", "versor's action on points is all rounding or overflows: error bound nan"),
        ("rotor(e12,1e300)", "the square of exp's argument overflows"),
        ("exp(1e300*e12)", "the square of exp's argument overflows"),
        ("exp(1000*e1-)", "exp's argument is too large"),
        ("exp(800*E)", "exp's argument is too large"),
        ("rotor(1e200*e12,1)", "the square of the rotation plane overflows"),
        ("inv(1e200*e12)", "v * ~v overflows"),
        ("inv(e1 + e23)", "error: versor must be purely even or purely odd\n"),  # v ~v = 2, but mixed parity
        ("inv(point(1,0,0))", "error: degenerate (null) versor has no inverse\n"),
        ("inv(0*e1)", "error: zero multivector is not a versor\n"),
        ("inv(e12 + e3+)", "error: v * ~v is not scalar\n"),
        ("inv(e+ + e-)", "error: v * ~v vanishes; versor is not invertible\n"),
        ("mirror_sphere(0,0,0,1e200)", "sphere radius 1e+200 overflows"),
        ("apply(translator(1,0,0), 1e308*e1 + 1e308*e+ + 1e308*e-, motion)", "'apply' overflows: it gives inf"),
        ("e0(1)", "error: e0 is not a function\n"),
    ], ids=["negated-mode", "reversed-mode", "float-overflow", "product-overflow", "translator-overflow",
            "rotor-angle-overflow", "exp-overflow", "exp-cosh-overflow", "exp-E-cosh-overflow", "rotor-plane-overflow", "inverse-overflow",
            "inverse-mixed-parity", "inverse-point-mirror", "inverse-zero", "inverse-not-scalar",
            "inverse-vanishing-non-point", "sphere-mirror-overflow",
            "apply-overflow", "constant-call"])
    def test_refused_operand_exit_1_without_traceback(self, src, reason):
        result = run_ga(["eval", src])
        assert result.exit_code == 1
        assert result.exception is None, result.exception
        assert result.stderr.startswith("error:") and reason in result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""

    @pytest.mark.parametrize("src", ["mirror_plane(1e200,0,0,1)", "plane(1e200,0,0,1)"],
                             ids=["plane-mirror-overflow", "ipns-plane-overflow"])
    def test_huge_plane_normal_prints_the_unit_normal_form(self, src):
        """|n|^2 overflows, but the normal is read at unit scale: the plane of normal e1."""
        result = run_ga(["eval", src])
        assert (result.exit_code, result.stdout) == (0, "e1 + e+ + e-\n"), result.stderr

    def test_unbound_name_exit_1(self):
        result = run_ga(["eval", "wibble + e1"])
        assert result.exit_code == 1
        assert "wibble" in result.stderr

    @pytest.mark.parametrize("src, location", [
        ("apply(mirror_point(1e6,0,0), point(1,2,3), reflection)", [1e6, 0.0, 0.0]),
        ("apply(motor(e12,0.7,1,0,-0.5), point(1,2,3), motion)", None),
    ], ids=["far-point-mirror", "motor"])
    def test_moved_point_prints_grade_1_only(self, src, location):
        """The sandwich preserves grade, so no rounding residue is printed in the blades a
        point cannot have, even where it is as large as the far null mirror's."""
        result = run_ga(["eval", src])
        assert result.exit_code == 0, result.stderr
        moved = eval_expression(result.stdout)
        assert np.all(moved.coeffs[ALG.grades != 1] == 0.0), result.stdout
        if location is not None:
            assert_proportional(moved, embed_point(location), tol=1e-9)

    def test_far_line_mirror_prints_grade_2_only(self):
        """A line's half-turn is a bivector, written from its formula: no other grade is printed,
        where the translator product that built it once left rounding in grade 4."""
        result = run_ga(["eval", "mirror_line(point(300,7,0), point(301,7.5,0.3))"])
        assert result.exit_code == 0, result.stderr
        mirror = eval_expression(result.stdout)
        assert np.all(mirror.coeffs[ALG.grades != 2] == 0.0), result.stdout


class TestNullVersor:
    """Only a conformal point is taken as the null point mirror; any other versor whose norm
    vanishes is refused, where it used to be applied as if it were one."""

    @pytest.mark.parametrize("src", [
        "apply(translator(4e4,0,0) * translator(4e4,0,0), point(0,0,0), motion)",
        "apply(e1 + 1e5*einf, point(0,0,0), reflection)",
        "apply(sphere(300,0,0,1), point(0,0,0), reflection)",
    ], ids=["translator-product", "far-plane", "far-sphere"])
    def test_eval_refuses_a_vanishing_non_point(self, src):
        result = run_ga(["eval", src])
        assert result.exit_code == 1
        assert result.stderr == "error: v * ~v vanishes; versor is not invertible\n" and result.stdout == ""

    @pytest.mark.parametrize("command", [
        ["transform", "--versor", "point(3e2,0,0) - 0.5*einf", "--mode", "reflection"],
        ["train", "--versor", "e1 + 1e5*einf", "--n", "5", "--epochs", "1"],
    ], ids=["transform", "train"])
    def test_commands_refuse_a_vanishing_non_point(self, tmp_path, command):
        if command[0] == "transform":
            command = command[:1] + ["--scene", str(write_point_scene(tmp_path / "s.json"))] + command[1:]
        result = run_ga(command)
        assert result.exit_code == 1
        assert result.stderr == "error: v * ~v vanishes; versor is not invertible\n"

    @pytest.mark.parametrize("x", ["1", "3e2", "1e4", "1e7"])
    def test_point_mirror_applies_out_to_1e7(self, x):
        result = run_ga(["eval", f"apply(mirror_point({x},0,0), point(0,0,0), reflection)"])
        assert result.exit_code == 0, result.stderr
        assert_proportional(eval_expression(result.stdout), embed_point([float(x), 0.0, 0.0]), tol=1e-9)

    def test_far_ipns_sphere_prints_its_vector(self):
        result = run_ga(["eval", "sphere(300,0,0,1)"])
        assert result.exit_code == 0, result.stderr
        assert eval_expression(result.stdout) == embed_point([300.0, 0.0, 0.0]) - 0.5 * einf


class TestSmallWeights:
    """A versor is one up to scale: w v is accepted at small w, as v is."""

    def test_inverse_of_a_small_vector(self):
        result = run_ga(["eval", "inv(1e-7*e1)"])
        assert (result.exit_code, result.stdout) == (0, "10000000.000000002*e1\n"), result.stderr

    def test_small_translator_moves_a_point(self):
        result = run_ga(["eval", "apply(1e-7*translator(1,0,0), point(0,0,0), motion)"])
        assert result.exit_code == 0, result.stderr
        assert_proportional(eval_expression(result.stdout), embed_point([1.0, 0.0, 0.0]), tol=1e-15)


class TestFarClosedForms:
    """The closed forms state their own norm, so exact versors far from the origin print, and
    `apply` refuses one whose action is all rounding, as it refuses any versor. A closed form
    keeps its versor through `apply` and `inv` in an expression; arithmetic on it gives a
    plain multivector, which `make_versor` certifies numerically."""

    @pytest.mark.parametrize("text, want", [
        ("apply(translator(1e6,0,0), point(0,0,0), motion)",
         lambda: apply(translator([1e6, 0.0, 0.0]), embed_point([0.0, 0.0, 0.0]), "motion")),
        ("inv(translator(1e6,0,0)) * translator(1e6,0,0)",
         lambda: translator([1e6, 0.0, 0.0]).inverse() * translator([1e6, 0.0, 0.0]).mv),
        ("apply(motor(e12,0.7,1e6,0,0), point(0,0,0), motion)",
         lambda: apply(motor(e1 ^ e2, 0.7, [1e6, 0.0, 0.0]), embed_point([0.0, 0.0, 0.0]), "motion")),
        ("apply(mirror_plane(1,0,0,1e5), point(0,0,0), reflection)",
         lambda: apply(reflector_plane([1.0, 0.0, 0.0], 1e5), embed_point([0.0, 0.0, 0.0]), "reflection")),
        ("inv(mirror_sphere(1e4,0,0;1.5))", lambda: reflector_sphere([1e4, 0.0, 0.0], 1.5).inverse()),
    ], ids=["apply-translator-1e6", "inv-translator-1e6", "apply-motor-1e6", "apply-plane-1e5", "inv-sphere-1e4"])
    def test_far_closed_form_in_apply_and_inv(self, text, want):
        """Exact versors that `make_versor` calls singular: the library's answer, bit for bit."""
        result = run_ga(["eval", text])
        assert result.exit_code == 0, result.stderr
        assert result.stdout == render(want()) + "\n"

    def test_far_translator_moves_the_origin_exactly(self):
        result = run_ga(["eval", "apply(translator(1e6,0,0), point(0,0,0), motion)"])
        assert result.stdout == "1000000*e1 + 499999999999.5*e+ + 500000000000.5*e-\n"
        result = run_ga(["eval", "inv(translator(1e6,0,0)) * translator(1e6,0,0)"])
        assert result.stdout == "1\n"

    @pytest.mark.parametrize("text", [
        "apply(1*translator(1e5,0,0), point(0,0,0), motion)",
        "apply(-motor(e12,0.7,1e5,0,0), point(0,0,0), motion)",
        "inv(translator(4e4,0,0) * translator(4e4,0,0))",
    ])
    def test_arithmetic_on_a_far_closed_form_is_certified_numerically(self, text):
        result = run_ga(["eval", text])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == "error: v * ~v vanishes; versor is not invertible\n"

    def test_plane_mirror_is_the_plane(self):
        mirror = run_ga(["eval", "mirror_plane(1,0,0,5e4)"])
        plane = run_ga(["eval", "plane(1,0,0,5e4)"])
        assert mirror.exit_code == 0 and plane.exit_code == 0, mirror.stderr
        assert mirror.stdout == plane.stdout == "e1 + 50000*e+ + 50000*e-\n"

    def test_far_scalor_prints_its_formula(self):
        """cosh lam + sinh lam (E - c ^ einf) with lam = ln(2) / 2: the translator product it
        replaced printed a scalar of 1 and dropped it at a centre of 1e20."""
        result = run_ga(["eval", "scalor(2, 1e8, 0, 0)"])
        assert result.exit_code == 0, result.stderr
        assert result.stdout == (
            "1.0606601717798212 - 35355339.05932737*e1+ - 35355339.05932737*e1- + 0.35355339059327373*e+-\n")
        result = run_ga(["eval", "inv(scalor(2, 1e8, 0, 0))"])
        assert result.exit_code == 0, result.stderr
        assert result.stdout == (
            "1.0606601717798212 + 35355339.05932737*e1+ + 35355339.05932737*e1- - 0.35355339059327373*e+-\n")
        result = run_ga(["eval", "scalor(2, 1e20, 0, 0)"])
        assert result.stdout.startswith("1.0606601717798212 - "), result.stdout

    def test_far_translator_prints(self):
        result = run_ga(["eval", "translator(1e6,0,0)"])
        assert result.exit_code == 0, result.stderr
        assert result.stdout == "1 + 500000*e1+ + 500000*e1-\n"

    def test_chain_of_far_translators(self, tmp_path):
        scene_path = write_point_scene(tmp_path / "s.json", include_versor=False)
        result = run_ga([
            "transform", "--scene", str(scene_path),
            "--chain", "translator(4e4,0,0)", "--chain", "translator(4e4,0,0)", "--mode", "motion",
        ])
        assert result.exit_code == 0, result.stderr
        out = tmp_path / "moved.json"
        out.write_text(result.output)
        moved = read_scene(out).objects
        for name, x in (("p", 80001.0), ("q", 80000.0)):
            np.testing.assert_allclose(moved[name].coeffs, embed_point([x, 0.0, 0.0]).coeffs, rtol=1e-12)

    def test_chain_whose_action_is_rounding_exit_1(self, tmp_path):
        """Each T(6e4) is in range; their product T(1.5e7) is exact, but its
        action on points near the origin would be all rounding, so apply refuses it."""
        scene_path = write_point_scene(tmp_path / "s.json", include_versor=False)
        chain = [arg for _ in range(250) for arg in ("--chain", "translator(6e4,0,0)")]
        result = run_ga(["transform", "--scene", str(scene_path), *chain, "--mode", "motion"])
        assert result.exit_code == 1 and result.stdout == "", result.stdout
        assert "versor's action on points is all rounding or overflows: error bound" in result.stderr
        assert "largest coefficient 7500000.0" in result.stderr and "Traceback" not in result.stderr

    def test_chain_whose_product_overflows_exit_1(self, tmp_path):
        """Four factors 1e100*e1 overflow their product: compose forms it without a
        warning and refuses it, since it has no finite inverse, with one error line."""
        scene_path = write_point_scene(tmp_path / "s.json", include_versor=False)
        chain = [arg for _ in range(4) for arg in ("--chain", "1e100*e1")]
        result = run_ga(["transform", "--scene", str(scene_path), *chain, "--mode", "motion"])
        assert result.exit_code == 1 and result.stdout == "", result.stdout
        assert result.stderr == "error: versor has no finite inverse: <v ~v>_0 = inf and largest coefficient inf\n"

    def test_far_closed_forms_print_exactly(self):
        """Built whatever their range: a bare or inverted far closed form is exact algebra."""
        for text, want in (("translator(1e200,0,0)", "1 + 5e+199*e1+ + 5e+199*e1-\n"),
                           ("inv(translator(1e7,0,0)) * translator(1e7,0,0)", "1\n")):
            result = run_ga(["eval", text])
            assert (result.exit_code, result.stdout) == (0, want), result.stderr

    @pytest.mark.parametrize("text", ["apply(exp(8.06*e+-), point(1,2,3), motion)", "apply(scalor(1e7), point(1,2,3), motion)"])
    def test_written_out_scalor_is_refused_as_the_closed_form(self, text):
        """exp(8.06 E) is a scalor by about 1e7 that `make_versor` accepts; `apply` checks its
        range as it checks scalor(1e7)'s, where it printed a point about 11% off before."""
        result = run_ga(["eval", text])
        assert (result.exit_code, result.stdout) == (1, ""), result.stdout
        prefix = "error: versor's action on points is all rounding or overflows: error bound "
        assert result.stderr.startswith(prefix) and float(result.stderr[len(prefix):].split()[0]) >= 1.0, result.stderr

    def test_far_mirror_of_a_point_near_its_sphere_exit_1(self):
        """The image's weight is all rounding: it read as a point at (176.6, 0, 0) where
        (1001.125, 0, 0) is due."""
        result = run_ga(["eval", "apply(mirror_sphere(1000,0,0;1.5), point(1002,0,0), reflection)"])
        assert (result.exit_code, result.stdout) == (1, ""), result.stdout
        assert re.fullmatch(r"error: versor's action is all rounding: weight \S+ within its error bound \S+\n", result.stderr), result.stderr

    def test_transform_names_the_entry_whose_image_is_rounding(self, tmp_path):
        """The weight guard's row index is the scene's: the error names the object, as a
        non-finite entry is named."""
        scene_path = tmp_path / "s.json"
        scene_path.write_text(json.dumps({"objects": {"near": {"e1": 1.0, "e0": 1.0, "einf": 0.5},
                                                      "far": {"e1": 1002.0, "e0": 1.0, "einf": 502002.0}}}))
        result = run_ga(["transform", "--scene", str(scene_path), "--versor", "mirror_sphere(1000,0,0;1.5)",
                                      "--mode", "reflection"])
        assert (result.exit_code, result.stdout) == (1, ""), result.stdout
        assert re.fullmatch(r"error: versor's action on entry 'far' is all rounding: weight \S+ within its error bound \S+\n",
                            result.stderr), result.stderr

    def test_exact_far_translation_prints(self):
        """Every coefficient of this image is exact; the weight guard's bound, about 0.58, is
        below its weight 1."""
        result = run_ga(["eval", "apply(translator(3e3,1,2), point(3e3,3,1), motion)"])
        assert (result.exit_code, result.stdout) == (0, "6000*e1 + 4*e2 + 3*e3 + 18000012*e+ + 18000013*e-\n"), result.stderr

    def test_near_mirror_of_a_point_near_its_sphere_prints_its_image(self):
        result = run_ga(["eval", "apply(mirror_sphere(100,0,0;1.5), point(101,0,0), reflection)"])
        assert result.exit_code == 0, result.stderr
        got = eval_expression(result.stdout).coeffs
        assert abs(got[1] / (got[16] - got[8]) - 102.25) <= 1e-4 * 102.25 and got[[2, 4]].tolist() == [0.0, 0.0]


class TestDeepInput:
    def test_nested_parentheses_past_the_bound_exit_2(self):
        result = run_ga(["eval", "(" * 5000 + "1" + ")" * 5000])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: syntax error at 1:")
        assert "Traceback" not in result.output

    def test_long_flat_sum(self):
        result = run_ga(["eval", "+".join(["1"] * 3000)])
        assert result.exit_code == 0
        assert result.output == "3000\n"

    def test_deeply_nested_scene_exit_1(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        result = run_ga(["classify", "--scene", str(path)])
        assert result.exit_code == 1
        assert result.stderr == "error: scene JSON nests too deeply to read\n"


class TestTransform:
    def test_translator_moves_points(self, tmp_path):
        scene_path = write_point_scene(tmp_path / "s.json")
        result = run_ga(
            ["transform", "--scene", str(scene_path), "--versor", "translator(0,0,2)", "--mode", "motion"],
        )
        assert result.exit_code == 0, result.stderr
        out = tmp_path / "moved.json"
        out.write_text(result.output)
        moved = read_scene(out)
        assert extract_point(moved.objects["p"]) == pytest.approx([1.0, 0.0, 2.0])
        assert extract_point(moved.objects["q"]) == pytest.approx([0.0, 0.0, 2.0])
        # versors ride along unchanged
        assert "lift" in moved.versors

    def test_out_file_matches_stdout(self, tmp_path):
        scene_path = write_point_scene(tmp_path / "s.json")
        args = ["transform", "--scene", str(scene_path), "--versor", "scalor(2)", "--mode", "motion"]
        piped = run_ga(args)
        out_path = tmp_path / "out.json"
        written = run_ga(args + ["--out", str(out_path)])
        assert piped.exit_code == 0 and written.exit_code == 0
        assert written.output == ""
        assert out_path.read_text() == piped.output

    def test_chain_composes_in_application_order(self, tmp_path):
        # two parallel mirrors: z=0 then z=1 translate by +2 along z
        scene_path = write_point_scene(tmp_path / "s.json")
        result = run_ga(
            [
                "transform", "--scene", str(scene_path),
                "--chain", "plane(0,0,1,0)", "--chain", "plane(0,0,1,1)",
                "--mode", "motion",
            ],
        )
        assert result.exit_code == 0, result.stderr
        out = tmp_path / "chained.json"
        out.write_text(result.output)
        assert extract_point(read_scene(out).objects["p"]) == pytest.approx([1.0, 0.0, 2.0])

    def test_scene_versor_names_are_usable(self, tmp_path):
        scene_path = write_point_scene(tmp_path / "s.json")
        result = run_ga(
            ["transform", "--scene", str(scene_path), "--versor", "lift", "--mode", "motion"],
        )
        assert result.exit_code == 0, result.stderr
        out = tmp_path / "lifted.json"
        out.write_text(result.output)
        # lift = 1 + 0.5 e3^einf is the unit translator along z
        assert extract_point(read_scene(out).objects["p"]) == pytest.approx([1.0, 0.0, 1.0])

    def test_sphere_inversion_matches_library(self, tmp_path):
        scene_path = write_point_scene(tmp_path / "s.json", include_versor=False)
        result = run_ga(
            ["transform", "--scene", str(scene_path), "--versor", "mirror_sphere(0,0,0;2)", "--mode", "reflection"],
        )
        assert result.exit_code == 0, result.stderr
        out = tmp_path / "inv.json"
        out.write_text(result.output)
        moved = read_scene(out)
        v = reflector_sphere([0.0, 0.0, 0.0], 2.0)
        want = apply(v, embed_point([1.0, 0.0, 0.0]), "reflection")
        assert np.array_equal(moved.objects["p"].coeffs, want.coeffs)

    def test_versor_and_chain_are_exclusive(self, tmp_path):
        scene_path = write_point_scene(tmp_path / "s.json")
        both = run_ga(
            [
                "transform", "--scene", str(scene_path),
                "--versor", "scalor(2)", "--chain", "scalor(2)", "--mode", "motion",
            ],
        )
        neither = run_ga(["transform", "--scene", str(scene_path), "--mode", "motion"])
        assert both.exit_code == 2
        assert neither.exit_code == 2

    def test_parity_mode_mismatch_exit_1(self, tmp_path):
        scene_path = write_point_scene(tmp_path / "s.json")
        result = run_ga(
            ["transform", "--scene", str(scene_path), "--versor", "plane(0,0,1,0)", "--mode", "motion"],
        )
        assert result.exit_code == 1
        assert "error:" in result.stderr

    def test_tolerance_section_is_preserved(self, tmp_path):
        scene_path = tmp_path / "s.json"
        scene_path.write_text(json.dumps({"tolerance": {"rel": 1e-7}, "objects": {"q": {"e0": 1.0}}}))
        result = run_ga(
            ["transform", "--scene", str(scene_path), "--versor", "translator(1,0,0)", "--mode", "motion"],
        )
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.output)["tolerance"] == {"rel": 1e-7}

    def test_matches_per_object_apply(self, tmp_path):
        P = [embed_point(p) for p in ([1.0, 0.5, -2.0], [0.0, 3.0, 1.0], [-1.5, 0.0, 0.5], [2.0, -1.0, 0.0])]
        objects = {
            "point": P[0],
            "pair": make_point_pair(P[0], P[1]).mv,
            "circle": make_circle(P[0], P[1], P[2]).mv,
            "sphere": sphere_ipns([0.5, -0.5, 1.0], 1.5).mv,
            "line": make_line(P[1], P[3]).mv,
            "plane": make_plane_opns(P[0], P[2], P[3]).mv,
        }
        scene_path = tmp_path / "s.json"
        scene_path.write_text(json.dumps({"objects": {k: mv_entries(v) for k, v in objects.items()}}))
        cases = [
            ("motor(e12, 0.7, 1, 0, -0.5)", "motion", motor(e1 ^ e2, 0.7, [1.0, 0.0, -0.5])),
            ("mirror_sphere(0.5, 0, 0, 2)", "reflection", reflector_sphere([0.5, 0.0, 0.0], 2.0)),
        ]
        for spec, mode, v in cases:
            result = run_ga(["transform", "--scene", str(scene_path), "--versor", spec, "--mode", mode])
            assert result.exit_code == 0, result.stderr
            out = tmp_path / "out.json"
            out.write_text(result.output)
            moved = read_scene(out).objects
            for name, mv in read_scene(scene_path).objects.items():
                want = apply(v, mv, mode)
                err = np.max(np.abs(moved[name].coeffs - want.coeffs))
                assert err <= 1e-13 * max(1.0, want.max_abs()), (spec, name, err)


    @pytest.mark.parametrize("spec", ["translator(1,0,0)", "scalor(1000)"])
    def test_overflowing_result_exit_1_without_traceback(self, tmp_path, spec):
        scene_path = tmp_path / "s.json"
        scene_path.write_text('{"objects": {"q": {"e1": 1.0}, "p": {"e1": 1e308, "e4": 1e308, "e5": 1e308}}}')
        out = tmp_path / "out.json"
        argv = ["transform", "--scene", str(scene_path), "--versor", spec, "--mode", "motion", "--out", str(out)]
        result = run_ga(argv)
        assert result.exit_code == 1
        assert result.exception is None, result.exception
        assert result.stderr.startswith("error: entry 'p' has a non-finite coefficient, inf on e+")
        assert "Traceback" not in result.stderr and not out.exists()

    def test_general_scene_matches_batched_apply(self, tmp_path, rng):
        # the CLI moves all rows in one product, as the library does on the
        # stacked array; one row applied alone agrees only to rounding
        names = [f"o{i:03d}" for i in range(300)]
        scene_path = tmp_path / "s.json"
        rows = rng.uniform(-10.0, 10.0, (len(names), 32)) * 10.0 ** rng.integers(-3, 4, (len(names), 1))
        scene_path.write_text(json.dumps({"objects": {n: mv_entries(Multivector(ALG, r)) for n, r in zip(names, rows)}}))
        scene = read_scene(scene_path)
        for spec, mode in [("motor(e12, 0.7, 1, 0, -0.5)", "motion"), ("mirror_sphere(0.5, 0, 0, 2)", "reflection")]:
            out = tmp_path / "out.json"
            result = run_ga(["transform", "--scene", str(scene_path), "--versor", spec,
                                          "--mode", mode, "--out", str(out)])
            assert result.exit_code == 0, result.stderr
            moved = read_scene(out).objects
            v = make_versor(eval_expression(spec))
            want = apply(v, scene.objects.rows, mode)
            assert moved.names == names
            assert np.array_equal(moved.rows, want)
            for name, row in zip(names, want):
                one = apply(v, scene.objects[name], mode)
                assert np.max(np.abs(one.coeffs - row)) <= 1e-13 * max(1.0, one.max_abs()), (spec, name)


class TestSceneInput:
    @pytest.mark.parametrize("command", [
        ["classify"],
        ["transform", "--versor", "translator(1,0,0)", "--mode", "motion"],
    ], ids=["classify", "transform"])
    def test_scene_tolerance_ends_with_the_command(self, tmp_path, monkeypatch, command):
        scene_path = tmp_path / "s.json"
        scene_path.write_text(json.dumps({"tolerance": {"rel": 1e-3}, "objects": {"q": {"e0": 1.0}}}))
        argv = [command[0], "--scene", str(scene_path), *command[1:]]
        default = tolerance.rel_eps()
        seen = spy_tolerance(monkeypatch, cli, "classify_batch" if command[0] == "classify" else "apply")
        result = run_ga(argv, env={"GA_TOLERANCE": "1e-6"})
        assert result.exit_code == 0, result.stderr
        assert seen == [1e-3]
        assert tolerance.rel_eps() == default

    @pytest.mark.parametrize("doc", [
        '{"objects": {"p": {"e1": NaN, "e0": 1.0}}}',
        '{"objects": {"p": {"e0": Infinity}}}',
        '{"objects": {"p": {"einf": -Infinity}}}',
        '{"objects": {"p": {"e0": 1e999}}}',
        '{"objects": {"p": {"e0": 1%s}}}' % ("0" * 400),
        '{"tolerance": {"rel": NaN}, "objects": {}}',
        '{"tolerance": {"rel": Infinity}, "objects": {}}',
    ], ids=["nan", "infinity", "-infinity", "1e999", "int-beyond-float", "nan-rel", "infinity-rel"])
    @pytest.mark.parametrize("command", [
        ["classify"],
        ["transform", "--versor", "translator(1,0,0)", "--mode", "motion"],
    ], ids=["classify", "transform"])
    def test_non_finite_scene_exit_1(self, tmp_path, doc, command):
        scene_path = tmp_path / "s.json"
        scene_path.write_text(doc)
        result = run_ga([command[0], "--scene", str(scene_path), *command[1:]])
        assert result.exit_code == 1
        assert "finite" in result.stderr


    @pytest.mark.parametrize("data, message", [
        (b'{"objects": [1, 2]}', "error: section 'objects' must map names to blade tables, got list"),
        (b'{"objects": "x"}', "error: section 'objects' must map names to blade tables, got str"),
        (b'{"versors": 5}', "error: section 'versors' must map names to blade tables, got int"),
        (b'{"tolerance": {"rel": -1}, "objects": {"q": {"e0": 1.0}}}', "error: tolerance rel must be >= 0, got -1"),
        (b'{"tolerance": {"rel": 1}, "objects": {"q": {"e0": 1.0}}}', "error: tolerance rel must be < 1, got 1"),
        (b'{"tolerance": {"rel": 10.0}, "objects": {"q": {"e0": 1.0}}}', "error: tolerance rel must be < 1, got 10.0"),
        ('{"objects": {"q": {"e0": 1.0}}}'.encode("utf-16"), "error: scene file is not UTF-8 text: "),
        ('{"objects": {"\u00fc": {"e0": 1.0}}}'.encode("latin-1"), "error: scene file is not UTF-8 text: "),
    ], ids=["objects-list", "objects-str", "versors-int", "negative-rel", "rel-one", "rel-ten", "utf-16", "latin-1"])
    @pytest.mark.parametrize("command", [
        ["classify"],
        ["transform", "--versor", "translator(1,0,0)", "--mode", "motion"],
    ], ids=["classify", "transform"])
    def test_malformed_scene_exit_1(self, tmp_path, data, message, command):
        scene_path = tmp_path / "s.json"
        scene_path.write_bytes(data)
        result = run_ga([command[0], "--scene", str(scene_path), *command[1:]])
        assert result.exit_code == 1, result.output
        assert result.stderr.startswith(message)
        assert result.exception is None


class TestClassify:
    def make_scene(self, tmp_path):
        doc = {
            "objects": {
                "ball": {"e3": 1.0, "e0": 1.0, "einf": -1.5},
                "origin": {"e0": 1.0},
                "zaxis": {"e3+-": 1.0},
                "junk": {"1": 1.0, "e1": 1.0},
            }
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        return path

    def test_text_report(self, tmp_path):
        result = run_ga(["classify", "--scene", str(self.make_scene(tmp_path))])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("ball: sphere")
        assert "center=(0, 0, 1)" in lines[0] and "radius2=4" in lines[0]
        assert lines[1].startswith("junk: error:")
        assert lines[2].startswith("origin: point")
        assert lines[3].startswith("zaxis: line")

    def test_text_report_escapes_control_characters_in_names(self, tmp_path):
        """A name's control characters (Unicode category Cc) are written as JSON writes them,
        \\u00XX: no terminal escape code reaches stdout, and a newline in a name cannot forge
        a report line. Other characters keep every byte."""
        path = tmp_path / "ctl.json"
        names = ["\u001b[31mred", "a\nb: point location=(9, 9, 9)\nc", "n\u00fcn \u2028\u0085\u009b\u007f"]
        path.write_text(json.dumps({"objects": {name: {"e0": 1.0} for name in names}}))
        result = run_ga(["classify", "--scene", str(path)])
        assert result.exit_code == 0 and result.stderr == ""
        assert result.stdout.split("\n") == [  # \u2028 is no Cc character: it stays, as splitlines would break it
            "\\u001b[31mred: point location=(0, 0, 0)",
            "a\\u000ab: point location=(9, 9, 9)\\u000ac: point location=(0, 0, 0)",
            "n\u00fcn \u2028\\u0085\\u009b\\u007f: point location=(0, 0, 0)",
            "",
        ]

    def test_error_message_escapes_control_characters_in_names(self, tmp_path):
        path = tmp_path / "ctl.json"
        path.write_text(json.dumps({"objects": {"x\u001b[2J": {"e1": float("nan")}}}))
        result = run_ga(["classify", "--scene", str(path)])
        assert result.exit_code == 1 and result.stdout == ""
        assert result.stderr == "error: coefficient for x\\u001b[2J.e1 must be a number and finite, got nan\n"

    def test_json_report_matches_library(self, tmp_path):
        result = run_ga(["classify", "--scene", str(self.make_scene(tmp_path)), "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        obj = classify(read_scene(self.make_scene(tmp_path)).objects["ball"])
        assert payload["ball"]["kind"] == obj.kind == "sphere"
        assert payload["ball"]["params"]["radius2"] == obj.params["radius2"] == 4.0
        assert set(payload["junk"]) == {"error"}

    def test_large_weights_leave_stderr_empty(self, tmp_path):
        # in a process of its own: numpy writes its warnings to the real stderr
        path = tmp_path / "big.json"
        path.write_text('{"objects": {"s": {"e1": 1e100, "e2": 2e100, "e3": 3e100, "e0": 1e100, "einf": 5.875e100}, '
                        '"l": {"e3+-": 1e200}}}')
        env = {**os.environ, "PYTHONPATH": str(Path(confga.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", "from confga.cli import main; main()", "classify", "--scene", str(path)],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (0, "")
        assert re.search(r"^s: sphere .* form=ipns$", done.stdout, re.M), done.stdout
        assert "l: line direction=(0, 0, 1) moment=(0, 0, 0)" in done.stdout


    def test_reader_that_stops_early(self, tmp_path):
        """`ga classify ... | head -1`: exit 1 and an empty stderr, no BrokenPipeError traceback."""
        path = tmp_path / "many.json"
        path.write_text(json.dumps({"objects": {f"p{i:05d}": {"e0": 1.0, "e1": float(i)} for i in range(4000)}}))
        env = {**os.environ, "PYTHONPATH": str(Path(confga.__file__).parents[1])}
        with subprocess.Popen([sys.executable, "-c", "from confga.cli import main; main()", "classify", "--scene",
                               str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
        assert first.startswith(b"p00000: ") and (proc.returncode, stderr) == (1, b""), stderr


class TestTrain:
    ARGS = ["train", "--versor", "rotor(e12, 0.9)", "--n", "30", "--seed", "0", "--epochs", "40"]

    def test_report_shape_and_determinism(self):
        first = run_ga(self.ARGS)
        second = run_ga(self.ARGS)
        assert first.exit_code == 0, first.stderr
        assert first.output == second.output
        assert first.output.startswith("epochs=40 final_loss=")
        assert first.output.rstrip().endswith("converged=false")

    def test_matches_library_training(self):
        result = run_ga(self.ARGS + ["--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        v = make_versor(eval_expression("rotor(e12, 0.9)"))
        net = new_neuron(v.parity, 0)
        history = train(net, generate_dataset(v, 30, 0), TrainConfig(lr=0.015, epochs=40))
        assert payload["epochs"] == len(history) - 1 == 40
        assert payload["final_loss"] == history[-1]
        assert payload["parity"] == "even"

    def test_out_file_payload(self, tmp_path):
        out = tmp_path / "fit.json"
        result = run_ga(self.ARGS + ["--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"epochs", "final_loss", "weight", "theta", "history"}
        assert len(payload["history"]) == payload["epochs"] + 1

    def test_divergence_exit_1(self):
        result = run_ga(
            ["train", "--versor", "rotor(e12, 0.9)", "--n", "20", "--seed", "0",
             "--epochs", "200", "--lr", "50"],
        )
        assert result.exit_code == 1
        assert "diverged" in result.stderr

    @pytest.mark.parametrize("option, value", [
        ("--n", "0"), ("--n", "-5"), ("--epochs", "-1"),
        ("--lr", "0"), ("--lr", "-0.1"), ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-inf"),
        ("--noise", "-1"), ("--noise", "nan"), ("--noise", "inf"), ("--seed", "-1"),
    ])
    def test_bad_option_exit_2_before_work(self, monkeypatch, option, value):
        calls = []
        monkeypatch.setattr(cli, "generate_dataset", lambda *a, **k: calls.append(1))
        result = run_ga(self.ARGS + [option, value])  # the last value given wins
        assert result.exit_code == 2, result.output
        assert option in result.stderr
        assert "Traceback" not in result.output + result.stderr
        assert calls == []

    @pytest.mark.parametrize("extra, epochs", [
        (["--n", "1"], 40), (["--epochs", "0"], 0), (["--noise", "0", "--lr", "1e-300"], 40),
    ])
    def test_boundary_options_accepted(self, extra, epochs):
        result = run_ga(self.ARGS + extra + ["--format", "json"])
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.output)["epochs"] == epochs

    def test_odd_target_spec(self):
        result = run_ga(
            ["train", "--versor", "mirror_sphere(0,0,0;1)", "--n", "10", "--seed", "3",
             "--epochs", "5", "--format", "json"],
        )
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.output)["parity"] == "odd"


def spy_tolerance(monkeypatch, owner, attr) -> list:
    """Record rel_eps() each time owner.attr is called during a command."""
    seen = []
    original = getattr(owner, attr)

    def spy(*args, **kwargs):
        seen.append(tolerance.rel_eps())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, spy)
    return seen


class TestToleranceEnv:
    def test_env_override_applies(self, monkeypatch):
        default = tolerance.rel_eps()
        seen = spy_tolerance(monkeypatch, cli.expr, "render")
        result = run_ga(["eval", "e1"], env={"GA_TOLERANCE": "1e-3"})
        assert result.exit_code == 0
        assert seen == [1e-3]
        assert tolerance.rel_eps() == default

    def test_env_override_does_not_leak_into_the_next_call(self, monkeypatch):
        default = tolerance.rel_eps()
        assert run_ga(["eval", "e1"], env={"GA_TOLERANCE": "1e-3"}).exit_code == 0
        assert tolerance.rel_eps() == default
        seen = spy_tolerance(monkeypatch, cli.expr, "render")
        assert run_ga(["eval", "e1"]).exit_code == 0
        assert seen == [default]

    def test_invalid_env_value_exit_2(self):
        result = run_ga(["eval", "e1"], env={"GA_TOLERANCE": "abc"})
        assert result.exit_code == 2
        assert "GA_TOLERANCE" in result.stderr

    @pytest.mark.parametrize("raw", ["-1", "-1e-9", "-5e-324"])
    def test_negative_env_value_exit_2(self, raw):
        result = run_ga(["eval", "translator(1,0,0)"], env={"GA_TOLERANCE": raw})
        assert result.exit_code == 2
        assert f"GA_TOLERANCE must be a number >= 0 and < 1, got {raw!r}" in result.stderr

    @pytest.mark.parametrize("raw", ["1", "10", "1e300"])
    def test_env_value_of_one_or_more_exit_2(self, raw):
        result = run_ga(["eval", "translator(1,0,0)"], env={"GA_TOLERANCE": raw})
        assert result.exit_code == 2
        assert f"GA_TOLERANCE must be a number >= 0 and < 1, got {raw!r}" in result.stderr

    def test_zero_env_value_accepted(self):
        assert run_ga(["eval", "e1"], env={"GA_TOLERANCE": "0"}).exit_code == 0

    def test_zero_env_value_classifies_a_moved_scene_as_the_default(self, tmp_path):
        """rel = 0 acts as tolerance.RESOLUTION, which leaves room for the rounding of a motion."""
        scene = tmp_path / "keys.json"
        scene.write_text('{"objects": {"p": {"e1": 1.0, "e0": 1.0, "einf": 0.5}, '
                         '"q": {"e2": -0.0, "e3": 2.0, "e0": 1.0, "einf": 2.0}, '
                         '"r": {"e1": 1.0, "e2": 1.0, "e3": 1.0, "e4": 1.0, "e5": 2.0}, "s": {"e45": 2.0, "e1": -0.0}}}')
        moved = tmp_path / "moved.json"
        result = run_ga(["transform", "--scene", str(scene), "--versor", "motor(e12,0.7,1,0,-0.5)",
                                      "--mode", "motion", "--out", str(moved)])
        assert result.exit_code == 0, result.stderr
        command = ["classify", "--scene", str(moved), "--format", "json"]
        default = json.loads(run_ga(command).stdout)
        zero = run_ga(command, env={"GA_TOLERANCE": "0"})
        assert zero.exit_code == 0, zero.stderr
        assert [(v["kind"], v["params"]["location"]) for v in json.loads(zero.stdout).values()] == \
            [(v["kind"], v["params"]["location"]) for v in default.values()]
        assert [v["kind"] for v in default.values()] == ["point", "point", "point", "flat_point"]

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_env_value_exit_2(self, raw):
        result = run_ga(["eval", "e1"], env={"GA_TOLERANCE": raw})
        assert result.exit_code == 2
        assert "GA_TOLERANCE" in result.stderr


class TestUsage:
    """A usage error exits 2 with an explanation on stderr, no traceback and no output."""

    @pytest.mark.parametrize("argv", [
        ["classify", "--scene", "{missing}"],
        ["classify", "--scene", "{dir}"],
        ["transform", "--scene", "{missing}", "--versor", "translator(1,0,0)", "--mode", "motion"],
        ["transform", "--scene", "{dir}", "--versor", "translator(1,0,0)", "--mode", "motion"],
        ["bogus"],
        [],
        ["transform", "--scene", "{scene}", "--versor", "translator(1,0,0)"],
        ["transform", "--scene", "{scene}", "--versor", "translator(1,0,0)", "--mode", "bogus"],
        ["eval", "1", "--format", "xml"],
        ["transform", "--scene", "{scene}", "--versor", "translator(1,0,0)", "--mode", "motion", "--format", "xml"],
        ["classify", "--scene", "{scene}", "--format", "xml"],
        ["train", "--versor", "translator(1,0,0)", "--n", "5", "--epochs", "1", "--format", "xml"],
        ["eval", "1", "2"],
        ["eval"],
        ["eval", "1", "--format"],
        ["classify", "--scene", "{scene}", "--bogus"],
        ["train", "--versor", "translator(1,0,0)", "--n", "5", "--epochs", "1", "--parity", "none"],
        ["train", "--n", "5"],
    ], ids=["classify-missing-scene", "classify-scene-is-dir", "transform-missing-scene", "transform-scene-is-dir",
            "unknown-command", "no-command", "transform-no-mode", "transform-bad-mode", "eval-format-xml",
            "transform-format-xml", "classify-format-xml", "train-format-xml", "eval-two-expressions",
            "eval-no-expression", "eval-format-without-value", "classify-unknown-option", "train-bad-parity",
            "train-no-versor"])
    def test_exit_2(self, tmp_path, argv):
        names = {"{missing}": str(tmp_path / "missing.json"), "{dir}": str(tmp_path),
                 "{scene}": str(write_point_scene(tmp_path / "s.json"))}
        result = run_ga([names.get(arg, arg) for arg in argv])
        assert (result.exit_code, result.stdout, result.exception) == (2, "", None), result.output
        assert result.stderr.strip() and "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv", [["eval", "--help"], ["eval", "1", "--help"], ["transform", "--help"],
                                      ["classify", "--help"], ["train", "--help"], ["--help"]])
    def test_help_exit_0(self, argv):
        result = run_ga(argv)
        assert (result.exit_code, result.stderr) == (0, ""), result.stderr
        assert result.stdout.lower().startswith("usage:") and ("--format" in result.stdout or argv == ["--help"])

    @pytest.mark.parametrize("argv", [["eval", "--format=json", "2*e1"], ["eval", "--format", "json", "2*e1"],
                                      ["eval", "2*e1", "--format", "json"]])
    def test_eval_format_anywhere(self, argv):
        result = run_ga(argv)
        assert (result.exit_code, json.loads(result.stdout)["text"]) == (0, "2*e1"), result.output

    @pytest.mark.parametrize("argv, text", [(["eval", "--", "-2*e1"], "-2*e1"), (["eval", "--bogus"], None),
                                            (["eval", "-h"], None)])
    def test_eval_words_that_look_like_options_are_expressions(self, argv, text):
        """Only --format and --help are eval's options; `--` ends them."""
        result = run_ga(argv)
        if text is None:
            assert result.exit_code == 1 and result.stderr.startswith("error: unbound name"), result.output
        else:
            assert (result.exit_code, result.stdout) == (0, text + "\n"), result.output

    def test_option_value_may_start_with_minus(self, tmp_path):
        """The word after an option is its value, even an expression that starts with '-'; a
        versor and its negative act alike."""
        scene_path = str(write_point_scene(tmp_path / "s.json"))
        minus = run_ga(["transform", "--scene", scene_path, "--versor", "-translator(0,0,2)", "--mode", "motion"])
        plus = run_ga(["transform", "--scene", scene_path, "--versor", "translator(0,0,2)", "--mode", "motion"])
        assert minus.exit_code == 0, minus.output
        moved = tmp_path / "moved.json"
        moved.write_text(minus.stdout)
        assert extract_point(read_scene(moved).objects["p"]) == pytest.approx([1.0, 0.0, 2.0])
        assert (plus.exit_code, plus.stdout) == (0, minus.stdout)

    @pytest.mark.parametrize("out", ["{dir}", "{dir}/missing/out.json"], ids=["directory", "missing-directory"])
    @pytest.mark.parametrize("command", ["train", "transform"])
    def test_out_path_that_cannot_be_written_exit_2_before_work(self, tmp_path, monkeypatch, out, command):
        """Checked with the options: a missing directory made an OSError traceback after the work."""
        calls = []
        monkeypatch.setattr(cli, "generate_dataset", lambda *a, **k: calls.append(1))
        monkeypatch.setattr(cli, "read_scene", lambda *a, **k: calls.append(1))
        argv = ["train", "--versor", "translator(1,0,0)"] if command == "train" else \
            ["transform", "--scene", str(write_point_scene(tmp_path / "s.json")), "--versor", "e3", "--mode", "reflection"]
        result = run_ga([*argv, "--out", out.format(dir=tmp_path)])
        assert (result.exit_code, result.exception, calls) == (2, None, []), result.output
        assert result.stderr.startswith("error: argument --out: ")


class TestInProcessCall:
    """`main(argv, standalone_mode=False)` under redirected streams, as bench/child.py calls it:
    None on success, SystemExit(1) for a domain error and SystemExit(2) for a usage or syntax error,
    and no tolerance left behind."""

    @staticmethod
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                returned = main(argv, standalone_mode=False)
            except SystemExit as exc:
                returned = exc
        return returned, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("env", [None, "1e-3"])
    def test_success_returns_none(self, monkeypatch, env):
        default = tolerance.rel_eps()
        if env is not None:
            monkeypatch.setenv("GA_TOLERANCE", env)
        assert self.call(["eval", "2*e1"]) == (None, "2*e1\n", "")
        assert tolerance.rel_eps() == default

    @pytest.mark.parametrize("argv, env, code, message", [
        (["eval", "inv(e1 + e23)"], None, 1, "error: versor must be purely even or purely odd\n"),
        (["eval", "e1 *"], None, 2, "error: syntax error at 1:5: "),
        (["eval", "e1"], "nan", 2, "error: GA_TOLERANCE must be a number >= 0 and < 1, got 'nan'"),
        (["eval", "inv(e1 + e23)"], "1e-3", 1, "error: versor must be purely even or purely odd\n"),
        (["eval", "1", "--format", "xml"], "1e-3", 2, "error: "),
    ], ids=["domain-error", "syntax-error", "bad-tolerance", "domain-error-in-scope", "usage-error-in-scope"])
    def test_failure_raises_system_exit(self, monkeypatch, argv, env, code, message):
        default = tolerance.rel_eps()
        if env is not None:
            monkeypatch.setenv("GA_TOLERANCE", env)
        returned, out, err = self.call(argv)
        assert isinstance(returned, SystemExit) and returned.code == code, returned
        assert out == "" and err.startswith(message), err
        assert tolerance.rel_eps() == default

    def test_import_leaves_click_out(self):
        env = {**os.environ, "PYTHONPATH": str(Path(confga.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", "import sys, confga.cli; print('click' in sys.modules)"],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
