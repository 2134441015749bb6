"""The ga command line: output formats, exit codes, and API equivalence."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

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
    reflector_sphere,
    motor,
    sphere_ipns,
    train,
)
from confga import tolerance
from confga.cli import main
from confga.conformal import classify, e1, e2


@pytest.fixture(autouse=True)
def _restore_tolerance():
    yield
    tolerance.set_rel_eps(None)


@pytest.fixture
def runner():
    return CliRunner()


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
    def test_distance_scalar_prints_exactly(self, runner):
        result = runner.invoke(main, ["eval", "point(1,0,0) | point(0,0,0)"])
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
    def test_output_matches_library_render(self, runner, src):
        result = runner.invoke(main, ["eval", src])
        assert result.exit_code == 0
        assert result.output == render(eval_expression(src)) + "\n"

    def test_json_format(self, runner):
        result = runner.invoke(main, ["eval", "2*e1 + e12", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        mv = eval_expression("2*e1 + e12")
        assert payload == {"text": render(mv), "coefficients": mv_entries(mv)}

    def test_leading_minus_is_an_expression_not_an_option(self, runner):
        result = runner.invoke(main, ["eval", "-2*e1 - 0.5*e12"])
        assert result.exit_code == 0
        assert result.output == "-2*e1 - 0.5*e12\n"

    def test_syntax_error_exit_2(self, runner):
        result = runner.invoke(main, ["eval", "e1 *"])
        assert result.exit_code == 2
        assert "syntax error at 1:5" in result.stderr

    def test_domain_error_exit_1(self, runner):
        result = runner.invoke(main, ["eval", "pair(point(0,0,0), point(0,0,0))"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error:")

    @pytest.mark.parametrize("src", ["1e999 * e1", "point(1e400, 0, 0)", "point(1e200, 0, 0)", "sphere(0, -1e200, 0, 1)"])
    def test_overflowing_literal_exit_1(self, runner, src):
        result = runner.invoke(main, ["eval", src])
        assert result.exit_code == 1
        assert "overflows" in result.stderr

    def test_unbound_name_exit_1(self, runner):
        result = runner.invoke(main, ["eval", "wibble + e1"])
        assert result.exit_code == 1
        assert "wibble" in result.stderr


class TestTransform:
    def test_translator_moves_points(self, runner, tmp_path):
        scene_path = write_point_scene(tmp_path / "s.json")
        result = runner.invoke(
            main,
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

    def test_out_file_matches_stdout(self, runner, tmp_path):
        scene_path = write_point_scene(tmp_path / "s.json")
        args = ["transform", "--scene", str(scene_path), "--versor", "scalor(2)", "--mode", "motion"]
        piped = runner.invoke(main, args)
        out_path = tmp_path / "out.json"
        written = runner.invoke(main, args + ["--out", str(out_path)])
        assert piped.exit_code == 0 and written.exit_code == 0
        assert written.output == ""
        assert out_path.read_text() == piped.output

    def test_chain_composes_in_application_order(self, runner, tmp_path):
        # two parallel mirrors: z=0 then z=1 translate by +2 along z
        scene_path = write_point_scene(tmp_path / "s.json")
        result = runner.invoke(
            main,
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

    def test_scene_versor_names_are_usable(self, runner, tmp_path):
        scene_path = write_point_scene(tmp_path / "s.json")
        result = runner.invoke(
            main,
            ["transform", "--scene", str(scene_path), "--versor", "lift", "--mode", "motion"],
        )
        assert result.exit_code == 0, result.stderr
        out = tmp_path / "lifted.json"
        out.write_text(result.output)
        # lift = 1 + 0.5 e3^einf is the unit translator along z
        assert extract_point(read_scene(out).objects["p"]) == pytest.approx([1.0, 0.0, 1.0])

    def test_sphere_inversion_matches_library(self, runner, tmp_path):
        scene_path = write_point_scene(tmp_path / "s.json", include_versor=False)
        result = runner.invoke(
            main,
            ["transform", "--scene", str(scene_path), "--versor", "mirror_sphere(0,0,0;2)", "--mode", "reflection"],
        )
        assert result.exit_code == 0, result.stderr
        out = tmp_path / "inv.json"
        out.write_text(result.output)
        moved = read_scene(out)
        v = reflector_sphere([0.0, 0.0, 0.0], 2.0)
        want = apply(v, embed_point([1.0, 0.0, 0.0]), "reflection")
        assert np.array_equal(moved.objects["p"].coeffs, want.coeffs)

    def test_versor_and_chain_are_exclusive(self, runner, tmp_path):
        scene_path = write_point_scene(tmp_path / "s.json")
        both = runner.invoke(
            main,
            [
                "transform", "--scene", str(scene_path),
                "--versor", "scalor(2)", "--chain", "scalor(2)", "--mode", "motion",
            ],
        )
        neither = runner.invoke(main, ["transform", "--scene", str(scene_path), "--mode", "motion"])
        assert both.exit_code == 2
        assert neither.exit_code == 2

    def test_parity_mode_mismatch_exit_1(self, runner, tmp_path):
        scene_path = write_point_scene(tmp_path / "s.json")
        result = runner.invoke(
            main,
            ["transform", "--scene", str(scene_path), "--versor", "plane(0,0,1,0)", "--mode", "motion"],
        )
        assert result.exit_code == 1
        assert "error:" in result.stderr

    def test_tolerance_section_is_preserved(self, runner, tmp_path):
        scene_path = tmp_path / "s.json"
        scene_path.write_text(json.dumps({"tolerance": {"rel": 1e-7}, "objects": {"q": {"e0": 1.0}}}))
        result = runner.invoke(
            main,
            ["transform", "--scene", str(scene_path), "--versor", "translator(1,0,0)", "--mode", "motion"],
        )
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.output)["tolerance"] == {"rel": 1e-7}

    def test_matches_per_object_apply(self, runner, tmp_path):
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
            result = runner.invoke(main, ["transform", "--scene", str(scene_path), "--versor", spec, "--mode", mode])
            assert result.exit_code == 0, result.stderr
            out = tmp_path / "out.json"
            out.write_text(result.output)
            moved = read_scene(out).objects
            for name, mv in read_scene(scene_path).objects.items():
                want = apply(v, mv, mode)
                err = np.max(np.abs(moved[name].coeffs - want.coeffs))
                assert err <= 1e-13 * max(1.0, want.max_abs()), (spec, name, err)


class TestSceneInput:
    @pytest.mark.parametrize("command", [
        ["classify"],
        ["transform", "--versor", "translator(1,0,0)", "--mode", "motion"],
    ], ids=["classify", "transform"])
    def test_scene_tolerance_ends_with_the_command(self, runner, tmp_path, command):
        scene_path = tmp_path / "s.json"
        scene_path.write_text(json.dumps({"tolerance": {"rel": 1e-3}, "objects": {"q": {"e0": 1.0}}}))
        argv = [command[0], "--scene", str(scene_path), *command[1:]]
        result = runner.invoke(main, argv, env={"GA_TOLERANCE": "1e-6"})
        assert result.exit_code == 0, result.stderr
        assert tolerance.rel_eps() == 1e-6

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
    def test_non_finite_scene_exit_1(self, runner, tmp_path, doc, command):
        scene_path = tmp_path / "s.json"
        scene_path.write_text(doc)
        result = runner.invoke(main, [command[0], "--scene", str(scene_path), *command[1:]])
        assert result.exit_code == 1
        assert "finite" in result.stderr


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

    def test_text_report(self, runner, tmp_path):
        result = runner.invoke(main, ["classify", "--scene", str(self.make_scene(tmp_path))])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("ball: sphere")
        assert "center=(0, 0, 1)" in lines[0] and "radius2=4" in lines[0]
        assert lines[1].startswith("junk: error:")
        assert lines[2].startswith("origin: point")
        assert lines[3].startswith("zaxis: line")

    def test_json_report_matches_library(self, runner, tmp_path):
        result = runner.invoke(
            main, ["classify", "--scene", str(self.make_scene(tmp_path)), "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        obj = classify(read_scene(self.make_scene(tmp_path)).objects["ball"])
        assert payload["ball"]["kind"] == obj.kind == "sphere"
        assert payload["ball"]["params"]["radius2"] == obj.params["radius2"] == 4.0
        assert set(payload["junk"]) == {"error"}


class TestTrain:
    ARGS = ["train", "--versor", "rotor(e12, 0.9)", "--n", "30", "--seed", "0", "--epochs", "40"]

    def test_report_shape_and_determinism(self, runner):
        first = runner.invoke(main, self.ARGS)
        second = runner.invoke(main, self.ARGS)
        assert first.exit_code == 0, first.stderr
        assert first.output == second.output
        assert first.output.startswith("epochs=40 final_loss=")
        assert first.output.rstrip().endswith("converged=false")

    def test_matches_library_training(self, runner):
        result = runner.invoke(main, self.ARGS + ["--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        v = make_versor(eval_expression("rotor(e12, 0.9)"))
        net = new_neuron(v.parity, 0)
        history = train(net, generate_dataset(v, 30, 0), TrainConfig(lr=0.015, epochs=40))
        assert payload["epochs"] == len(history) - 1 == 40
        assert payload["final_loss"] == history[-1]
        assert payload["parity"] == "even"

    def test_out_file_payload(self, runner, tmp_path):
        out = tmp_path / "fit.json"
        result = runner.invoke(main, self.ARGS + ["--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"epochs", "final_loss", "weight", "theta", "history"}
        assert len(payload["history"]) == payload["epochs"] + 1

    def test_divergence_exit_1(self, runner):
        result = runner.invoke(
            main,
            ["train", "--versor", "rotor(e12, 0.9)", "--n", "20", "--seed", "0",
             "--epochs", "200", "--lr", "50"],
        )
        assert result.exit_code == 1
        assert "diverged" in result.stderr

    def test_odd_target_spec(self, runner):
        result = runner.invoke(
            main,
            ["train", "--versor", "mirror_sphere(0,0,0;1)", "--n", "10", "--seed", "3",
             "--epochs", "5", "--format", "json"],
        )
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.output)["parity"] == "odd"


class TestToleranceEnv:
    def test_env_override_applies(self, runner):
        result = runner.invoke(main, ["eval", "e1"], env={"GA_TOLERANCE": "1e-3"})
        assert result.exit_code == 0
        assert tolerance.rel_eps() == 1e-3

    def test_invalid_env_value_exit_2(self, runner):
        result = runner.invoke(main, ["eval", "e1"], env={"GA_TOLERANCE": "abc"})
        assert result.exit_code == 2
        assert "GA_TOLERANCE" in result.stderr

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_env_value_exit_2(self, runner, raw):
        result = runner.invoke(main, ["eval", "e1"], env={"GA_TOLERANCE": raw})
        assert result.exit_code == 2
        assert "GA_TOLERANCE" in result.stderr
