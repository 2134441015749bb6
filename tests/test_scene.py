"""Scene JSON: blade-key parsing, canonical writing, byte-exact round trips."""

import json
from itertools import product

import numpy as np
import pytest

from confga import (
    DomainError,
    Scene,
    embed_point,
    mv_entries,
    read_scene,
    rotor,
    scene_from_dict,
    scene_to_json,
    sphere_ipns,
    translator,
    write_scene,
)
from confga.algebra import algebra
from confga.conformal import ALG, e0, e1, e2, einf
from confga.expr import tokenize

from conftest import assert_mv_close, random_mv


class TestReading:
    def test_blade_keys(self):
        scene = scene_from_dict({"objects": {"a": {"1": 2.0, "e12": -1.0, "e123+-": 0.5}}})
        mv = scene.objects["a"]
        assert mv.coeff(0) == 2.0
        assert mv.coeff(0b00011) == -1.0
        assert mv.coeff(0b11111) == 0.5

    def test_null_direction_keys_expand(self):
        scene = scene_from_dict({"objects": {"p": {"e1": 1.0, "einf": 0.5, "e0": 1.0}}})
        assert_mv_close(scene.objects["p"], embed_point([1.0, 0.0, 0.0]))

    def test_digit_alias_keys(self):
        scene = scene_from_dict({"objects": {"a": {"e45": 1.0}, "b": {"e+-": 1.0}}})
        assert_mv_close(scene.objects["a"], scene.objects["b"])

    def test_integer_coefficients_accepted(self):
        scene = scene_from_dict({"objects": {"a": {"e1": 2}}})
        assert scene.objects["a"].coeff(1) == 2.0

    def test_tolerance_section(self):
        scene = scene_from_dict({"tolerance": {"rel": 1e-6}, "objects": {}})
        assert scene.tolerance_rel == 1e-6
        assert scene_from_dict({}).tolerance_rel is None

    def test_unknown_section_rejected(self):
        with pytest.raises(DomainError, match="unknown scene sections"):
            scene_from_dict({"objects": {}, "extras": {}})

    def test_bad_blade_keys_rejected(self):
        for key in ["e21", "x1", "e", "e16", "12", "e1 "]:
            with pytest.raises(DomainError, match="bad blade key"):
                scene_from_dict({"objects": {"a": {key: 1.0}}})

    def test_bad_values_rejected(self):
        with pytest.raises(DomainError, match="must be a number"):
            scene_from_dict({"objects": {"a": {"e1": True}}})
        with pytest.raises(DomainError, match="must be a number"):
            scene_from_dict({"objects": {"a": {"e1": "big"}}})
        with pytest.raises(DomainError, match="must map blade names"):
            scene_from_dict({"objects": {"a": [1, 2]}})
        with pytest.raises(DomainError, match="scene must be a JSON object"):
            scene_from_dict([1, 2])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(DomainError, match="finite"):
            scene_from_dict({"objects": {"a": {"e1": value}}})
        with pytest.raises(DomainError, match="finite"):
            scene_from_dict({"tolerance": {"rel": value}})

    def test_bad_tolerance_rejected(self):
        with pytest.raises(DomainError):
            scene_from_dict({"tolerance": {"rel": "tight"}})
        with pytest.raises(DomainError):
            scene_from_dict({"tolerance": {"abs": 1e-9}})
        with pytest.raises(DomainError):
            scene_from_dict({"tolerance": 1e-9})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DomainError, match="not valid JSON"):
            read_scene(path)


def _alias(name: str) -> str:
    return name.replace("+", "4").replace("-", "5")


@pytest.mark.parametrize("bits", range(ALG.dim))
def test_blade_names_parse_alike_everywhere(bits):
    # one name table: the expression tokenizer, the scene reader, and
    # ALG.blade_names agree on every blade, in both spellings
    name = ALG.blade_names[bits]
    for spelling in {name, _alias(name)}:
        assert ALG.blade_bits(spelling) == bits
        tok = tokenize(spelling)[0]
        if bits == 0:
            assert (tok.kind, tok.value) == ("number", 1.0)
        else:
            assert (tok.kind, tok.value) == ("blade", bits)
        scene = scene_from_dict({"objects": {"a": {spelling: 1.0}}})
        assert scene.objects["a"] == ALG.blade(bits)


class TestEntries:
    def test_ordered_by_grade_then_bits(self):
        mv = (e1 ^ e2) + e2 + ALG.scalar(3.0) + (0.5 * einf)
        keys = list(mv_entries(mv).keys())
        assert keys == ["1", "e2", "e+", "e-", "e12"]

    def test_exact_zeros_dropped(self):
        assert mv_entries(e1 - e1) == {}
        assert mv_entries(ALG.zero()) == {}

    def test_values_are_plain_floats(self):
        entries = mv_entries(2.5 * e1)
        assert entries == {"e1": 2.5}
        assert type(entries["e1"]) is float


class TestWriting:
    def test_canonical_ordering(self):
        scene = Scene(
            objects={"zeta": e1, "alpha": e2},
            versors={"m": rotor(e1 ^ e2, 0.5).mv},
            tolerance_rel=1e-8,
        )
        text = scene_to_json(scene)
        data = json.loads(text)
        assert list(data.keys()) == ["tolerance", "objects", "versors"]
        assert list(data["objects"].keys()) == ["alpha", "zeta"]
        assert text.endswith("\n")

    def test_tolerance_omitted_when_unset(self):
        data = json.loads(scene_to_json(Scene(objects={"a": e1})))
        assert "tolerance" not in data

    def test_write_read_write_is_byte_stable(self, tmp_path, rng):
        for i in range(10):
            objects = {
                f"obj{k}": random_mv(ALG, rng, scale=10.0 ** rng.integers(-3, 4))
                for k in range(int(rng.integers(1, 5)))
            }
            versors = {"v": rotor(e1 ^ e2, float(rng.uniform(0, 3))).mv}
            tol = 10.0 ** float(rng.integers(-12, -6)) if i % 2 else None
            scene = Scene(objects=objects, versors=versors, tolerance_rel=tol)
            first = tmp_path / f"s{i}a.json"
            second = tmp_path / f"s{i}b.json"
            write_scene(scene, first)
            write_scene(read_scene(first), second)
            assert first.read_bytes() == second.read_bytes()

    def test_null_keys_normalize_to_sign_basis(self, tmp_path):
        # reader accepts e0/einf, writer emits the +/- basis; second pass is stable
        path = tmp_path / "p.json"
        path.write_text('{"objects": {"p": {"e1": 1.0, "e0": 1.0, "einf": 0.5}}}')
        scene = read_scene(path)
        out = tmp_path / "q.json"
        write_scene(scene, out)
        reread = read_scene(out)
        assert_mv_close(reread.objects["p"], embed_point([1.0, 0.0, 0.0]))
        final = tmp_path / "r.json"
        write_scene(reread, final)
        assert out.read_bytes() == final.read_bytes()

    def test_mixed_scene_content_survives(self, tmp_path):
        scene = Scene(
            objects={
                "p": embed_point([1.5, -0.25, 3.0]),
                "s": sphere_ipns([0.0, 0.0, 1.0], 2.0).mv,
            },
            versors={"t": translator([1.0, 0.0, 0.0]).mv},
        )
        path = tmp_path / "scene.json"
        write_scene(scene, path)
        back = read_scene(path)
        assert_mv_close(back.objects["p"], scene.objects["p"])
        assert_mv_close(back.objects["s"], scene.objects["s"])
        assert_mv_close(back.versors["t"], scene.versors["t"])

    def test_float_text_round_trips_exactly(self, tmp_path):
        # shortest-repr floats must survive write -> read bit for bit
        values = [0.1, 1 / 3, 1e-300, 12345.678901234567, 2.0 ** -52]
        mv = ALG.zero()
        for k, v in enumerate(values):
            mv = mv + v * ALG.blade(1 << (k % 5))
        path = tmp_path / "f.json"
        write_scene(Scene(objects={"a": mv}), path)
        back = read_scene(path).objects["a"]
        assert np.array_equal(back.coeffs, mv.coeffs)


@pytest.mark.parametrize("signature", [(4, 1), (3, 0), (2, 2)])
def test_blade_name_table_matches_parser(signature):
    # blade_bits looks names up in a table and parses only a miss: every
    # string the parser accepts is in the table with the same bits, and
    # every string it refuses is not
    alg = algebra(*signature)
    alphabet = "123456+-"
    names = ["", "1", "e", "x1", "E1"] + ["e" + "".join(p) for k in range(1, 6) for p in product(alphabet, repeat=k)]
    accepted = 0
    for name in names:
        try:
            bits = alg._parse_blade_name(name)
        except ValueError:
            assert name not in alg._bits_by_name
            continue
        accepted += 1
        assert alg._bits_by_name[name] == bits == alg.blade_bits(name)
    assert accepted == len(alg._bits_by_name)


def test_blade_name_errors_keep_their_messages():
    with pytest.raises(ValueError, match="bad blade name 'e6'"):
        ALG.blade_bits("e6")
    with pytest.raises(ValueError, match="bad blade name 'e'"):
        ALG.blade_bits("e")
    with pytest.raises(ValueError, match="strictly ascending in 'e21'"):
        ALG.blade_bits("e21")
    with pytest.raises(ValueError, match="strictly ascending in 'e4\\+'"):
        ALG.blade_bits("e4+")
