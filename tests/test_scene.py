"""Scene JSON: blade-key parsing, canonical writing, byte-exact round trips."""

import json
import math
from itertools import cycle, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confga import (
    ConformalObject,
    DegenerateError,
    DomainError,
    GAError,
    Scene,
    Section,
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
from confga.algebra import Multivector, algebra
from confga.conformal import ALG, e0, e1, e2, einf
from confga.expr import tokenize
from confga.scene import classification_to_json

from conftest import SPECIAL_FLOATS, assert_mv_close, random_mv


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

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "latin-1"])
    def test_file_that_is_not_utf8(self, tmp_path, encoding):
        path = tmp_path / "wide.json"
        path.write_bytes(json.dumps({"objects": {"\u00fc": {"e1": 1.0}}}, ensure_ascii=False).encode(encoding))
        with pytest.raises(DomainError, match="^scene file is not UTF-8 text: "):
            read_scene(path)

    def test_null_sections_are_empty(self):
        scene = scene_from_dict({"objects": None, "versors": None, "tolerance": None})
        assert (len(scene.objects), len(scene.versors), scene.tolerance_rel) == (0, 0, None)

    def test_zero_tolerance_accepted(self):
        assert scene_from_dict({"tolerance": {"rel": 0}}).tolerance_rel == 0.0
        assert scene_from_dict({"tolerance": {"rel": -0.0}}).tolerance_rel == 0.0

    @pytest.mark.parametrize("opening", ["[", '{"objects": '])
    def test_deeply_nested_file(self, tmp_path, opening):
        # deeper than the JSON decoder's recursion allows
        path = tmp_path / "deep.json"
        path.write_text(opening * 100_000)
        with pytest.raises(DomainError, match="^scene JSON nests too deeply to read$"):
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


class TestSection:
    def test_rows_in_file_order_and_views(self):
        scene = scene_from_dict({"objects": {"b": {"e1": 1.0}, "a": {"e2": 2.0}}})
        assert list(scene.objects) == ["b", "a"] and len(scene.objects) == 2
        assert np.array_equal(scene.objects.rows, np.stack([e1.coeffs, 2.0 * e2.coeffs]))
        assert np.shares_memory(scene.objects["a"].coeffs, scene.objects.rows)
        assert "a" in scene.objects and "c" not in scene.objects and "c" not in scene.versors

    def test_read_only(self):
        scene = Scene(objects={"a": e1})
        with pytest.raises(TypeError):
            scene.objects["b"] = e2
        with pytest.raises(ValueError):
            scene.objects.rows[0, 1] = 2.0
        assert scene.objects == {"a": e1} and scene.versors == {}

    def test_from_mapping_keeps_order_and_copies(self):
        mvs = {"z": e1, "y": e2 + 3.0 * einf}
        scene = Scene(objects=mvs)
        assert scene.objects.names == ["z", "y"]
        assert scene.objects["y"] == mvs["y"]
        assert not np.shares_memory(scene.objects.rows, mvs["y"].coeffs)

    def test_non_finite_rows_refused_by_name(self):
        bad = Multivector(ALG, np.where(np.arange(ALG.dim) == 8, np.inf, 0.0))
        with pytest.raises(DomainError, match="entry 'c' has a non-finite coefficient, inf on e\\+"):
            Scene(objects={"a": e1, "c": bad, "b": bad})
        with pytest.raises(DomainError, match="entry 'v' has a non-finite coefficient, nan on 1"):
            Scene(versors={"v": Multivector(ALG, np.full(ALG.dim, np.nan))})

    def test_overflowing_sum_of_entries_refused(self):
        # alias spellings of one blade add up; their sum may overflow
        with pytest.raises(DomainError, match="entry 'a' has a non-finite coefficient, inf on e1\\+-"):
            scene_from_dict({"objects": {"a": {"e145": 1e308, "e1+-": 1e308}}})

    def test_rows_must_match_names(self):
        with pytest.raises(ValueError):
            Section(["a", "b"], np.zeros((1, ALG.dim)))

    def test_rows_are_a_copy(self):
        rows = np.zeros((1, ALG.dim))
        section = Section(["a"], rows)
        rows[0, 0] = 1.0
        assert section["a"] == ALG.zero()

    @pytest.mark.parametrize("name", [1, None, ("a",)])
    def test_names_must_be_strings(self, name):
        with pytest.raises(TypeError) as info:
            Scene(objects={"a": e1, name: e2})
        assert str(info.value) == f"section names must be strings, got {name!r}"


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
def test_blade_bits_accepts_exactly_every_spelling(signature):
    # every bitset, its generators in ascending order, each spelled by any
    # of its aliases: the digit k + 1, and + or - for e4 and e5 of Cl(4,1)
    alg = algebra(*signature)
    aliases = [{str(k + 1)} for k in range(alg.n)]
    if signature == (4, 1):
        aliases[3].add("+")
        aliases[4].add("-")
    spellings = {"1": 0}
    for bits in range(1, alg.dim):
        for combo in product(*(aliases[k] for k in range(alg.n) if bits >> k & 1)):
            spellings["e" + "".join(combo)] = bits
    alphabet = "123456+-"
    names = ["", "1", "e", "x1", "E1"] + ["e" + "".join(p) for k in range(1, 6) for p in product(alphabet, repeat=k)]
    accepted = {}
    for name in names:
        try:
            accepted[name] = alg.blade_bits(name)
        except ValueError:
            pass
    assert accepted == spellings


def test_blade_name_errors_keep_their_messages():
    with pytest.raises(ValueError, match="bad blade name 'e6'"):
        ALG.blade_bits("e6")
    with pytest.raises(ValueError, match="bad blade name 'e'"):
        ALG.blade_bits("e")
    with pytest.raises(ValueError, match="strictly ascending in 'e21'"):
        ALG.blade_bits("e21")
    with pytest.raises(ValueError, match="strictly ascending in 'e4\\+'"):
        ALG.blade_bits("e4+")


# -- the writer is json.dumps, the reader is the per-entry loop ---------------

_coefficients = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_names = st.one_of(
    st.sampled_from(['a"b', "back\\slash", "tab\there", "new\nline", "\x00\x1f\x7f", "ünï", "雪", "\u2028", "😀", ""]),
    st.text(max_size=6),
)
_sections = st.one_of(
    st.none(), st.dictionaries(_names, st.dictionaries(st.integers(0, ALG.dim - 1), _coefficients, max_size=8), max_size=5)
)
_tolerances = st.one_of(st.none(), st.sampled_from([1e-09, 1e-05, 0.001]), st.floats(min_value=1e-300, max_value=1.0))


def _mv(columns: dict) -> Multivector:
    coeffs = np.zeros(ALG.dim)
    for bits, value in columns.items():
        coeffs[bits] = value
    return Multivector(ALG, coeffs)


@settings(max_examples=150, deadline=None)
@given(objects=_sections, versors=_sections, tol=_tolerances)
def test_writer_is_json_dumps_byte_for_byte(objects, versors, tol):
    sections = {}
    for title, table in (("objects", objects), ("versors", versors)):
        if table is not None:
            sections[title] = {name: _mv(columns) for name, columns in table.items()}
    payload = {} if tol is None else {"tolerance": {"rel": tol}}
    for title in ("objects", "versors"):
        mvs = sections.get(title, {})
        payload[title] = {name: mv_entries(mvs[name]) for name in sorted(mvs)}
    want = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    assert scene_to_json(Scene(**sections, tolerance_rel=tol)) == want


_leaves = st.one_of(st.sampled_from(SPECIAL_FLOATS + [math.inf, -math.inf, math.nan]), st.floats(), st.integers())
_texts = st.one_of(st.sampled_from(["real", "imaginary", "ipns", "opns"]), _names)
_messages = st.one_of(st.sampled_from(['say "no"', "tab\tcr\r", "\x00\x1f\x7f", "ünï 雪 😀", "\u2028"]), st.text())
_V = ("f", "f", "f")
# every kind's params in classify's key order ("f" a number, "s" a string, a tuple a tuple of
# those), a point pair's points and a circle's normal present or not; None is an error
_SHAPES = [
    ("point", {"location": _V}),
    ("point_pair", {"center": _V, "radius2": "f", "sign": "s", "points": (_V, _V)}),
    ("point_pair", {"center": _V, "radius2": "f", "sign": "s"}),
    ("circle", {"center": _V, "radius2": "f", "sign": "s", "normal": _V}),
    ("circle", {"center": _V, "radius2": "f", "sign": "s"}),
    ("sphere", {"center": _V, "radius2": "f", "sign": "s", "form": "s"}),
    ("flat_point", {"location": _V}),
    ("line", {"direction": _V, "moment": _V}),
    ("plane", {"normal": _V, "distance": "f", "form": "s"}),
    ("space", {}),
    ("line", {"direction": (), "moment": ("s", ("f",))}),  # beyond classify's shapes: [] and mixed lists
    None,
]


@st.composite
def _reports(draw):
    """Names with classify outcomes. Names, numbers, strings, messages and kinds
    are drawn as pools that the objects take from in turn, so that an example
    holds many objects for few draws."""
    names = draw(st.lists(_names, min_size=1, max_size=8, unique=True))
    numbers = cycle(draw(st.lists(_leaves, min_size=1, max_size=16)))
    texts = cycle(draw(st.lists(_texts, min_size=1, max_size=4)))
    messages = cycle(draw(st.lists(_messages, min_size=1, max_size=4)))
    shapes = cycle(draw(st.lists(st.sampled_from(_SHAPES), min_size=1, max_size=len(_SHAPES))))

    def fill(shape):
        if isinstance(shape, tuple):
            return tuple(fill(s) for s in shape)
        return next(texts) if shape == "s" else next(numbers)

    report = {}
    for i, shape in zip(range(draw(st.integers(1, 60))), shapes):
        # the pool's names as drawn, then again with a count appended
        name = names[i % len(names)] + (str(i // len(names)) if i >= len(names) else "")
        if shape is None:
            report[name] = DegenerateError(next(messages))
        else:
            report[name] = ConformalObject(shape[0], e0, {key: fill(s) for key, s in shape[1].items()})
    return report


@settings(max_examples=25, deadline=None)
@given(report=_reports())
@example(report={})
def test_classification_writer_is_json_dumps_byte_for_byte(report):
    want = json.dumps({
        name: {"error": str(o)} if isinstance(o, GAError) else {"kind": o.kind, "params": o.params}
        for name, o in report.items()
    }, indent=2) + "\n"
    assert classification_to_json(list(report), list(report.values())) == want


def _reference_coeffs(entries: dict) -> np.ndarray:
    # the reader's arithmetic, one entry at a time in file order
    coeffs = np.zeros(ALG.dim)
    for key, value in entries.items():
        value = float(value)
        if key in ("e0", "einf"):
            coeffs += value * (e0 if key == "e0" else einf).coeffs
        else:
            coeffs[ALG.blade_bits(key)] += value
    return coeffs


_KEYS = ["e0", "einf", "e45", "e4", "e1+-", "e145"] + ALG.blade_names


@settings(max_examples=150, deadline=None)
@given(entries=st.dictionaries(
    st.sampled_from(_KEYS),
    st.one_of(_coefficients, st.integers(-(2 ** 60), 2 ** 60)),
    max_size=12,
))
def test_reader_matches_per_entry_arithmetic(entries):
    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_coeffs(entries)
    if not np.isfinite(want).all():
        with pytest.raises(DomainError, match="entry 'a' has a non-finite coefficient"):
            scene_from_dict({"objects": {"a": entries}})
        return
    got = scene_from_dict({"objects": {"a": entries}}).objects["a"]
    assert np.array_equal(got.coeffs, want)
    assert not np.signbit(got.coeffs[got.coeffs == 0.0]).any()


@pytest.mark.parametrize("doc, message", [
    ({"objects": {"a": [1, 2]}}, "entry 'a' must map blade names to numbers"),
    ({"versors": {"v": 1.0}}, "entry 'v' must map blade names to numbers"),
    ({"objects": {"a": {"e1": float("nan")}}}, "coefficient for a.e1 must be a number and finite, got nan"),
    ({"objects": {"a": {"e1": float("inf")}}}, "coefficient for a.e1 must be a number and finite, got inf"),
    ({"objects": {"a": {"e0": float("-inf")}}}, "coefficient for a.e0 must be a number and finite, got -inf"),
    ({"objects": {"a": {"e1": True}}}, "coefficient for a.e1 must be a number and finite, got True"),
    ({"objects": {"a": {"e1": "big"}}}, "coefficient for a.e1 must be a number and finite, got 'big'"),
    ({"objects": {"a": {"e1": None}}}, "coefficient for a.e1 must be a number and finite, got None"),
    ({"objects": {"a": {"e1": 10 ** 400}}}, f"coefficient for a.e1 must be a number and finite, got {10 ** 400!r}"),
    ({"objects": {"a": {"e21": 1.0}}}, "bad blade key 'e21'"),
    ({"objects": {"a": {"e4+": 1.0}}}, "bad blade key 'e4+'"),
    ({"objects": {"a": {"e6": 1.0}}}, "bad blade key 'e6'"),
    ({"objects": {"a": {"E1": 1.0}}}, "bad blade key 'E1'"),
    ({"objects": {"a": {"e21": float("nan")}}}, "coefficient for a.e21 must be a number and finite, got nan"),
    ({"objects": {"a": {"e1": 1.0, "e21": 1.0, "e2": float("nan")}}}, "bad blade key 'e21'"),
    ({"objects": {"a": {"e1": 1.0}, "b": {"e2": float("nan")}, "c": []}}, "coefficient for b.e2 must be a number and finite, got nan"),
    ({"objects": {"a": {"e1": 1.0}}, "versors": {"v": {"x": 1.0}}}, "bad blade key 'x'"),
    ({"tolerance": {"rel": float("nan")}}, "tolerance rel must be a number and finite, got nan"),
    ({"objects": {}, "extras": {}}, "unknown scene sections: ['extras']"),
    ([1, 2], "scene must be a JSON object"),
    ({"tolerance": {"rel": -1}}, "tolerance rel must be >= 0, got -1"),
    ({"tolerance": {"rel": -5e-324}}, "tolerance rel must be >= 0, got -5e-324"),
    ({"objects": [1, 2]}, "section 'objects' must map names to blade tables, got list"),
    ({"objects": "x"}, "section 'objects' must map names to blade tables, got str"),
    ({"objects": []}, "section 'objects' must map names to blade tables, got list"),
    ({"versors": 5}, "section 'versors' must map names to blade tables, got int"),
    ({"versors": False}, "section 'versors' must map names to blade tables, got bool"),
    ({"tolerance": {"rel": 1}}, "tolerance rel must be < 1, got 1"),
    ({"tolerance": {"rel": 10.0}}, "tolerance rel must be < 1, got 10.0"),
])
def test_reader_error_messages(doc, message):
    with pytest.raises(DomainError) as info:
        scene_from_dict(doc)
    assert str(info.value) == message


def test_reader_expands_null_and_alias_keys():
    scene = scene_from_dict({"objects": {"p": {"e1": 1.0, "e0": 1.0, "einf": 0.5}, "q": {"e45": 2.0, "e+-": 1}}})
    assert np.array_equal(scene.objects["p"].coeffs, (e1 + e0 + 0.5 * einf).coeffs)
    assert np.array_equal(scene.objects["q"].coeffs, ALG.blade(0b11000, 3.0).coeffs)


# -- the reader's one-lookup pass against the per-entry loop ------------------


def reference_section(table: dict) -> Section:
    """The reader as it was before the one-lookup pass: each entry added into
    zeros in file order, refusing the first bad one."""
    flat = [0.0] * (len(table) * ALG.dim)
    for base, (name, entries) in zip(range(0, len(flat), ALG.dim), table.items()):
        if not isinstance(entries, dict):
            raise DomainError(f"entry {name!r} must map blade names to numbers")
        for key, value in entries.items():
            bits = ALG.blade_names.index(key) if key in ALG.blade_names else None
            if bits is not None and type(value) is float and value - value == 0.0:
                flat[base + bits] += value
                continue
            try:
                number = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
            except OverflowError:
                number = False
            if not number:
                raise DomainError(f"coefficient for {name}.{key} must be a number and finite, got {value!r}")
            if key in ("e0", "einf"):
                terms = [(k, c) for k, c in enumerate((e0 if key == "e0" else einf).coeffs.tolist()) if c]
            else:
                try:
                    terms = [(ALG.blade_bits(key), 1.0)]
                except ValueError as exc:
                    raise DomainError(f"bad blade key {key!r}") from exc
            for bits, unit in terms:
                flat[base + bits] += float(value) * unit
    return Section(table, flat)


_ODD_KEYS = ["e0", "einf", "e45", "e4", "e5", "e1+-", "e145", "e21", "e4+", "E1", "x", ""]
_ODD_VALUES = [2 ** 60, -(2 ** 60), 10 ** 400, 3, 0, True, False, "1.0", None, math.nan, math.inf, -math.inf]
_NOT_TABLES = [[1.0], 1.0, None, "e1"]


@st.composite
def _tables(draw):
    """Blade tables of many objects: a few key tuples, in varying orders, that the
    objects take in turn, and a pool of values they take from. Most tables are
    canonical keys and finite floats; some hold one odd key, value or entry,
    often after many objects the one-lookup pass accepts."""
    shapes = draw(st.lists(st.lists(st.sampled_from(ALG.blade_names), unique=True, max_size=8), min_size=1, max_size=3))
    shapes.append(shapes[0][::-1])
    odd = draw(st.sampled_from(["key", "value", "entry", None, None, None]))
    if odd == "key":
        shapes.append(draw(st.lists(st.sampled_from(ALG.blade_names + _ODD_KEYS), unique=True, min_size=1, max_size=6)))
    values = draw(st.lists(_coefficients, min_size=1, max_size=12))
    if odd == "value":
        values.insert(draw(st.integers(0, len(values))), draw(st.sampled_from(_ODD_VALUES)))
    n = draw(st.integers(1, 60))
    order = draw(st.lists(st.integers(0, len(shapes) - 1), min_size=1, max_size=8))
    pool, picks = cycle(values), cycle(order)
    table = {f"o{i}": {key: next(pool) for key in shapes[next(picks)]} for i in range(n)}
    if odd == "entry":
        where = draw(st.sampled_from([n - 1, n // 2, 0]))
        table[f"o{where}"] = draw(st.sampled_from(_NOT_TABLES))
    return table


@settings(max_examples=120, deadline=None)
@given(table=_tables())
@example(table={f"o{i}": {"e1": 1.0, "e2": -0.0} for i in range(300)} | {"o299": {"e1": 1.0, "e0": 2.0}})
@example(table={f"o{i}": {"e12": 5e-324, "1": 1e16} for i in range(300)} | {"last": {"e1": math.nan}})
@example(table={f"o{i}": {"e1": 2 ** 60 + 1, "e2": 0.5} for i in range(100)} | {"big": {"e2": 10 ** 400}})
@example(table={"a": {"e1": 1.0}, "b": [1.0], "c": {"e21": 1.0}})
def test_reader_matches_per_entry_reference(table):
    try:
        want = reference_section(table)
    except DomainError as exc:
        with pytest.raises(DomainError) as info:
            scene_from_dict({"objects": table})
        assert str(info.value) == str(exc)
        return
    got = scene_from_dict({"objects": table}).objects
    assert got.names == want.names
    assert got.rows.tobytes() == want.rows.tobytes()
    assert not np.signbit(got.rows[got.rows == 0.0]).any()


def test_writer_groups_rows_by_pattern_byte_for_byte():
    # hundreds of rows on a few nonzero patterns, an all-zero row, names with % in them
    patterns = [[1, 2, 4], [0, 31], list(range(ALG.dim)), [8, 16, 24]]
    values = cycle([-0.0, 5e-324, 1e16, 0.1, -2.5, 1 / 3, 1e-310, 1.7976931348623157e308])
    names = ["%", "%s", "%%", "100%s %d done", "%(x)s", "a%r"]
    mvs = {}
    for i in range(400):
        name = names[i % len(names)] + str(i // len(names)) if i >= len(names) else names[i]
        mvs[name] = _mv({bits: next(values) for bits in patterns[i % len(patterns)]})
    mvs["zero"] = ALG.zero()
    want = json.dumps({"objects": {name: mv_entries(mvs[name]) for name in sorted(mvs)}, "versors": {}}, indent=2) + "\n"
    assert scene_to_json(Scene(objects=mvs)) == want
    assert '"zero": {}' in want and '"%s": {' in want
