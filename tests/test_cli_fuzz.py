"""Seeded, bounded fuzz of every `ga` command, run in-process.

Whatever the input, a command exits 0, 1 or 2, raises nothing but
SystemExit, and explains a failure on stderr with `error:` or click's usage
text. Each crash this finds gets a test of its own next to its command's
tests; the corpora start with the inputs that found earlier escapes."""

import json
import random

from click.testing import CliRunner

from confga.cli import main

SEED = 20261019

_FRAGMENTS = (
    ["1", "2", "0.5", ".5", "0", "1e308", "1e200", "1e999", "1e-320", "709", "1e6", "999999.75148"]
    + ["e1", "e2", "e12", "e1+", "e1-", "e45", "e123+-", "e21", "e", "e0", "einf", "E", "I3", "I5"]
    + ["motion", "reflection", "foo", "point", "e0(1)", "E()", "point(1,2,3)", "translator(1,0,0)"]
    + ["point(", "translator(", "rotor(", "apply(", "dual(", "inv(", "exp(", "grade(", "sphere(", "motor(",
       "scalor(", "mirror_sphere(", "mirror_line(", "e0(", "motion(", "foo("]
    + ["+", "-", "*", "^", "|", "~", "!", "(", ")", ",", ";", " ", "\n", "\t", "@", "--"]
)
_ATOMS = ["1", "2", "0.5", "1e200", "1e308", "e1", "e2", "e12", "e1+", "e45", "e0", "einf", "E", "I3", "I5",
          "motion", "reflection", "foo", "point", "e0(1)", "E()", "point(1,2,3)", "translator(1,0,0)", "space()"]
_CALLS = ["point", "translator", "rotor", "apply", "dual", "inv", "exp", "grade", "sphere", "pair", "line", "motor",
          "scalor", "mirror_sphere", "flat_point", "mirror_line", "circle", "plane", "e0", "motion", "foo"]
_KNOWN = [
    "motion + foo", "e0(1)", "foo(1 +", "exp(1e6*e1- + 999999.75148*e12)", "exp(1000*e1-)", "(" * 1001 + "1",
    "apply(translator(1,0,0), 1e308*e1 + 1e308*e+ + 1e308*e-, motion)", "--", "--format", "-", "",
    "translator(1e200,0,0)", "scalor(2,1e200,0,0)", "mirror_sphere(0,0,0,1e-160)", "mirror_sphere(0,0,0,0)",
]


def _fragments(rng) -> str:
    return "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(1, 10)))


def _grammatical(rng, depth=0) -> str:
    """A well-formed expression, whose names and arguments may still be wrong."""
    r = rng.random()
    if depth > 3 or r < 0.35:
        return rng.choice(_ATOMS)
    if r < 0.5:
        return rng.choice("-~!") + _grammatical(rng, depth + 1)
    if r < 0.6:
        return "(" + _grammatical(rng, depth + 1) + ")"
    if r < 0.75:
        args = [_grammatical(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return rng.choice(_CALLS) + "(" + rng.choice([", ", ";"]).join(args) + ")"
    return _grammatical(rng, depth + 1) + " " + rng.choice("+-*^|") + " " + _grammatical(rng, depth + 1)


def check(result, what) -> list:
    """The ways a finished command broke the contract, each naming its input."""
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        return [f"{what}: raised {result.exception!r}"]
    if result.exit_code not in (0, 1, 2):
        return [f"{what}: exit {result.exit_code}"]
    if result.exit_code == 0 and result.stderr:
        return [f"{what}: exit 0 with stderr {result.stderr!r}"]
    if result.exit_code and not result.stderr.startswith(("error:", "Usage:")):
        return [f"{what}: exit {result.exit_code} with stderr {result.stderr!r}"]
    return []


def test_eval_on_random_fragments():
    rng = random.Random(SEED)
    texts = _KNOWN + [rng.choice([_fragments, _grammatical])(rng) for _ in range(400)]
    runner = CliRunner()
    broken = []
    for text in texts:
        fmt = rng.choice(["text", "json"])
        broken += check(runner.invoke(main, ["eval", text, "--format", fmt]), repr(text))
    assert broken == []


_SCENE = {
    "tolerance": {"rel": 1e-9},
    "objects": {
        "p": {"e1": 1.0, "e0": 1.0, "einf": 0.5},
        "ball": {"e3": 1.0, "e0": 1.0, "einf": -1.5},
        "axis": {"e3+-": 1.0},
    },
    "versors": {"lift": {"1": 1.0, "e3+": 0.5, "e3-": 0.5}},
}
_NUMBERS = [1e308, -1e308, 1.7976931348623157e308, 1e154, 1e-154, 5e-324, -5e-324, 1e-310, -0.0, 0, 2**53 + 1, 3]
_WRONG = ["x", None, True, [], [1.0], {}, {"e0": 1.0}, 10**400, -(10**400)]
_KEYS = ["e21", "e6", "e0", "einf", "1", "", "x", "E1", "e1+e2", "e11", " e1", "e12345", "e+-", "e45", "e"]
_TOLERANCES = [{"rel": -1}, {"rel": 1}, {"rel": 0.999}, {"rel": "x"}, {"rel": None}, {"rel": 10**400},
               {"rel": 5e-324}, {"rel": -0.0}, {}, [], 5, {"abs": 1.0}, {"rel": 0.5, "x": 1}]
_COMMANDS = [
    ["classify"],
    ["classify", "--format", "json"],
    ["transform", "--versor", "translator(1,0,0)", "--mode", "motion"],
    ["transform", "--versor", "lift", "--mode", "motion"],
    ["transform", "--versor", "ball", "--mode", "reflection", "--format", "json"],
    ["transform", "--chain", "lift", "--chain", "translator(0,1,0)", "--mode", "motion"],
]


def _mutated_scene(rng) -> bytes:
    doc = json.loads(json.dumps(_SCENE))
    for _ in range(rng.randint(1, 2)):
        r = rng.random()
        section = doc[rng.choice(["objects", "objects", "versors"])]
        name = rng.choice(sorted(section))
        if r < 0.55:  # a number, under one of the entry's blade keys
            section[name][rng.choice(sorted(section[name]))] = rng.choice(_NUMBERS)
        elif r < 0.7:  # a number or a wrong value under a bad key
            section[name][rng.choice(_KEYS)] = rng.choice(_NUMBERS + _WRONG)
        elif r < 0.8:  # a wrong value for a coefficient, an entry or a section
            where = rng.choice([section[name], section, doc])
            where[rng.choice(sorted(where))] = rng.choice(_WRONG)
            break
        elif r < 0.9:
            doc["tolerance"] = rng.choice(_TOLERANCES)
        else:
            doc.pop(rng.choice(["versors", "tolerance"]))
            break
    text = json.dumps(doc)
    op = rng.randrange(15)
    if op == 0:
        return b"\xef\xbb\xbf" + text.encode()
    if op == 1:
        return text.encode()[: rng.randrange(len(text))]
    if op == 2:  # a duplicate key
        return text.replace('"e0": 1.0', '"e0": 1.0, "e0": -0.0', 1).encode()
    if op == 3:
        return rng.choice(["[" * 3000, "[]", "1", "null", '"x"', "", "{", "NaN"]).encode()
    if op == 4:
        return text.encode("utf-16")
    return text.encode()


def test_scene_commands_on_mutated_scenes(tmp_path):
    rng = random.Random(SEED)
    runner = CliRunner()
    path, out = tmp_path / "scene.json", tmp_path / "out.json"
    broken = []
    for _ in range(150):
        data = _mutated_scene(rng)
        path.write_bytes(data)
        for command in rng.sample(_COMMANDS, 2):
            argv = [command[0], "--scene", str(path), *command[1:]]
            if command[0] == "transform" and rng.random() < 0.5:
                argv += ["--out", str(out)]
            broken += check(runner.invoke(main, argv), f"{argv[0]} {data[:200]!r}")
    assert broken == []


_TRAIN = {"--versor": "translator(1,0,0)", "--n": "5", "--seed": "0", "--epochs": "1"}
_TRAIN_EDGES = {
    "--versor": ["rotor(e12, 0.9)", "mirror_sphere(0,0,0;1)", "motion", "e0", "1", "0", "e1", "translator(1e200,0,0)",
                 "foo(", "scalor(1e-300)", "1e300*e12", "e0(1)"],
    "--n": ["1", "0", "-1", "x", "1e3"],
    "--seed": ["-1", str(2**32 - 1), str(2**64), "x", "-0"],
    "--epochs": ["0", "3", "-1"],
    "--lr": ["1e-300", "5e-324", "1e300", "50", "0", "nan", "inf"],
    "--parity": ["even", "odd", "none"],
    "--mode": ["paper-literal", "both"],
    "--noise": ["5e-324", "1e300", "-0.0", "nan", "-1"],
}


def test_train_at_edge_option_values():
    # a short run on a good target, with one or two options at an edge value
    rng = random.Random(SEED)
    runner = CliRunner()
    broken = []
    for _ in range(40):
        options = dict(_TRAIN)
        for option in rng.sample(sorted(_TRAIN_EDGES), rng.randint(1, 2)):
            options[option] = rng.choice(_TRAIN_EDGES[option])
        argv = ["train", *(word for item in options.items() for word in item)]
        broken += check(runner.invoke(main, argv), " ".join(argv))
    assert broken == []
