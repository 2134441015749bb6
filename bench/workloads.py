"""Seeded workload inputs, the `ga` commands that consume them, and the
independent checks of their outputs.

A workload turns a seed into input files and a list of commands (one
"pass"). The program sees only those files and command lines; the ground
truth stays here. Every check returns an Outcome: how many items the
command attempted, how many came out wrong or missing, how many of those
lie in the near-origin share, and the work units it completed correctly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ref

# A fixed share of every seeded geometry sits far from the origin, where
# confga's tolerances are scaled by coefficient size (see ROADMAP item 4).
# Failures there are counted but are not part of `correct`, which covers
# the near-origin share only.
FAR_SHARE = 0.1
NEAR_BOX = 3.0
FAR_DECADES = (2.0, 4.0)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failed_near: int = 0
    units: float = 0.0

    def __iadd__(self, other: "Outcome") -> "Outcome":
        self.attempted += other.attempted
        self.failed += other.failed
        self.failed_near += other.failed_near
        self.units += other.units
        return self


@dataclass
class Command:
    argv: list[str]
    out: str | None = None  # output file template with {pass}; None captures stdout


@dataclass
class Workload:
    name: str
    unit: str
    commands: list[Command]
    warmup: list[Command] = field(default_factory=list)
    # labelled sets of command indices whose goodput is printed on its own
    groups: dict = field(default_factory=dict)
    # stamp every training epoch (see child.py)
    epoch_clock: bool = False

    def check(self, index: int, text: str) -> Outcome:
        raise NotImplementedError

    def replica(self, index: int) -> tuple:
        """(key, size): commands with one key do the same work on inputs of
        the given sizes, so their times per item are interchangeable."""
        return index, 1

    def failed_call(self, index: int) -> Outcome:
        raise NotImplementedError


def _num(x: float) -> str:
    """Four decimals, as typed into an expression; the reference uses the same value."""
    return repr(round(float(x), 4))


def _far_mask(rng, n: int) -> np.ndarray:
    far = np.zeros(n, dtype=bool)
    far[rng.permutation(n)[: int(round(FAR_SHARE * n))]] = True
    return far


def _unit(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _positions(rng, far: np.ndarray) -> np.ndarray:
    """Near positions in a box around the origin; far ones pushed out to
    10^2..10^4 along a random direction."""
    n = len(far)
    base = rng.uniform(-NEAR_BOX, NEAR_BOX, size=(n, 3))
    dist = 10.0 ** rng.uniform(*FAR_DECADES, size=n)
    return base + np.where(far[:, None], _unit(rng, n) * dist[:, None], 0.0)


def _frame(rng, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal in-plane vectors u, w for each normal."""
    helper = _unit(rng, len(normals))
    u = np.cross(normals, helper)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u, np.cross(normals, u)


def _blade_names() -> list[str]:
    syms = "123+-"
    return ["1"] + ["e" + "".join(syms[k] for k in range(5) if bits >> k & 1) for bits in range(1, ref.DIM)]


BLADE_NAMES = _blade_names()


def entries(coeffs) -> dict:
    return {BLADE_NAMES[b]: float(c) for b, c in enumerate(coeffs) if c != 0.0}


# -- scene -------------------------------------------------------------------

SCENE_KINDS = ("point", "point_pair", "circle", "sphere_opns", "sphere_ipns", "flat_point", "line", "plane")
_TETRA = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0)


def _scene_kind(kind: str, rng, centers: np.ndarray):
    """Blade coefficients (n, 32) and ground-truth parameters for one kind."""
    n = len(centers)
    r = rng.uniform(0.5, 2.0, size=n)
    inf = ref.einf()
    if kind == "point":
        return ref.embed(centers), [{"location": c} for c in centers]
    if kind == "point_pair":
        u = _unit(rng, n) * r[:, None]
        coeffs = ref.wedge(ref.embed(centers + u), ref.embed(centers - u))
        return coeffs, [{"center": c, "radius2": rr * rr} for c, rr in zip(centers, r)]
    if kind == "circle":
        normal = _unit(rng, n)
        u, w = _frame(rng, normal)
        phi = rng.uniform(0, 2 * math.pi, size=(n, 1)) + np.array([0.0, 2.1, 4.2]) + rng.uniform(-0.3, 0.3, (n, 3))
        pts = [centers + r[:, None] * (np.cos(phi[:, k : k + 1]) * u + np.sin(phi[:, k : k + 1]) * w) for k in range(3)]
        coeffs = ref.wedge(*[ref.embed(p) for p in pts])
        truth = [{"center": c, "radius2": rr * rr, "normal": nn} for c, rr, nn in zip(centers, r, normal)]
        return coeffs, truth
    if kind == "sphere_opns":
        rots = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
        dirs = np.einsum("nij,kj->nki", rots, _TETRA)
        coeffs = ref.wedge(*[ref.embed(centers + r[:, None] * dirs[:, k]) for k in range(4)])
        return coeffs, [{"center": c, "radius2": rr * rr, "form": "opns"} for c, rr in zip(centers, r)]
    if kind == "sphere_ipns":
        coeffs = ref.embed(centers) - 0.5 * (r * r)[:, None] * inf
        return coeffs, [{"center": c, "radius2": rr * rr, "form": "ipns"} for c, rr in zip(centers, r)]
    if kind == "flat_point":
        return ref.wedge(ref.embed(centers), inf), [{"location": c} for c in centers]
    if kind == "line":
        p2 = centers + _unit(rng, n) * (r * 1.5)[:, None]
        coeffs = ref.wedge(ref.embed(centers), ref.embed(p2), inf)
        truth = []
        for a, b in zip(centers, p2):
            moment = np.array([a[0] * b[1] - a[1] * b[0], a[0] * b[2] - a[2] * b[0], a[1] * b[2] - a[2] * b[1]])
            length = np.linalg.norm(a - b)
            truth.append({"direction": (a - b) / length, "moment": moment / length})
        return coeffs, truth
    if kind == "plane":
        normal = _unit(rng, n)
        u, w = _frame(rng, normal)
        p2 = centers + u * r[:, None]
        p3 = centers + w * rng.uniform(0.5, 2.0, size=(n, 1))
        coeffs = ref.wedge(ref.embed(centers), ref.embed(p2), ref.embed(p3), inf)
        truth = [{"normal": nn, "distance": float(nn @ c)} for nn, c in zip(normal, centers)]
        return coeffs, truth
    raise ValueError(kind)


@dataclass
class Scene:
    names: list[str]
    kinds: list[str]
    far: np.ndarray
    coeffs: np.ndarray  # (n, 32)
    truth: list[dict]
    points: np.ndarray  # indices of point objects
    centers: np.ndarray  # (n, 3); for points, the location


def make_scene(rng, n: int) -> Scene:
    kinds = [SCENE_KINDS[i % len(SCENE_KINDS)] for i in range(n)]
    kind_arr = np.array(kinds)
    far = np.zeros(n, dtype=bool)
    coeffs = np.zeros((n, ref.DIM))
    centers = np.zeros((n, 3))
    truth: list[dict] = [{} for _ in range(n)]
    for kind in SCENE_KINDS:
        # the far share is fixed per kind, so every seed has the same mix
        idx = np.flatnonzero(kind_arr == kind)
        far[idx] = _far_mask(rng, len(idx))
        centers[idx] = _positions(rng, far[idx])
        c, t = _scene_kind(kind, rng, centers[idx])
        coeffs[idx] = c
        for i, info in zip(idx, t):
            truth[i] = info
    names = [f"o{i:05d}" for i in range(n)]
    points = np.flatnonzero(kind_arr == "point")
    return Scene(names, kinds, far, coeffs, truth, points, centers)


def write_scene(scene: Scene, path: Path, objects) -> None:
    doc = {"objects": {scene.names[i]: entries(scene.coeffs[i]) for i in objects}}
    path.write_text(json.dumps(doc, allow_nan=False))


def _read_objects(text: str, names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows for the named objects and a mask of names present."""
    try:
        objects = json.loads(text)["objects"]
    except (ValueError, KeyError, TypeError):
        objects = None
    if not isinstance(objects, dict):
        objects = {}
    out = np.zeros((len(names), ref.DIM))
    present = np.zeros(len(names), dtype=bool)
    for i, name in enumerate(names):
        entry = objects.get(name)
        if isinstance(entry, dict):
            try:
                out[i] = ref.from_entries(entry)
                present[i] = True
            except (KeyError, TypeError, ValueError):
                pass
    return out, present


SCENE_OPS = ("motion", "reflection", "classify")


class SceneWorkload(Workload):
    """One scene, stored as `n_parts` files that each hold every kind. One
    pass runs, on each part: motion by a motor and reflection in a sphere
    mirror (both `ga transform --out`), then `ga classify --format json`.
    Parts keep each call short, so a call seldom straddles a change in the
    host's speed. Transformed objects are compared with a numpy sandwich
    (points with the closed form); classified ones with the generator's
    ground truth."""

    def __init__(self, workdir: Path, seed: int, n_objects: int = 10_000, n_parts: int = 8):
        rng = np.random.default_rng([seed, 1])
        self.scene = make_scene(rng, n_objects)
        # kinds cycle with the index, so contiguous parts hold every kind equally
        self.parts = np.array_split(np.arange(n_objects), n_parts)
        warm_path = workdir / "warm.json"
        write_scene(self.scene, warm_path, range(min(64, n_objects)))

        self.plane = tuple(sorted(rng.choice(3, size=2, replace=False).tolist()))
        self.theta = float(_num(rng.uniform(0.2, 2.5)))
        self.t = [float(_num(x)) for x in rng.uniform(-2.0, 2.0, size=3)]
        self.mirror_c = [float(_num(x)) for x in rng.uniform(-1.0, 1.0, size=3)]
        self.mirror_r = float(_num(rng.uniform(1.0, 3.0)))
        a, b = self.plane
        motor_spec = f"motor(e{a + 1}{b + 1},{_num(self.theta)},{','.join(map(_num, self.t))})"
        mirror_spec = f"mirror_sphere({','.join(map(_num, self.mirror_c))};{_num(self.mirror_r)})"
        self._references = {"motion": self._transform_reference(False), "reflection": self._transform_reference(True)}

        def transform(spec, mode, scene, out):
            return Command(["transform", "--scene", str(scene), "--versor", spec, "--mode", mode, "--out", out], out)

        commands = []
        self.ops: list[tuple[str, int]] = []
        for k, objects in enumerate(self.parts):
            path = workdir / f"scene{k}.json"
            write_scene(self.scene, path, objects)
            commands += [
                transform(motor_spec, "motion", path, str(workdir / f"motion{k}-{{pass}}.json")),
                transform(mirror_spec, "reflection", path, str(workdir / f"reflection{k}-{{pass}}.json")),
                Command(["classify", "--scene", str(path), "--format", "json"]),
            ]
            self.ops += [(op, k) for op in SCENE_OPS]
        warmup = [
            transform(motor_spec, "motion", warm_path, str(workdir / "warm-out.json")),
            Command(["classify", "--scene", str(warm_path), "--format", "json"]),
        ]
        super().__init__("scene", "objects", commands, warmup)
        self.groups = {
            "transform_objects_per_s": [i for i, (op, _) in enumerate(self.ops) if op != "classify"],
            "classify_objects_per_s": [i for i, (op, _) in enumerate(self.ops) if op == "classify"],
        }
        self._cache: dict = {}

    def _transform_reference(self, mirror: bool):
        """Reference coefficients, their size scale, and the moved points."""
        s = self.scene
        pts = s.centers[s.points]
        if mirror:
            K = ref.action_matrix(ref.ipns_sphere(self.mirror_c, self.mirror_r), odd=True)
            moved = ref.invert_point(pts, self.mirror_c, self.mirror_r)
        else:
            K = ref.action_matrix(ref.motor(self.plane, self.theta, self.t), odd=False)
            moved = ref.move_point(pts, self.plane, self.theta, self.t)
        return s.coeffs @ K.T, np.max(np.abs(s.coeffs), axis=1) * np.max(np.abs(K)), moved

    def replica(self, index: int) -> tuple:
        op, k = self.ops[index]
        return op, len(self.parts[k])

    def _outcome(self, objects, ok: np.ndarray) -> Outcome:
        bad = ~ok
        return Outcome(len(objects), int(bad.sum()), int((bad & ~self.scene.far[objects]).sum()), float(ok.sum()))

    def failed_call(self, index: int) -> Outcome:
        return self._outcome(self.parts[self.ops[index][1]], np.zeros(len(self.parts[self.ops[index][1]]), bool))

    def check(self, index: int, text: str) -> Outcome:
        key = (index, hashlib.sha1(text.encode()).hexdigest())
        if key not in self._cache:
            op, k = self.ops[index]
            objects = self.parts[k]
            ok = self._classified(objects, text) if op == "classify" else self._transformed(op, objects, text)
            self._cache[key] = self._outcome(objects, ok)
        return self._cache[key]

    def _transformed(self, op: str, objects: np.ndarray, text: str) -> np.ndarray:
        s = self.scene
        out, present = _read_objects(text, [s.names[i] for i in objects])
        refc, scale, moved = self._references[op]
        refc, scale = refc[objects], scale[objects]
        tol = ref.RTOL * np.maximum(np.max(np.abs(refc), axis=1), scale) + 1e-12
        ok = present & np.all(np.isfinite(out), axis=1) & (np.max(np.abs(out - refc), axis=1) <= tol)
        is_point = np.isin(objects, s.points)
        pts = np.flatnonzero(is_point)
        ok[pts] = present[pts] & ref.points_match(out[pts], moved[np.searchsorted(s.points, objects[pts])])
        return ok

    def _classified(self, objects: np.ndarray, text: str) -> np.ndarray:
        try:
            results = json.loads(text)
        except ValueError:
            results = None
        if not isinstance(results, dict):
            results = {}
        s = self.scene
        return np.array([_classified_ok(s.kinds[i], s.truth[i], results.get(s.names[i])) for i in objects], bool)


def _classified_ok(kind: str, truth: dict, got) -> bool:
    if not isinstance(got, dict) or "kind" not in got:
        return False
    params = got.get("params") or {}
    want_kind = "sphere" if kind.startswith("sphere") else kind
    if got["kind"] != want_kind:
        return False
    try:
        if kind == "point" or kind == "flat_point":
            return ref.close_point(params["location"], truth["location"], ref.PARAM_RTOL)
        if kind == "line":
            return ref.close_up_to_sign(
                [(params["direction"], truth["direction"]), (params["moment"], truth["moment"])]
            )
        if kind == "plane":
            n_out = np.append(params["normal"], params["distance"])
            n_ref = np.append(truth["normal"], truth["distance"])
            return ref.close_up_to_sign([(n_out, n_ref)])
        ok = (
            ref.close_point(params["center"], truth["center"], ref.PARAM_RTOL)
            and ref.close_value(float(params["radius2"]), truth["radius2"])
            and params.get("sign") == "real"
        )
        if "form" in truth:
            ok = ok and params.get("form") == truth["form"]
        if kind == "circle":
            ok = ok and ref.close_up_to_sign([(params["normal"], truth["normal"])])
        return bool(ok)
    except (KeyError, TypeError, ValueError):
        return False


# -- eval ----------------------------------------------------------------------

EVAL_TEMPLATES = (
    "inner",
    "motor_point",
    "round",
    "sphere_cr",
    "inv_translator",
    "mirror_point",
    "bivector",
    "dual_plane",
)


def _vec(p) -> str:
    return ",".join(_num(x) for x in p)


def _rounded(p) -> np.ndarray:
    return np.array([float(_num(x)) for x in p])


_BIVECTORS = [b for b in range(ref.DIM) if bin(b).count("1") == 2]


class EvalWorkload(Workload):
    """One `ga eval --format json` per expression; each template has a
    closed-form result."""

    def __init__(self, workdir: Path, seed: int, n_exprs: int = 1200):
        rng = np.random.default_rng([seed, 3])
        per = -(-n_exprs // len(EVAL_TEMPLATES))
        items = []
        for template in EVAL_TEMPLATES:
            far = _far_mask(rng, per)
            centers = _positions(rng, far)
            for k in range(per):
                items.append((self._make(template, rng, centers[k]), bool(far[k])))
        order = rng.permutation(len(items))[:n_exprs]
        self.items = [items[i] for i in order]
        commands = [Command(["eval", text, "--format", "json"]) for (text, _), _ in self.items]
        super().__init__("eval", "expressions", commands, warmup=commands[:20])
        self._cache: dict = {}

    def _make(self, template: str, rng, c: np.ndarray):
        """(expression text, expected) for one instance of a template."""
        c = _rounded(c)
        if template == "inner":
            q = _rounded(c + _unit(rng, 1)[0] * rng.uniform(0.5, 3.0))
            return f"point({_vec(c)}) | point({_vec(q)})", ("scalar", -0.5 * float(np.sum((c - q) ** 2)), c, q)
        if template == "motor_point":
            plane = tuple(sorted(rng.choice(3, size=2, replace=False).tolist()))
            theta = float(_num(rng.uniform(0.2, 2.5)))
            t = _rounded(rng.uniform(-2, 2, 3))
            text = f"apply(motor(e{plane[0] + 1}{plane[1] + 1},{_num(theta)},{_vec(t)}), point({_vec(c)}), motion)"
            return text, ("point", ref.move_point(c, plane, theta, t))
        if template == "round":
            r = float(rng.uniform(0.5, 2.0))
            if rng.random() < 0.5:
                u = _unit(rng, 2)
                w = np.cross(u[0], u[1])
                w /= np.linalg.norm(w)
                v = np.cross(w, u[0])
                phis = rng.uniform(0, 2 * math.pi) + np.array([0.0, 2.1, 4.2])
                pts = [_rounded(c + r * (math.cos(a) * u[0] + math.sin(a) * v)) for a in phis]
            else:
                rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
                pts = [_rounded(c + r * (rot @ d)) for d in _TETRA]
            fn = "circle" if len(pts) == 3 else "sphere"
            text = f"{fn}({', '.join(f'point({_vec(p)})' for p in pts)})"
            return text, ("coeffs", ref.wedge(*[ref.embed(p) for p in pts]))
        if template == "sphere_cr":
            r = float(_num(rng.uniform(0.5, 2.0)))
            return f"sphere({_vec(c)},{_num(r)})", ("coeffs", ref.ipns_sphere(c, r))
        if template == "inv_translator":
            spec = f"translator({_vec(c)})"
            return f"inv({spec}) * {spec}", ("one", float(c @ c))
        if template == "mirror_point":
            m = _rounded(rng.uniform(-1, 1, 3))
            r = float(_num(rng.uniform(1.0, 3.0)))
            text = f"apply(mirror_sphere({_vec(m)};{_num(r)}), point({_vec(c)}), reflection)"
            return text, ("point", ref.invert_point(c, m, r))
        if template == "bivector":
            scale = max(1.0, float(np.max(np.abs(c))))
            blades = rng.choice(_BIVECTORS, size=4, replace=False)
            coef = [float(_num(x)) for x in rng.uniform(-1.0, 1.0, 4) * scale]
            a = sum(ref.blade(b, x) for b, x in zip(blades[:2], coef[:2]))
            b = sum(ref.blade(bb, x) for bb, x in zip(blades[2:], coef[2:]))
            terms = [f"{_num(x)}*{BLADE_NAMES[bb]}" for bb, x in zip(blades, coef)]
            text = f"({terms[0]} + {terms[1]}) * ({terms[2]} + {terms[3]})"
            return text, ("coeffs", ref.gp(a, b))
        if template == "dual_plane":
            n = _rounded(_unit(rng, 1)[0])
            d = float(_num(float(n @ c)))
            return f"dual(plane({_vec(n)},{_num(d)})) ^ einf", ("zero", d)
        raise ValueError(template)

    def failed_call(self, index: int) -> Outcome:
        far = self.items[index][1]
        return Outcome(1, 1, 0 if far else 1, 0.0)

    def check(self, index: int, text: str) -> Outcome:
        key = (index, text)
        if key not in self._cache:
            ok = _eval_ok(self.items[index][0][1], text)
            far = self.items[index][1]
            self._cache[key] = Outcome(1, 0, 0, 1.0) if ok else Outcome(1, 1, 0 if far else 1, 0.0)
        return self._cache[key]


def _eval_ok(expected, text: str) -> bool:
    try:
        got = ref.from_entries(json.loads(text)["coefficients"])
    except (ValueError, KeyError, TypeError):
        return False
    if not np.all(np.isfinite(got)):
        return False
    kind = expected[0]
    if kind == "scalar":
        _, value, c, q = expected
        want = ref.blade(0, value)
        # <P(c) P(q)> carries |c|^2 and |q|^2 in its terms.
        return ref.close_coeffs(got, want, scale=1.0 + float(c @ c + q @ q))
    if kind == "point":
        return bool(ref.points_match(got, expected[1])[0])
    if kind == "coeffs":
        return ref.close_coeffs(got, expected[1])
    if kind == "one":
        return ref.close_coeffs(got, ref.blade(0, 1.0), scale=1.0 + expected[1])
    if kind == "zero":
        return bool(np.max(np.abs(got), initial=0.0) <= ref.RTOL * (1.0 + abs(expected[1])))
    raise ValueError(kind)


# -- train ---------------------------------------------------------------------

TRAIN_SAMPLES = 200  # `ga train --n`
# `ga train --seed`, the same for every benchmark seed: the epochs to
# convergence vary by about ±7% with the training set, which would spread
# train_s across seeds by more than the program's speed does.
TRAIN_SEED = 0
TRAIN_RTOL = 1e-3
LOSS_LIMIT = 1e-8
EPOCH_LIMIT = 5000


@dataclass
class _Target:
    spec: str
    odd: bool
    image: object  # closed-form map on Euclidean points


TRAIN_TARGETS = (
    _Target("translator(0.5,-0.25,1)", False, lambda p: p + np.array([0.5, -0.25, 1.0])),
    _Target("rotor(e12,0.9)", False, lambda p: ref.rotate(p, (0, 1), 0.9)),
    _Target("motor(e12,0.7,1,0,-0.5)", False, lambda p: ref.move_point(p, (0, 1), 0.7, [1.0, 0.0, -0.5])),
    _Target("mirror_sphere(0,0,0;1)", True, lambda p: ref.invert_point(p, [0.0, 0.0, 0.0], 1.0)),
)


class TrainWorkload(Workload):
    """`ga train --n 200 --seed 0` on the four criterion-10 targets; the
    learned weights must reproduce each target's closed-form action on
    held-out points drawn from the benchmark seed."""

    def __init__(self, workdir: Path, seed: int, targets=TRAIN_TARGETS):
        rng = np.random.default_rng([seed, 2])
        self.targets = list(targets)
        held = rng.uniform(-2.0, 2.0, size=(256, 3))
        self.held_out = held[np.linalg.norm(held, axis=1) >= 0.5][:64]
        common = ["--n", str(TRAIN_SAMPLES), "--seed", str(TRAIN_SEED), "--format", "json"]
        commands = []
        for k, t in enumerate(self.targets):
            out = str(workdir / f"train{k}-{{pass}}.json")
            commands.append(Command(["train", "--versor", t.spec, *common, "--out", out], out))
        warm = ["train", "--versor", self.targets[0].spec, *common, "--epochs", "3"]
        super().__init__("train", "epochs", commands, warmup=[Command(warm)], epoch_clock=True)

    def failed_call(self, index: int) -> Outcome:
        return Outcome(1, 1, 1, 0.0)

    def check(self, index: int, text: str) -> Outcome:
        target = self.targets[index]
        try:
            doc = json.loads(text)
            epochs = int(doc["epochs"])
            w = ref.from_entries(doc["weight"])
            theta = ref.from_entries(doc["theta"])
            converged = doc["converged"] is True and float(doc["final_loss"]) < LOSS_LIMIT
        except (ValueError, KeyError, TypeError):
            return self.failed_call(index)
        if not converged or epochs > EPOCH_LIMIT:
            return self.failed_call(index)
        y = ref.neuron_output(w, theta, ref.embed(self.held_out), target.odd)
        if not np.all(ref.points_match(y, target.image(self.held_out), TRAIN_RTOL)):
            return self.failed_call(index)
        return Outcome(1, 0, 0, float(epochs))


WORKLOADS = {
    "train": TrainWorkload,
    "scene": SceneWorkload,
    "eval": EvalWorkload,
}
