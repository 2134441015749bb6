"""Acceptance suite: thirteen numbered criteria, one visible verdict line each.

Each test prints "[criterion NN] PASS/FAIL <description>" directly to the
terminal (bypassing capture) and then asserts, so a full run shows exactly
thirteen verdict lines regardless of pytest's capture settings.
"""

import json
import math
import time

import numpy as np
import pytest

from confga import (
    Scene,
    SingularWeightError,
    TrainConfig,
    apply,
    compose,
    embed_point,
    eval_expression,
    extract_point,
    fd_gradient,
    from_versor,
    generate_dataset,
    gradient,
    loss,
    motor,
    mv_entries,
    new_neuron,
    oracle_product,
    point_distance,
    read_scene,
    reflector_line,
    reflector_plane,
    reflector_point,
    reflector_sphere,
    render,
    rotor,
    scalor,
    train,
    translator,
    write_scene,
)
from confga import tolerance
from confga.conformal import ALG, E, e0, e1, e2, e3, einf, make_line
from confga.errors import GAError

from conftest import random_mv, run_ga

e12 = e1 ^ e2

SEED = 20260817


def _report(capsys, num: int, ok: bool, desc: str):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _euclid(p):
    return ALG.vector([p[0], p[1], p[2], 0.0, 0.0])


def test_criterion_01_cayley_table_matches_oracle(capsys):
    start = time.perf_counter()
    bad = 0
    for a in range(ALG.dim):
        for b in range(ALG.dim):
            got = ALG.blade(a) * ALG.blade(b)
            sign, bits = oracle_product(a, b, ALG)
            want = np.zeros(ALG.dim)
            want[bits] = float(sign)
            if not np.array_equal(got.coeffs, want):
                bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 1.0
    _report(capsys, 1, ok,
            f"all 1024 basis-blade products match the brute-force oracle exactly in {elapsed:.2f}s")


def test_criterion_02_null_model_identities(capsys):
    one = ALG.scalar(1.0)
    identities = [
        ("e0^2", e0 * e0),
        ("einf^2", einf * einf),
        ("e0 . einf", (e0 | einf) + one),
        ("E^2", E * E - one),
        ("e0 E", e0 * E + e0),
        ("E e0", E * e0 - e0),
        ("einf E", einf * E - einf),
        ("E einf", E * einf + einf),
    ]
    worst = max(residual.max_abs() for _, residual in identities)
    _report(capsys, 2, worst <= 1e-15,
            f"eight null-basis identities hold, worst residual {worst:.1e}")


def test_criterion_03_point_inner_product_is_distance(capsys):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    ok = True
    for _ in range(1000):
        p1 = rng.uniform(-5.0, 5.0, 3)
        p2 = rng.uniform(-5.0, 5.0, 3)
        P1, P2 = embed_point(p1), embed_point(p2)
        bound = 1e-12 * (1.0 + p1 @ p1 + p2 @ p2)
        err = abs((P1 | P2).scalar_part() + 0.5 * np.sum((p1 - p2) ** 2))
        null_err = abs((P1 | P1).scalar_part())
        worst = max(worst, err, null_err)
        ok = ok and err <= bound and null_err <= bound
    _report(capsys, 3, ok,
            f"P1.P2 = -d^2/2 and P^2 = 0 over 1000 random pairs, worst residual {worst:.1e}")


def test_criterion_04_opns_membership_and_duality(capsys):
    rng = np.random.default_rng(SEED)

    def build(kind, pts):
        mvs = [embed_point(p) for p in pts]
        if kind == "pair":
            return mvs[0] ^ mvs[1]
        if kind == "circle":
            return mvs[0] ^ mvs[1] ^ mvs[2]
        if kind == "sphere":
            return mvs[0] ^ mvs[1] ^ mvs[2] ^ mvs[3]
        if kind == "line":
            return mvs[0] ^ mvs[1] ^ einf
        return mvs[0] ^ mvs[1] ^ mvs[2] ^ einf

    counts = {"pair": 2, "circle": 3, "sphere": 4, "line": 2, "plane": 3}
    membership_ok = True
    for kind, npts in counts.items():
        for _ in range(30):
            pts = rng.uniform(-3.0, 3.0, (npts, 3))
            obj = build(kind, pts)
            for p in pts:
                x = embed_point(p)
                scale = x.max_abs() * obj.max_abs()
                membership_ok = membership_ok and (x ^ obj).is_zero(scale=scale)

    mismatches = 0
    for trial in range(500):
        kind = list(counts)[trial % 5]
        pts = rng.uniform(-3.0, 3.0, (counts[kind], 3))
        obj = build(kind, pts)
        dual = obj.dual()
        member = trial % 2 == 0
        p = pts[trial % counts[kind]] if member else rng.uniform(-3.0, 3.0, 3)
        x = embed_point(p)
        scale = x.max_abs() * obj.max_abs()
        by_wedge = (x ^ obj).is_zero(scale=scale)
        by_contraction = (x | dual).is_zero(scale=x.max_abs() * dual.max_abs())
        if by_wedge != member or by_contraction != member:
            mismatches += 1
    ok = membership_ok and mismatches == 0
    _report(capsys, 4, ok,
            f"generators lie on all 150 objects and OPNS/IPNS duality agreed on 500 trials "
            f"({mismatches} misclassified)")


def test_criterion_05_two_mirrors_make_a_rotor(capsys):
    rng = np.random.default_rng(SEED)

    def unit(v):
        return v / np.linalg.norm(v)

    worst = 0.0
    ok = True
    for _ in range(100):
        n1 = unit(rng.normal(size=3))
        n2 = unit(rng.normal(size=3))
        while np.linalg.norm(np.cross(n1, n2)) < 0.05:
            n2 = unit(rng.normal(size=3))
        p0 = rng.uniform(-2.0, 2.0, 3)
        got = compose([reflector_plane(n1, float(n1 @ p0)), reflector_plane(n2, float(n2 @ p0))])
        phi = math.acos(float(np.clip(n1 @ n2, -1.0, 1.0)))
        axis_plane = _euclid(n1) ^ _euclid(n2)
        want = compose([translator(-p0), rotor(axis_plane, 2.0 * phi), translator(p0)])
        err = min(np.max(np.abs(got.mv.coeffs - want.mv.coeffs)),
                  np.max(np.abs(got.mv.coeffs + want.mv.coeffs)))
        worst = max(worst, err)
        ok = ok and err <= 1e-12

    for _ in range(25):
        n = unit(rng.normal(size=3))
        d1, d2 = rng.uniform(-2.0, 2.0, 2)
        got = compose([reflector_plane(n, float(d1)), reflector_plane(n, float(d2))])
        want = translator(2.0 * (d2 - d1) * n)
        err = np.max(np.abs(got.mv.coeffs - want.mv.coeffs))
        worst = max(worst, err)
        ok = ok and err <= 1e-12
    _report(capsys, 5, ok,
            f"100 intersecting mirror pairs equal rotor(axis, 2*dihedral) and 25 parallel pairs "
            f"equal translator(2*gap), worst coefficient error {worst:.1e}")


def test_criterion_06_translator_and_scalor_closed_forms(capsys):
    rng = np.random.default_rng(SEED)

    def normalized(P):
        c0 = float(P.coeffs[0b10000] - P.coeffs[0b01000])
        return P / c0

    worst_t = worst_s = 0.0
    ok = True
    for _ in range(500):
        x = rng.uniform(-2.0, 2.0, 3)
        t = rng.uniform(-2.0, 2.0, 3)
        got = normalized(apply(translator(t), embed_point(x), "motion"))
        err = np.max(np.abs(got.coeffs - embed_point(x + t).coeffs))
        worst_t = max(worst_t, err)
        ok = ok and err <= 1e-12

        s = float(10.0 ** rng.uniform(-1.0, 1.0))
        c = rng.uniform(-1.0, 1.0, 3)
        got = normalized(apply(scalor(s, c), embed_point(x), "motion"))
        err = np.max(np.abs(got.coeffs - embed_point(c + s * (x - c)).coeffs))
        worst_s = max(worst_s, err)
        ok = ok and err <= 1e-10
    _report(capsys, 6, ok,
            f"500 trials each: translator exact to {worst_t:.1e} (<=1e-12), "
            f"scalor with s in [0.1,10] exact to {worst_s:.1e} (<=1e-10)")


def test_criterion_07_sphere_inversion_closed_form(capsys):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    ok = True
    trials = 0
    while trials < 300:
        c = rng.uniform(-1.0, 1.0, 3)
        r = float(rng.uniform(0.5, 2.0))
        x = rng.uniform(-3.0, 3.0, 3)
        if np.linalg.norm(x - c) < 1e-3:
            continue
        trials += 1
        got = extract_point(apply(reflector_sphere(c, r), embed_point(x), "reflection"))
        want = c + r * r * (x - c) / float((x - c) @ (x - c))
        err = float(np.max(np.abs(got - want)))
        worst = max(worst, err)
        ok = ok and err <= 1e-10
    _report(capsys, 7, ok,
            f"sandwich by a sphere matches c + r^2(x-c)/|x-c|^2 on 300 points, "
            f"worst error {worst:.1e}")


def test_criterion_08_motors_preserve_distances(capsys):
    rng = np.random.default_rng(SEED)
    cloud = rng.uniform(-3.0, 3.0, (20, 3))
    points = [embed_point(p) for p in cloud]
    want = np.array([[np.linalg.norm(a - b) for b in cloud] for a in cloud])
    worst = 0.0
    ok = True
    for _ in range(5):
        plane = _euclid(rng.normal(size=3)) ^ _euclid(rng.normal(size=3))
        v = motor(plane, float(rng.uniform(0.2, 2.8)), rng.uniform(-2.0, 2.0, 3))
        moved = [apply(v, P, "motion") for P in points]
        for i in range(20):
            for j in range(i + 1, 20):
                err = abs(point_distance(moved[i], moved[j]) - want[i, j])
                worst = max(worst, err)
                ok = ok and err <= 1e-10
    _report(capsys, 8, ok,
            f"5 random motors preserve all 190 pairwise distances of a 20-point cloud, "
            f"worst drift {worst:.1e}")


def test_criterion_09_exact_representability(capsys):
    rng = np.random.default_rng(SEED)
    line = make_line(embed_point([0.0, 1.0, 0.0]), embed_point([1.0, 1.0, 1.0]))
    operators = {
        "plane mirror": reflector_plane([1.0, -2.0, 0.5], 0.75),
        "sphere mirror": reflector_sphere([0.5, 0.0, -1.0], 1.5),
        "line mirror": reflector_line(line),
        "rotor": rotor(e12 + (e2 ^ e3), 1.1),
        "translator": translator([0.4, -1.0, 2.0]),
        "motor": motor(e12, 0.8, [1.0, 0.5, -0.25]),
        "scalor": scalor(2.5, [0.5, 0.5, 0.0]),
    }
    worst = 0.0
    ok = True
    for mode in ("twisted-adjoint", "paper-literal"):
        for name, v in operators.items():
            samples = generate_dataset(v, 50, seed=int(rng.integers(1 << 30)), convention=mode)
            value = loss(from_versor(v, mode), samples)
            worst = max(worst, value)
            ok = ok and value <= 1e-18

    # the point reflector is null (P^2 = 0): no inverse sandwich exists, so
    # the neuron must refuse it rather than return garbage
    degenerate = from_versor(reflector_point([1.0, 2.0, 3.0]))
    try:
        loss(degenerate, generate_dataset(reflector_plane([1, 0, 0], 0.0), 5, seed=1))
        refused = False
    except SingularWeightError:
        refused = True
    ok = ok and refused
    _report(capsys, 9, ok,
            f"7 operator families x 2 conventions reach loss <= 1e-18 (worst {worst:.1e}); "
            f"the null point reflector is refused")


def test_criterion_10_learnability_within_budget(capsys):
    tasks = {
        "translator": translator([0.5, -0.25, 1.0]),
        "rotor": rotor(e12, 0.9),
        "motor": motor(e12, 0.7, [1.0, 0.0, -0.5]),
        "inversion": reflector_sphere([0.0, 0.0, 0.0], 1.0),
    }
    start = time.perf_counter()
    finals = {}
    ok = True
    histories = {}
    for name, v in tasks.items():
        net = new_neuron(v.parity, seed=0)
        samples = generate_dataset(v, 200, seed=0)
        history = train(net, samples, TrainConfig(epochs=5000))
        histories[name] = history
        finals[name] = history[-1]
        ok = ok and len(history) - 1 <= 5000 and history[-1] < 1e-8
    elapsed = time.perf_counter() - start

    # deterministic per seed: an identical rerun reproduces the trajectory
    net = new_neuron("even", seed=0)
    rerun = train(net, generate_dataset(tasks["rotor"], 200, seed=0), TrainConfig(epochs=5000))
    ok = ok and rerun == histories["rotor"] and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in finals.items())
    _report(capsys, 10, ok,
            f"all four tasks learned from 200 samples within 5000 epochs ({detail}) "
            f"in {elapsed:.1f}s, bit-identical on rerun")


def test_criterion_11_analytic_gradient_matches_fd(capsys):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    ok = True
    generators = {
        "even": rotor(e12, 0.9),
        "odd": reflector_plane([0.0, 1.0, 1.0], 0.5),
    }
    for k in range(50):
        parity = "even" if k % 2 == 0 else "odd"
        mode = "twisted-adjoint" if k % 3 else "paper-literal"
        penalty = (0.0, 0.1, 0.5)[k % 3]
        net = new_neuron(parity, seed=k, mode=mode)
        net.w += rng.normal(0.0, 0.2, ALG.dim) * (net.w != 0.0)
        net.theta += rng.normal(0.0, 0.2, ALG.dim)
        samples = generate_dataset(generators[parity], 5 + (k % 3) * 10, seed=k, convention=mode)
        gw, gt, _ = gradient(net, samples, penalty=penalty)
        fw, ft, _ = fd_gradient(net, samples, penalty=penalty)
        err = max(
            float(np.max(np.abs(gw - fw))) / max(1.0, float(np.max(np.abs(fw)))),
            float(np.max(np.abs(gt - ft))) / max(1.0, float(np.max(np.abs(ft)))),
        )
        worst = max(worst, err)
        ok = ok and err <= 1e-5
    _report(capsys, 11, ok,
            f"analytic gradient matches central differences on 50 configurations, "
            f"worst relative error {worst:.1e}")


def test_criterion_12_combined_transforms(capsys):
    rng = np.random.default_rng(SEED)
    ok = True

    # glide reflection: mirror in a plane, slide parallel to it; squaring
    # cancels the mirror and leaves translation by twice the slide
    glide = compose([reflector_plane([0.0, 1.0, 0.0], 0.0), translator([0.8, 0.0, -0.3])])
    squared = compose([glide, glide])
    want = translator([1.6, 0.0, -0.6])
    glide_err = min(np.max(np.abs(squared.mv.coeffs - want.mv.coeffs)),
                    np.max(np.abs(squared.mv.coeffs + want.mv.coeffs)))
    ok = ok and glide_err <= 1e-12

    # screw motion: the rotor about an axis commutes with translation along it
    r = rotor(e12, 1.1)
    t = translator([0.0, 0.0, 1.7])
    screw_err = np.max(np.abs(compose([r, t]).mv.coeffs - compose([t, r]).mv.coeffs))
    ok = ok and screw_err <= 1e-12

    # quarter-turn rotoinversion has order four on points
    v = compose([rotor(e12, math.pi / 2.0), reflector_plane([0.0, 0.0, 1.0], 0.0)])
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(-3.0, 3.0, 3)
        X = embed_point(p)
        for _ in range(4):
            X = apply(v, X, "reflection")
        err = float(np.max(np.abs(extract_point(X) - p)))
        worst = max(worst, err)
        ok = ok and err <= 1e-10
    _report(capsys, 12, ok,
            f"glide^2 = translation ({glide_err:.1e}), screw factors commute ({screw_err:.1e}), "
            f"rotoinversion^4 fixes 100 points (worst {worst:.1e})")


def _expression_corpus(rng):
    texts = []
    for _ in range(70):
        mask = rng.random(ALG.dim) < 0.25
        coeffs = np.round(rng.uniform(-4.0, 4.0, ALG.dim), 3) * mask
        texts.append(render(ALG.mv(coeffs)))
    for _ in range(12):
        a, b, c = np.round(rng.uniform(-2.0, 2.0, 3), 3)
        ang = round(float(rng.uniform(0.1, 3.0)), 3)
        s = round(float(rng.uniform(0.2, 5.0)), 3)
        texts += [
            f"point({a}, {b}, {c})",
            f"rotor(e12 + e23, {ang})",
            f"translator({a}, {b}, {c})",
            f"motor(e13, {ang}, {c}, {a}, {b})",
            f"scalor({s}, {a}, {b}, {c})",
            f"mirror_sphere({a}, {b}, {c}; {s})",
            f"apply(translator({a},{b},{c}), point({b},{c},{a}), motion)",
            f"dual(point({a},{b},{c}) ^ point({b},{a},{c}) ^ einf)",
            f"~rotor(e12, {ang}) * rotor(e12, {ang})",
            f"grade((e1 + {s}*e2) * (e2 + {s}*e3), 2)",
            f"exp({ang} * e12) - rotor(e12, {round(2 * ang, 3)})",
            f"inv(mirror_plane(0, 1, 0, {a}))",
        ]
    return texts


def test_criterion_13_cli_and_parser_round_trips(capsys, tmp_path):
    rng = np.random.default_rng(SEED)
    texts = _expression_corpus(rng)
    assert len(texts) >= 100

    parser_ok = cli_ok = True
    for i, text in enumerate(texts):
        mv = eval_expression(text)
        canon = render(mv)
        again = eval_expression(canon)
        parser_ok = parser_ok and render(again) == canon and np.array_equal(again.coeffs, mv.coeffs)
        result = run_ga(["eval", text])
        cli_ok = cli_ok and result.exit_code == 0 and result.output == canon + "\n"
        if i % 10 == 0:
            as_json = run_ga(["eval", text, "--format", "json"])
            cli_ok = cli_ok and json.loads(as_json.output)["coefficients"] == mv_entries(mv)

    scenes_ok = True
    for i in range(10):
        objects = {
            f"obj{k}": random_mv(ALG, rng, scale=10.0 ** rng.integers(-2, 3))
            for k in range(int(rng.integers(1, 6)))
        }
        versors = {"v": rotor(e12, float(rng.uniform(0.1, 3.0))).mv,
                   "t": translator(rng.uniform(-2, 2, 3)).mv}
        scene = Scene(objects=objects, versors=versors,
                      tolerance_rel=1e-9 if i % 3 == 0 else None)
        first, second = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
        write_scene(scene, first)
        write_scene(read_scene(first), second)
        scenes_ok = scenes_ok and first.read_bytes() == second.read_bytes()

    ok = parser_ok and cli_ok and scenes_ok
    _report(capsys, 13, ok,
            f"{len(texts)} expressions reach a render fixed point and match the CLI byte for "
            f"byte; 10 scene files round-trip byte-exact")
