"""Smoke self-test of the benchmark at tiny size (about half a minute).

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, traced and untraced; that a deliberately wrong output is
counted as failed; that the reference algebra agrees with the closed forms
it stands in for; and that a directory without the program makes the
benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "train": lambda d, s: workloads.TrainWorkload(d, s, targets=workloads.TRAIN_TARGETS[1:2]),
    "scene": lambda d, s: workloads.SceneWorkload(d, s, n_objects=64),
    "eval": lambda d, s: workloads.EvalWorkload(d, s, n_exprs=40),
}


def check_reference() -> None:
    rng = np.random.default_rng(0)
    p = rng.uniform(-3, 3, size=(16, 3))
    motor = ref.motor((0, 2), 0.8, [1.0, -2.0, 0.5])
    moved = ref.embed(p) @ ref.action_matrix(motor, odd=False).T
    assert np.allclose(ref.extract(moved), ref.move_point(p, (0, 2), 0.8, [1.0, -2.0, 0.5]))
    mirror = ref.ipns_sphere([0.5, 0.0, -1.0], 1.5)
    inverted = ref.embed(p) @ ref.action_matrix(mirror, odd=True).T
    assert np.allclose(ref.extract(inverted), ref.invert_point(p, [0.5, 0.0, -1.0], 1.5))
    a, b = ref.embed(p[0]), ref.embed(p[1])
    assert np.isclose(ref.gp(a, b)[0], -0.5 * np.sum((p[0] - p[1]) ** 2))
    assert np.allclose(ref.gp(ref.inverse(motor), motor), ref.blade(0))


def check_contract(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END, (e2e, run.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    from spans import PER_LAYER_UNITS

    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def corrupt(name: str, index: int, text: str) -> str:
    """The same output with one result made wrong."""
    doc = json.loads(text)
    if name == "scene" and workloads.SCENE_OPS[index % len(workloads.SCENE_OPS)] == "classify":
        entry = doc[next(iter(doc))]
        entry["kind"] = "circle" if entry.get("kind") == "line" else "line"
    elif name == "scene":  # transform
        entry = doc["objects"][next(iter(doc["objects"]))]
        blade = next(iter(entry))
        entry[blade] += 7.0
    elif name == "train":
        doc["weight"]["1"] = doc["weight"].get("1", 0.0) + 7.0
    else:
        doc["coefficients"]["1"] = doc["coefficients"].get("1", 0.0) + 7.0
    return json.dumps(doc)


def check_workload(name: str, spec: dict) -> None:
    names = {False: [m["name"] for m in spec["end_to_end"]], True: [m["name"] for m in spec["per_layer"]]}
    for trace in (False, True):
        workdir = ROOT / ".bench_work" / f"selftest-{name}-{int(trace)}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            wl = TINY[name](workdir, 1)
            result = run.run_workload(wl, ROOT, workdir, 0.5, trace)
            line = json.loads(run.final_line(result, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == names[trace], f"{name}: metric names differ"
            units = run.units_of(trace)
            for key, entry in line["metrics"].items():
                assert entry["unit"] == units[key] and np.isfinite(entry["value"]), (name, key, entry)
            assert line["correct"] and line["attempted"] >= 1, (name, line)
            if trace:
                spans_file = workdir.with_name(f"spans-selftest-{name}.npz")
                assert spans_file.is_file(), f"{name}: no spans written"
                spans_file.unlink()
                continue
            assert all(entry["value"] > 0 for entry in line["metrics"].values()), (name, line)
            # A wrong output must be counted: corrupt the first output of every
            # kind of command in a pass (at most three) and re-score.
            record = run.run_child(wl, workdir, ROOT, run.child_env(ROOT), 0.1, False, 120)
            first, *_ = run.score(wl, record)
            before = first
            corrupted = set()
            for index, p, _, status, text_id, _, _, _ in record["calls"][:min(3, len(wl.commands))]:
                assert status == "ok", (name, index, status)
                key = text_id if wl.commands[index].out is None else (index, p)
                if key in corrupted:  # equal outputs share one captured text
                    continue
                corrupted.add(key)
                if wl.commands[index].out is None:
                    record["texts"][text_id] = corrupt(name, index, record["texts"][text_id])
                else:
                    path = Path(wl.commands[index].out.replace("{pass}", str(p)))
                    path.write_text(corrupt(name, index, path.read_text()))
                after, *_ = run.score(wl, record)
                assert after.failed > before.failed, (name, index, before, after)
                before = after
            ratio = after.failed / after.attempted
            print(f"  {name}: metrics ok; corrupted output -> failed_ratio {ratio:.4g} "
                  f"({after.failed} of {after.attempted}, was {first.failed})")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory(spec: dict) -> None:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([*spec["command"], "--workload", "eval", "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_contract(spec)
    print("BENCHMARK.json matches the emitted metric names and units")
    check_reference()
    print("reference algebra agrees with the closed forms")
    for name in TINY:
        check_workload(name, spec)
    check_bare_directory(spec)
    print("bare directory: non-zero exit, no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
