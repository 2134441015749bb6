"""confga benchmark: seeded `ga` workloads, end-to-end goodput, traced layers.

One workload run (the form BENCHMARK.json names), from the repository root:

    python3 bench/run.py --workload eval --seed 0 --seconds 30 --trace 0

prints human-readable lines and, last, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` gives the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.

Every workload with and without tracing, plus the traced per-call medians
next to the ROADMAP baselines:

    python3 bench/run.py --all --seed 0 --seconds 30

The program is imported from ./src; each workload runs in its own child
process with BLAS and OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0
EPOCH_BLOCK = 50
# The reference task's time (child.py) at which the figures are stated: about
# its least time on the 2-vCPU Xeon host the bounds were set on.
REFERENCE_S = 0.007

END_TO_END = {
    "setup_s": "s",
    "goodput_per_s": "1/s",
    "pass_s": "s",
    "unit_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# The workload-level names of the end-to-end metrics.
ALIASES = {
    "train": {"pass_s": "train_s", "goodput_per_s": "train_epochs_per_s"},
    "eval": {"goodput_per_s": "eval_exprs_per_s", "unit_p50_ms": "eval_p50_ms"},
}
# ROADMAP item-1 baselines (per-call) and where the traced median is read.
BASELINES = (
    ("geometric product", 9.7, "us", "algebra.gp.us", "eval"),
    ("outer product", 9.9, "us", "algebra.outer.us", "eval"),
    ("point sandwich", 17.0, "us", "versor.apply.us", "train"),
    ("embed_point", 24.0, "us", "conformal.embed_point.us", "train"),
    ("make_versor", 43.0, "us", "versor.make_versor.us", "eval"),
    ("classify (circle)", 282.0, "us", "conformal.classify.us.circle", "scene"),
    ("gradient, N=200", 1340.0, "us", "neuron.gradient.us", "train"),
    ("dataset generation, N=200", 9.2, "ms", "neuron.generate_dataset.ms", "train"),
)


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_info(root: Path, seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    commit = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "thread_pins": THREAD_PINS,
        "seed": seed,
        "commit": commit,
    }


def run_child(wl, workdir: Path, root: Path, env: dict, seconds: float, trace: bool, timeout: float) -> dict:
    job = {
        "commands": [{"argv": c.argv, "out": c.out} for c in wl.commands],
        "warmup": [{"argv": c.argv, "out": c.out} for c in wl.warmup],
        "seconds": seconds,
        "trace": trace,
        "epoch_clock": wl.epoch_clock,
        "record": str(workdir / "record.json"),
    }
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(job_path)], env=env, cwd=root,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"workload child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads((workdir / "record.json").read_text())


def score(wl, record: dict):
    """Check every call's output. Returns one pass's outcome, each command
    counted once with the worst of its calls, and per command index its
    correct units and the times of its untraced calls."""
    from workloads import Outcome

    worst = [None] * len(wl.commands)
    units = [0.0] * len(wl.commands)
    timed = [[] for _ in wl.commands]
    for index, p, elapsed, status, text_id, phase, ticks, start in record["calls"]:
        if status != "ok":
            outcome = wl.failed_call(index)
        else:
            out = wl.commands[index].out
            if out is None:
                outcome = wl.check(index, record["texts"][text_id])
            else:
                path = Path(out.replace("{pass}", str(p)))
                outcome = wl.check(index, path.read_text()) if path.exists() else wl.failed_call(index)
        prior = worst[index]
        if prior is None or (outcome.failed, outcome.failed_near) > (prior.failed, prior.failed_near):
            worst[index] = outcome
            units[index] = outcome.units
        if phase == "untraced":
            timed[index].append((start, elapsed, ticks))
    total = Outcome()
    for outcome in worst:
        total += outcome
    return total, units, timed


def reference_around(reference: list[float], at: list[float]):
    """The reference task's time at a moment: the mean of the samples just
    before and just after it."""

    def around(moment: float) -> float:
        i = bisect.bisect_left(at, moment)
        near = reference[max(0, i - 1):i + 1]
        return sum(near) / len(near)

    return around


def scaled_times(wl, timed, around) -> list[float]:
    """Each command's time at the reference speed.

    The host's speed changes every few seconds and drifts between runs, so
    every timing is divided by the reference task's time around it, which
    moves with the host in the same way, and the median of these ratios is
    multiplied by REFERENCE_S. Commands on equal shares of one input
    (`wl.replica`) pool their ratios per item. A training call lasts seconds,
    so its epochs are timed in blocks of EPOCH_BLOCK at the epoch stamps, and
    the rest of the call on its own."""
    ratios: dict = {}
    for i, calls in enumerate(timed):
        key, size = wl.replica(i)
        for start, elapsed, t in calls:
            if len(t) > EPOCH_BLOCK:
                for j in range(0, len(t) - EPOCH_BLOCK, EPOCH_BLOCK):
                    block = t[j + EPOCH_BLOCK] - t[j]
                    ratios.setdefault((key, "epoch"), []).append(block / EPOCH_BLOCK / around(t[j] + block / 2))
                elapsed -= t[-1] - t[0]
            ratios.setdefault(key, []).append(elapsed / size / around(start + elapsed / 2))
    times = []
    for i, calls in enumerate(timed):
        key, size = wl.replica(i)
        epochs = max(len(calls[0][2]) - 1, 0) if (key, "epoch") in ratios else 0
        ratio = statistics.median(ratios[key]) * size
        if epochs:
            ratio += statistics.median(ratios[key, "epoch"]) * epochs
        times.append(ratio * REFERENCE_S)
    return times


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_workload(wl, root: Path, workdir: Path, seconds: float, trace: bool, started: float | None = None) -> dict:
    started = time.monotonic() if started is None else started
    timeout = max(10.0, RUN_LIMIT_S - (time.monotonic() - started))
    record = run_child(wl, workdir, root, child_env(root), seconds, trace, timeout)
    total, units, timed = score(wl, record)
    result = {
        "correct": total.attempted > 0 and total.failed_near == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "failed_near": total.failed_near,
        "calls": sum(len(c) for c in timed),
        "unit": wl.unit,
    }
    if trace:
        result["metrics"] = record["per_layer"]
    else:
        around = reference_around(record["reference"], record["reference_at"])
        best = scaled_times(wl, timed, around)
        setup = [t / around(at) * REFERENCE_S for t, at in zip(record["setup"], record["setup_at"])]
        per_unit = [t / u for t, u in zip(best, units) if u]
        result["passes"] = sum(1 for phase, _, _ in record["passes"] if phase == "untraced")
        result["metrics"] = {
            "setup_s": statistics.median(setup),
            "goodput_per_s": sum(units) / sum(best),
            "pass_s": sum(best),
            "unit_p50_ms": statistics.median(per_unit) * 1e3 if per_unit else 0.0,
            "peak_rss_mb": record["max_rss_kb"] / 1024.0,
        }
        result["setup_samples"] = len(record["setup"])
        result["reference_ms"] = (statistics.median(record["reference"]) * 1e3, len(record["reference"]))
        result["p99_ms"] = _percentile([e for c in timed for _, e, _ in c], 0.99) * 1e3
        result["by_command"] = {
            label: sum(units[i] for i in idx) / sum(best[i] for i in idx) for label, idx in wl.groups.items()
        }
    return result


def units_of(trace: bool) -> dict:
    from spans import PER_LAYER_UNITS

    return PER_LAYER_UNITS if trace else END_TO_END


def describe(name: str, result: dict, trace: bool) -> list[str]:
    """Human-readable lines: metric, value, unit, and its workload-level name."""
    units = units_of(trace)
    lines = []
    for key, value in result["metrics"].items():
        alias = "" if trace else ALIASES.get(name, {}).get(key, "")
        note = ""
        if key in ("unit_p50_ms", "pass_s", "goodput_per_s"):
            note = f"  (n={result['calls']} calls, {result.get('passes', 0)} passes, unit: {result['unit']})"
        elif key == "setup_s":
            note = f"  (median of {result['setup_samples']} fresh imports)"
        lines.append(f"{name:16s} {key:34s} {value:14.6g} {units[key]:6s} {alias}{note}")
    if not trace:
        host_ms, samples = result["reference_ms"]
        lines.append(f"{name:16s} {'reference_task_ms':34s} {host_ms:14.6g} {'ms':6s} (median of {samples} samples; "
                     f"the times above are at {REFERENCE_S * 1e3:g} ms)")
        for label, value in result["by_command"].items():
            lines.append(f"{name:16s} {label:34s} {value:14.6g} {'1/s':6s} (over those commands' times)")
        if name == "eval":
            lines.append(f"{name:16s} {'p99_ms':34s} {result['p99_ms']:14.6g} {'ms':6s} eval_p99_ms"
                         f"  (n={result['calls']} calls)")
        ratio = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
        lines.append(f"{name:16s} {'failed_ratio':34s} {ratio:14.6g} {'ratio':6s} "
                     f"failed {result['failed']} of {result['attempted']} attempted in one pass, "
                     f"each command's worst call ({result['failed_near']} near the origin)")
    return lines


def final_line(result: dict, trace: bool) -> str:
    units = units_of(trace)
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in result["metrics"].items()},
    })


def _workdir(root: Path, tag: str) -> Path:
    path = root / ".bench_work" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=False)
    return path


def single(args, root: Path) -> int:
    from workloads import WORKLOADS

    started = time.monotonic()
    workdir = _workdir(root, f"{args.workload}-{args.seed}")
    try:
        wl = WORKLOADS[args.workload](workdir, args.seed)
        result = run_workload(wl, root, workdir, args.seconds, bool(args.trace), started=started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("# machine " + json.dumps(machine_info(root, args.seed)))
    for line in describe(args.workload, result, bool(args.trace)):
        print(line)
    print(final_line(result, bool(args.trace)), flush=True)
    return 0


def report(args, root: Path) -> int:
    from workloads import WORKLOADS

    print("# machine " + json.dumps(machine_info(root, args.seed)))
    results: dict = {}
    for name, factory in WORKLOADS.items():
        for trace in (False, True):
            workdir = _workdir(root, f"{name}-{args.seed}")
            try:
                result = run_workload(factory(workdir, args.seed), root, workdir, args.seconds, trace)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            results.setdefault(name, {})["per_layer" if trace else "end_to_end"] = result
            for line in describe(name, result, trace):
                print(line, flush=True)
    print()
    print("ROADMAP item-1 baselines against traced per-call medians:")
    for label, base, unit, metric, name in BASELINES:
        got = results[name]["per_layer"]["metrics"][metric]
        ratio = got / base
        verdict = "agrees" if 2 / 3 <= ratio <= 1.5 else "DISAGREES"
        print(f"  {label:28s} baseline {base:9.4g} {unit:2s}  traced {got:9.4g} {unit:2s}  "
              f"({metric} on {name}, x{ratio:.2f}) {verdict}")
    print("  Multivector constructor      baseline       1.5 us  not traced (no span around the constructor)")
    print("A traced median includes the wrapper cost of every span nested in it (a point sandwich holds two\n"
          "traced products, make_versor three), and the baselines were taken on another machine; compare\n"
          "ratios across rows, and trace.overhead_ratio per workload, before reading a disagreement as a change.")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="train, scene or eval")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if (args.workload is None) == (not args.all):
        parser.error("give exactly one of --workload or --all")

    root = Path.cwd()
    if not (root / "src" / "confga" / "cli.py").is_file():
        print(f"error: {root} has no src/confga; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    try:
        return report(args, root) if args.all else single(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
