"""Workload child: drives `ga` in-process, one client, closed loop.

    python3 bench/child.py JOB.json

JOB.json (written by run.py) lists the `ga` argument vectors of one pass,
the warm-up commands, the time budget and whether to trace. The child
repeats the pass's calls in order until the budget is spent and at least
one whole pass is done, timing every call, and writes a record of
timings, exit statuses and captured output for run.py to check.

Untraced, the child also samples the host (see `_Sampler`): between calls
it times a fresh interpreter's `import confga.cli` at most every
SETUP_EVERY_S seconds, and between calls and between training epochs it
times a fixed reference task of the benchmark's own code at most every
REFERENCE_EVERY_S seconds. Time spent in the reference task is kept out
of every other timing, and every sample, call and epoch is stamped on
that clock, so run.py can set each timing beside the reference task's
time around it. With `epoch_clock` set the child stamps the start of
every training epoch (confga.neuron.train calls neuron.gradient once per
epoch).

With tracing on, the first half of the budget runs untraced and the
second half traced, so the ratio of their pass times is the tracing
overhead; the spans are written at the end to
.bench_work/spans-<workload>-<seed>.npz.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

PHASES = ("untraced", "traced")
SETUP_EVERY_S = 2.0
REFERENCE_EVERY_S = 0.25
REFERENCE_POINTS = [[0.25 * k, 1.0 - 0.5 * k, 0.125 * k * k] for k in range(48)]
SETUP_CODE = "import time; t = time.perf_counter(); import confga.cli; print(repr(time.perf_counter() - t))"


# One capture buffer per stream for the child's whole life: click caches a
# wrapper per stdout object and keeps a fresh buffer per call alive forever.
_OUT, _ERR = io.StringIO(), io.StringIO()


def _call(main, argv: list[str], sampler=None) -> tuple[float, str, str]:
    """Run one `ga` command; its time leaves out the sampler's reference task."""
    paused = sampler.paused if sampler else 0.0
    for buf in (_OUT, _ERR):
        buf.seek(0)
        buf.truncate()
    status = "ok"
    with contextlib.redirect_stdout(_OUT), contextlib.redirect_stderr(_ERR):
        start = time.perf_counter()
        try:
            main(argv, standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                status = f"exit:{exc.code}"
        except Exception as exc:  # the program's failure is the measurement
            status = f"raise:{type(exc).__name__}"
        elapsed = time.perf_counter() - start
    if sampler:
        elapsed -= sampler.paused - paused
    return elapsed, status, _OUT.getvalue()


def _setup_time() -> float:
    """Import time of confga.cli (Cl(4,1) tables included) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=os.environ, capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"importing confga.cli failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class _Sampler:
    """Samples of the host's speed taken through the run.

    The reference task is fixed work of the benchmark's own code with the
    program's mix: interpreted Python, JSON and small numpy products. Its
    time moves with the host's speed and with nothing the program does, so
    run.py divides the program's times by it. `paused` is the total time
    spent in it, which callers subtract from their own timings; `clock()`
    is the time without it."""

    def __init__(self):
        import ref
        from workloads import entries

        self._embed, self._from_entries, self._gp, self._entries = ref.embed, ref.from_entries, ref.gp, entries
        self.reference: list[float] = []
        self.reference_at: list[float] = []
        self.setup: list[float] = []
        self.setup_at: list[float] = []
        self.paused = 0.0
        self._next_reference = self._next_setup = 0.0
        self.reference_task()  # warm-up

    def reference_task(self) -> None:
        for row in self._embed(REFERENCE_POINTS):
            y = self._from_entries(json.loads(json.dumps(self._entries(row))))
            self._gp(y, y)

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def poll(self, setup: bool = False) -> None:
        now = time.perf_counter()
        if setup and now >= self._next_setup:
            self.setup_at.append(now - self.paused)
            self.setup.append(_setup_time())
            now = time.perf_counter()
            self._next_setup = now + SETUP_EVERY_S
        if now >= self._next_reference:
            self.reference_task()
            end = time.perf_counter()
            self.reference.append(end - now)
            self.reference_at.append(now - self.paused)
            self.paused += end - now
            self._next_reference = end + REFERENCE_EVERY_S


def _epoch_clock(ticks: array, sampler: _Sampler) -> None:
    """Stamp the start of every epoch on a clock that leaves out the
    sampler's reference task, which may run between epochs."""
    import confga.neuron as neuron

    inner = neuron.gradient

    def gradient(*args, **kwargs):
        sampler.poll()
        ticks.append(sampler.clock())
        return inner(*args, **kwargs)

    neuron.gradient = gradient


class _Recorder:
    """Call records in flat arrays and captured outputs deduplicated, so the
    harness adds little to the child's peak RSS, which is a metric."""

    def __init__(self):
        self.index = array("i")
        self.pass_no = array("i")
        self.elapsed = array("d")
        self.status = array("i")
        self.text = array("i")
        self.phase = array("b")
        self.first_tick = array("i")
        self.ticks = array("d")
        self.started = array("d")
        self.sampler: _Sampler | None = None
        self.statuses: dict[str, int] = {}
        self.texts: dict[str, int] = {}
        self.passes: list[list] = []

    def run(self, main, commands, seconds: float, first_pass: int, phase: int, partial: bool = True) -> int:
        deadline = time.perf_counter() + seconds
        p = first_pass
        while p == first_pass or time.perf_counter() < deadline:
            total = 0.0
            for i, cmd in enumerate(commands):
                if partial and p > first_pass and time.perf_counter() >= deadline:
                    return p + 1  # a partial pass: its calls are recorded, but it is no whole pass
                if self.sampler:
                    self.sampler.poll(setup=True)
                argv = [a.replace("{pass}", str(p)) for a in cmd["argv"]]
                self.first_tick.append(len(self.ticks))
                self.started.append(self.sampler.clock() if self.sampler else 0.0)
                elapsed, status, text = _call(main, argv, self.sampler)
                total += elapsed
                self.index.append(i)
                self.pass_no.append(p)
                self.elapsed.append(elapsed)
                self.status.append(self.statuses.setdefault(status, len(self.statuses)))
                self.text.append(-1 if cmd["out"] is not None else self.texts.setdefault(text, len(self.texts)))
                self.phase.append(phase)
            self.passes.append([PHASES[phase], p, total])
            p += 1
        return p

    def calls(self) -> list[list]:
        statuses = list(self.statuses)
        ends = [*self.first_tick[1:], len(self.ticks)]
        return [[i, p, e, statuses[s], t, PHASES[ph], self.ticks[a:b].tolist(), start]
                for i, p, e, s, t, ph, a, b, start in zip(self.index, self.pass_no, self.elapsed, self.status,
                                                          self.text, self.phase, self.first_tick, ends, self.started)]


def main() -> None:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    from confga.cli import main as ga

    for cmd in job["warmup"]:
        _call(ga, cmd["argv"])
    rec = _Recorder()
    record: dict = {}
    if job["trace"]:
        import spans

        half = job["seconds"] / 2.0
        next_pass = rec.run(ga, job["commands"], half, 0, 0)
        tracer = spans.Tracer()
        traced_ga = spans.instrument(tracer)
        # whole passes only, since per-layer counts are per pass
        rec.run(traced_ga, job["commands"], half, next_pass, 1, partial=False)
        times = {ph: [t for name, _, t in rec.passes if name == ph] for ph in ("untraced", "traced")}
        overhead = statistics.median(times["traced"]) / statistics.median(times["untraced"])
        record["per_layer"] = spans.summarize(tracer, len(times["traced"]), overhead)
        workdir = Path(job["record"]).parent  # .bench_work/<workload>-<seed>-<pid>, removed after the run
        tracer.write(workdir.parent / f"spans-{workdir.name.rsplit('-', 1)[0]}.npz")
    else:
        rec.sampler = _Sampler()
        if job["epoch_clock"]:
            _epoch_clock(rec.ticks, rec.sampler)
        rec.run(ga, job["commands"], job["seconds"], 0, 0)
        sampler = rec.sampler
        record.update(setup=sampler.setup, setup_at=sampler.setup_at, reference=sampler.reference,
                      reference_at=sampler.reference_at)
    max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.update(calls=rec.calls(), texts=list(rec.texts), passes=rec.passes, max_rss_kb=max_rss_kb)
    with open(job["record"], "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
