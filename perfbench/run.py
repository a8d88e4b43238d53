"""Benchmark of vne: wall time, CPU time, set-up time and peak memory per workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; vne is imported from ./src. Each
repetition of the workload runs in its own interpreter (worker.py) with BLAS
pinned to one thread, one after another, until the next would end past
--seconds of measured time, but at least MIN_REPS times. Set-up is sampled at
least SETUP_SAMPLES times.
The speed probe (probe.py) runs beside them, on another core, throughout.

Workloads (see workloads.py):
  small-trials     vne verify, the 12 cheap suites at their bundled trial counts
  inclusion-heavy  vne verify, the 4 inclusion-side suites at bundled counts
  d-sweep          relent, index and dual calls at n = 2 ... 8, checked
                   against a second route or a known value

With --trace 0 the result holds the end-to-end metrics, medians over the
repetitions. The three times (wall_s, cpu_s, setup_s) are given at the
probe's reference speed: each measured interval is multiplied by the probe's
rate over that same interval and divided by probe.REFERENCE_RATE, so that a
run made while the shared host is slow reads like one made while it is fast.
Wall and set-up times use the probe's ticks per wall second, CPU time its
ticks per second of its own CPU time. A program that kept both cores busy
would slow the probe and read faster in wall_s than it is; cpu_s, which
time-sharing does not move, would still show its cost. The measured times
and the probe rate are printed beside them.

With --trace 1 it alternates untraced and traced repetitions and holds the
per-layer metrics, as measured: calls and self time of each wrapped function
(layers.py), per-suite ms per trial, and the tracing overhead.
Every line but the last is for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from worker import THREAD_PINS  # noqa: E402

SETUP_SAMPLES = 5
MIN_REPS = 3  # a median of fewer would follow one slow repetition
RUN_LIMIT_S = 150.0  # no repetition is started that is expected to end later
DEADLINE_S = 170.0  # a worker still running then is killed and the run fails
ALL_SUITES = workloads.SMALL_SUITES + workloads.HEAVY_SUITES


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env.pop("VNE_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn(root: str, env: dict, work_dir: str, workload: str, seed: int, mode: str,
          deadline: float) -> dict:
    """Run one worker to completion and return its result with setup_s added."""
    rep_dir = tempfile.mkdtemp(prefix=f"{mode}-", dir=work_dir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), root, workload, str(seed),
           mode, rep_dir]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(0.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker still running after {DEADLINE_S:.0f} s of the run")
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    rep = json.loads(lines[-1])
    rep["spawned"] = spawned
    rep["setup_s"] = rep["t_start"] - spawned
    return rep


class Probe:
    """The speed probe in its own process for the life of a with-block.

    Leaving the block stops the probe and waits for it, also on an error;
    ``rates`` then gives its speed over any interval within.
    """

    def __init__(self, env: dict):
        self.env = env
        self.wall: list[float] = []  # monotonic time at each tick boundary
        self.cpu: list[float] = []  # the probe's CPU time at the same boundaries
        self.proc = None

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py")],
                                     env=self.env, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self._stop()
            raise BenchError("speed probe failed to start")
        return self

    def _stop(self) -> str:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out

    def __exit__(self, *exc) -> None:
        out = self._stop()
        if exc[0] is None:
            lines = out.strip().splitlines()
            if self.proc.returncode != 0 or not lines:
                raise BenchError(f"speed probe exited {self.proc.returncode}")
            self.wall, self.cpu = json.loads(lines[-1])

    def _at(self, when: float) -> tuple[float, float]:
        """Ticks done and probe CPU time by a monotonic time, interpolated in a tick."""
        i = bisect.bisect(self.wall, when)
        if not 0 < i < len(self.wall):
            raise BenchError("a timed interval falls outside the speed probe's run")
        part = (when - self.wall[i - 1]) / (self.wall[i] - self.wall[i - 1])
        return i + part, self.cpu[i - 1] + part * (self.cpu[i] - self.cpu[i - 1])

    def rates(self, start: float, end: float) -> tuple[float, float]:
        """Probe ticks per wall second and per probe CPU second between two times."""
        (done0, cpu0), (done1, cpu1) = self._at(start), self._at(end)
        return (done1 - done0) / (end - start), (done1 - done0) / (cpu1 - cpu0)


def at_reference(seconds: float, rate: float) -> float:
    """An interval measured at a probe rate, rescaled to the reference speed."""
    return seconds * rate / probe.REFERENCE_RATE


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repetitions by mode and set-up samples, each with its probe rate."""
    env = worker_env(root)
    base = os.path.join(root, ".perfbench-run")
    os.makedirs(base, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
    modes = ("plain", "traced") if trace else ("plain",)
    reps = {m: [] for m in modes}
    setups = []
    started = time.monotonic()
    deadline = started + DEADLINE_S
    try:
        with Probe(env) as speed:
            measured = 0.0
            for i in itertools.count():
                mode = modes[i % len(modes)]
                rep = spawn(root, env, work_dir, workload, seed, mode, deadline)
                reps[mode].append(rep)
                setups.append(rep)
                measured += rep["wall_s"]
                longest = max(r["wall_s"] for rs in reps.values() for r in rs)
                if all(reps.values()) and (
                        (i + 1 >= MIN_REPS and measured + longest > seconds)
                        or time.monotonic() - started + longest > RUN_LIMIT_S):
                    break
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(root, env, work_dir, workload, seed, "setup", deadline))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not os.listdir(base):
            os.rmdir(base)
    for rs in reps.values():
        for r in rs:
            r["rate"], r["cpu_rate"] = speed.rates(r["t_start"], r["t_start"] + r["wall_s"])
    return {"reps": reps, "setups": [
        (r["setup_s"], speed.rates(r["spawned"], r["t_start"])[0]) for r in setups]}


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(plain: list, setups: list) -> dict:
    """Medians; times at the reference speed, ``setups`` as (seconds, rate) pairs."""
    return {
        "wall_s": (median([at_reference(r["wall_s"], r["rate"]) for r in plain]), "s"),
        "cpu_s": (median([at_reference(r["cpu_s"], r["cpu_rate"]) for r in plain]), "s"),
        "setup_s": (median([at_reference(s, rate) for s, rate in setups]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MB"),
    }


def per_layer(workload: str, plain: list, traced: list) -> tuple[dict, list]:
    """Per-layer metrics and the names of wrapped targets the program lacks."""
    out = {}
    absent = sorted({name for r in traced for name in r["layers"]["absent"]})
    for layer, _, path in layers.TARGETS:
        key = layers.target_key(layer, path)
        if key in absent:
            continue
        out[f"{key}.calls"] = (median([r["layers"]["calls"][key] for r in traced]), "count")
        out[f"{key}.self_s"] = (median([r["layers"]["self_s"][key] for r in traced]), "s")
    if "specfile.load_spec" not in absent:
        out["specfile.load_spec.s"] = (
            median([r["layers"]["total_s"]["specfile.load_spec"] for r in traced]), "s")
    runs = out.get("inclusion.index_report.calls", (None,))[0]
    requests = out.get("inclusion.Inclusion.index_report.calls", (None,))[0]
    if runs is not None and requests is not None:
        out["inclusion.index_computations_per_request"] = (
            runs / requests if requests else 0.0, "ratio")
    for suite in ALL_SUITES:
        # 0 for a suite outside the workload; absent if run_suite no longer reports
        times = [r["suite_ms"][suite] for r in plain if suite in r["suite_ms"]]
        if not times and suite in workloads.VERIFY_SUITES.get(workload, ()):
            absent.append(f"harness.{suite}.ms_per_trial")
            continue
        out[f"harness.{suite}.ms_per_trial"] = (median(times), "ms")
    out["cli.report_bytes"] = (median([r["report_bytes"] for r in plain]), "bytes")
    untraced = median([r["wall_s"] for r in plain])
    traced_wall = median([r["wall_s"] for r in traced])
    out["trace.untraced_wall_s"] = (untraced, "s")
    out["trace.traced_wall_s"] = (traced_wall, "s")
    out["trace.overhead_ratio"] = (traced_wall / untraced, "ratio")
    return out, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "vne", "__init__.py")):
        print(f"error: no vne sources under {root}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        data = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = [r for rs in data["reps"].values() for r in rs]
    plain = data["reps"]["plain"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = {json.dumps(r["digests"], sort_keys=True) for r in reps}
    correct = failed == 0 and len(digests) == 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {', '.join(f'{m}={len(rs)}' for m, rs in data['reps'].items())}  "
          f"set-up samples {len(data['setups'])}")
    print(f"environment {json.dumps(plain[0]['env'], sort_keys=True)}")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for r in reps:
        for msg in r["failures"]:
            print(f"  failure: {msg}")
    if len(digests) != 1:
        print("  failure: report digests differ between repetitions")
    if plain[0]["digests"]:
        d = plain[0]["digests"]
        print(f"report digest {d['all']}")
        for name, h in d["files"].items():
            print(f"  {name:36s} {h}")
    if not args.trace:
        for suite in sorted(plain[0]["suite_ms"]):
            values = sorted(r["suite_ms"].get(suite, 0.0) for r in plain)
            print(f"harness.{suite}.ms_per_trial {median(values):.4f} ms")
    print("wall_s per repetition, measured: " + ", ".join(
        f"{m} {[round(r['wall_s'], 3) for r in rs]}" for m, rs in data["reps"].items()))
    print("wall_s per repetition, at the reference speed: " + ", ".join(
        f"{m} {[round(at_reference(r['wall_s'], r['rate']), 3) for r in rs]}"
        for m, rs in data["reps"].items()))
    print(f"measured medians: wall {median([r['wall_s'] for r in plain]):.4f} s, "
          f"cpu {median([r['cpu_s'] for r in plain]):.4f} s, "
          f"set-up {median([s for s, _ in data['setups']]):.4f} s; probe "
          f"{median([r['rate'] for r in plain]):.1f} ticks/s "
          f"(reference {probe.REFERENCE_RATE:g})")

    if args.trace:
        metrics, absent = per_layer(args.workload, plain, data["reps"]["traced"])
        if absent:
            print(f"absent (not defined by this program): {', '.join(absent)}")
    else:
        metrics = end_to_end(plain, data["setups"])
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
