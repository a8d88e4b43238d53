"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py ROOT WORKLOAD SEED MODE WORK_DIR

run.py starts this once per repetition. It imports ``vne`` from ROOT/src,
builds the workload's inputs in WORK_DIR, then runs the timed call and checks
its outputs. MODE ``setup`` stops at the first timed call, ``plain`` runs
untraced, ``traced`` runs under the layer wrappers of layers.py. The last
line of standard output is one JSON object; ``t_start`` is the shared
monotonic clock at the first timed call, from which run.py takes set-up time.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import time

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def import_vne(root: str):
    """Import vne from ROOT/src, refusing any other installed copy."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    try:
        import vne
    except ImportError as exc:
        raise SystemExit(f"cannot import vne from {src}: {exc}")
    where = os.path.abspath(vne.__file__)
    if not where.startswith(os.path.join(src, "vne") + os.sep):
        raise SystemExit(f"imported vne from {where}, not from {src}")
    return vne


@contextlib.contextmanager
def suite_timer(ms_per_trial: dict):
    """Wrap vne.cli.run_suite to keep each report's elapsed time per trial."""
    from vne import cli

    original = getattr(cli, "run_suite", None)
    if original is None:
        yield
        return

    def timed(*args, **kwargs):
        rep = original(*args, **kwargs)
        elapsed, trials = getattr(rep, "elapsed", None), getattr(rep, "trials", 0)
        if elapsed is not None and trials:
            ms_per_trial[rep.suite] = 1000.0 * elapsed / trials
        return rep

    cli.run_suite = timed
    try:
        yield
    finally:
        cli.run_suite = original


def env_stamp() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def main(argv) -> int:
    root, workload, seed, mode, work_dir = argv
    # BLAS is pinned before numpy is first imported; vne's thread knob is cleared
    os.environ.update(THREAD_PINS)
    os.environ.pop("VNE_THREADS", None)
    import_vne(root)
    import layers
    import workloads

    job = workloads.prepare(workload, int(seed), work_dir)
    if mode == "setup":
        print(json.dumps({"t_start": time.monotonic()}))
        return 0

    suite_ms: dict = {}
    tracer = layers.Tracer() if mode == "traced" else None
    with suite_timer(suite_ms), (tracer or contextlib.nullcontext()):
        t_start, cpu_start = time.monotonic(), time.process_time()
        try:
            outcome = job.run()
        except Exception as exc:  # a raising run is a failed check, reported below
            outcome = exc
        wall, cpu = time.monotonic() - t_start, time.process_time() - cpu_start

    result = job.check(outcome)
    result.update(t_start=t_start, wall_s=wall, cpu_s=cpu, suite_ms=suite_ms,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  env=env_stamp())
    if tracer is not None:
        result["layers"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                            "total_s": tracer.total_s, "absent": tracer.absent}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
