"""Speed probe: measures how fast this machine runs a fixed Python/NumPy kernel.

    python3 perfbench/probe.py

On a shared host the speed a process gets drifts by tens of percent within
minutes, and a slower minute slows the workload and the probe alike. run.py
keeps this probe running on another core for the whole benchmark run and
rescales each timed interval by the probe's rate over that same interval
(``run.Probe.rates``), so that runs made at different machine speeds agree.

The kernel resembles the workloads: small Hermitian eigendecompositions and
matrix functions driven from Python, and one mid-sized SVD per tick. It
touches no vne code, so a change to the program cannot move it. The probe
prints ``ready`` once warm, records the monotonic time and its own CPU time
at the start of the first tick and at the end of every tick, and on SIGTERM
prints the two lists as one JSON list and exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

from worker import THREAD_PINS

ROUNDS_PER_TICK = 12
# ticks per second that times are rescaled to: a round figure near the rate of
# one core of a 2-vCPU Intel Xeon VM on a lightly loaded host
REFERENCE_RATE = 500.0


def kernel():
    """Return a function that does one tick of fixed work."""
    import numpy as np

    rng = np.random.default_rng(7)
    mats = []
    for n in (2, 3, 4, 6, 8):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mats.append(g @ g.conj().T + np.eye(n))
    mid = rng.normal(size=(24, 18))

    def tick() -> float:
        acc = float(np.linalg.svd(mid, compute_uv=False)[0])
        for _ in range(ROUNDS_PER_TICK):
            for h in mats:
                w, v = np.linalg.eigh(h)
                m = (v * np.log(w)) @ v.conj().T
                acc += float(np.trace(m @ h).real) + sum(x * 0.5 for x in w.tolist())
        return acc

    return tick


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    tick = kernel()
    for _ in range(50):  # warm-up: lazy imports and first-call costs
        tick()
    wall, cpu = [time.monotonic()], [time.process_time()]  # the first tick's start
    print("ready", flush=True)
    while not stop:
        tick()
        wall.append(time.monotonic())
        cpu.append(time.process_time())
    print(json.dumps([wall, cpu]), flush=True)
    return 0


if __name__ == "__main__":
    os.environ.update(THREAD_PINS)
    sys.exit(main())
