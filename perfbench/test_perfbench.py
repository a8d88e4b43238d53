"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.VERIFY_SUITES))
def test_same_seed_same_spec_bytes(workload):
    assert workloads.spec_text(workload, 11) == workloads.spec_text(workload, 11)
    assert workloads.spec_text(workload, 11) != workloads.spec_text(workload, 12)


def test_same_seed_same_sweep_inputs():
    a, b, c = (workloads.sweep_densities(s) for s in (11, 11, 12))
    assert all(x.tobytes() == y.tobytes() for n in a for x, y in zip(a[n], b[n]))
    assert any(x.tobytes() != y.tobytes() for n in a for x, y in zip(a[n], c[n]))


def test_spec_covers_every_suite_once():
    from vne import suite_names

    listed = workloads.SMALL_SUITES + workloads.HEAVY_SUITES
    assert sorted(listed) == suite_names()


def _snapshot():
    import vne  # noqa: F401

    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "vne" or name.startswith("vne."))}
    classes = {}
    for _, module, path in layers.TARGETS:
        owner = sys.modules.get(module) or __import__(module, fromlist=["_"])
        for part in path.split("."):
            owner = getattr(owner, part)
            if isinstance(owner, type):
                classes[f"{module}.{path}"] = dict(vars(owner))
                break
    return mods, classes


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def _small_workload():
    from vne.algebra import full_matrix_algebra, normalized_trace
    from vne.inclusion import tensor_pair_inclusion
    from vne.relent import rel_entropy_closed
    from vne.states import State, restrict, s_tau

    alg = full_matrix_algebra(2)
    tau = normalized_trace(alg)
    rho_a, rho_b = workloads.sweep_densities(3)[2]
    phi, psi = State(alg, tau, rho_a), State(alg, tau, rho_b)
    s_tau(phi)
    rel_entropy_closed(phi, psi)
    inc = tensor_pair_inclusion(2, 2)
    restrict(State(inc.ambient, inc.tau, workloads.sweep_densities(3)[4][0]), inc.sub)


def test_tracer_restores_every_wrapped_attribute():
    before = _snapshot()
    with layers.Tracer() as tracer:
        _small_workload()
        assert not _same(_snapshot()[0]["vne.states"], before[0]["vne.states"])
    assert tracer.calls["states.State"] >= 2
    assert tracer.calls["linalg.herm_eig"] >= tracer.calls["states.State"]
    after = _snapshot()
    for name in before[0]:
        assert _same(before[0][name], after[0][name]), name
    for name in before[1]:
        assert _same(before[1][name], after[1][name]), name


def test_tracer_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with layers.Tracer():
            raise ZeroDivisionError
    after = _snapshot()
    assert all(_same(before[0][n], after[0][n]) for n in before[0])
    assert all(_same(before[1][n], after[1][n]) for n in before[1])


def test_self_time_excludes_wrapped_children():
    ticks = iter(range(100))
    targets = (("linalg", "vne.linalg", "herm_eig"), ("states", "vne.states", "State"))
    from vne.algebra import full_matrix_algebra, normalized_trace

    alg = full_matrix_algebra(2)
    tau = normalized_trace(alg)
    with layers.Tracer(targets, clock=lambda: float(next(ticks))) as tracer:
        from vne.states import State

        State(alg, tau, workloads.sweep_densities(5)[2][0])
    # one herm_eig inside one State: each span is one tick plus its children
    assert tracer.calls == {"linalg.herm_eig": 1, "states.State": 1}
    assert tracer.self_s == {"linalg.herm_eig": 1.0, "states.State": 2.0}
    assert tracer.total_s["states.State"] == 3.0


def test_missing_name_is_absent_not_an_error():
    targets = (("linalg", "vne.linalg", "herm_eig"),
               ("linalg", "vne.linalg", "no_such_function"),
               ("algebra", "vne.algebra", "NoSuchClass.value"),
               ("algebra", "vne.algebra", "TraceWeight.no_such_method"),
               ("gone", "vne.no_such_module", "anything"))
    with layers.Tracer(targets) as tracer:
        pass
    assert tracer.absent == ["linalg.no_such_function", "algebra.NoSuchClass.value",
                             "algebra.TraceWeight.no_such_method", "gone.anything"]
    assert list(tracer.calls) == ["linalg.herm_eig"]


def test_absent_target_yields_no_metric():
    calls = {layers.target_key(l, p): 3 for l, _, p in layers.TARGETS}
    self_s = {k: 0.5 for k in calls}
    gone = "algebra.MultiMatrixAlgebra.block_component"
    for d in (calls, self_s):
        del d[gone]
    traced = [{"wall_s": 2.0, "layers": {"calls": calls, "self_s": self_s,
                                         "total_s": self_s, "absent": [gone]}}]
    plain = [{"wall_s": 1.0, "suite_ms": {}, "report_bytes": 10}]
    metrics, absent = run.per_layer("small-trials", plain, traced)
    assert f"{gone}.calls" not in metrics and f"{gone}.self_s" not in metrics
    assert gone in absent
    # run_suite no longer reporting elapsed: the workload's suites are absent
    assert "harness.petz-identity.ms_per_trial" in absent
    assert metrics["harness.xu-identity.ms_per_trial"] == (0.0, "ms")
    assert metrics["trace.overhead_ratio"] == (2.0, "ratio")


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "d-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_declared_metrics_match_the_emitted_ones():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    keys = [layers.target_key(l, p) for l, _, p in layers.TARGETS]
    traced = [{"wall_s": 1.0, "layers": {"calls": dict.fromkeys(keys, 1),
                                         "self_s": dict.fromkeys(keys, 0.1),
                                         "total_s": dict.fromkeys(keys, 0.1),
                                         "absent": []}}]
    plain = [{"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0, "report_bytes": 1,
              "rate": 100.0, "cpu_rate": 100.0, "suite_ms": dict.fromkeys(run.ALL_SUITES, 1.0)}]
    metrics, absent = run.per_layer("small-trials", plain, traced)
    assert not absent
    assert list(metrics) == [m["name"] for m in doc["per_layer"]]
    assert [u for _, u in metrics.values()] == [m["unit"] for m in doc["per_layer"]]
    e2e = run.end_to_end(plain, [(0.5, 100.0)])
    assert list(e2e) == [m["name"] for m in doc["end_to_end"]]
    assert [u for _, u in e2e.values()] == [m["unit"] for m in doc["end_to_end"]]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_probe_rates_count_the_tick_in_progress_pro_rata():
    speed = run.Probe(env={})
    speed.wall = [1.0, 2.0, 3.0, 3.5, 4.0]
    speed.cpu = [0.0, 0.5, 1.0, 1.5, 2.0]
    assert speed.rates(1.5, 3.25) == pytest.approx((2.0 / 1.75, 2.0 / 1.0))
    assert speed.rates(3.0, 3.75) == pytest.approx((2.0, 2.0))
    with pytest.raises(run.BenchError):
        speed.rates(0.5, 2.0)


def test_times_are_rescaled_to_the_reference_rate():
    ref = run.probe.REFERENCE_RATE
    fast = {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 5.0, "rate": 2 * ref,
            "cpu_rate": 2 * ref}
    slow = dict(fast, wall_s=2.0, cpu_s=2.0, rate=ref, cpu_rate=ref)
    for plain in ([fast], [slow]):
        e2e = run.end_to_end(plain, [(0.25 * plain[0]["wall_s"], plain[0]["rate"])])
        assert e2e["wall_s"] == (2.0, "s") and e2e["cpu_s"] == (2.0, "s")
        assert e2e["setup_s"] == (0.5, "s") and e2e["peak_rss_mb"] == (5.0, "MB")


def test_probe_stops_and_reports_its_ticks():
    env = dict(os.environ, **run.THREAD_PINS)
    with run.Probe(env) as speed:
        start = time.monotonic()
        time.sleep(0.3)
        end = time.monotonic()
    assert speed.proc.returncode == 0
    assert min(speed.rates(start, end)) > 0
