"""Command-line behavior: output values, report files, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from vne import cli
from vne.cli import main

SPEC = str(resources.files("vne").joinpath("data/desk.json"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropyCommand:
    def test_pure_state_value(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "m2-pure", "--spec", SPEC)
        assert code == 0
        assert "S_tau = -0.6931472 nats" in out

    def test_tracial_state_value(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "m2-tracial", "--spec", SPEC)
        assert code == 0
        assert "S_tau = +0.0000000 nats" in out

    def test_unbalanced_state_value(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "m2-unbalanced", "--spec", SPEC)
        assert code == 0
        assert "S_tau = -0.1308120 nats" in out

    def test_factor_shift_line_present(self, capsys):
        _, out, _ = run_cli(capsys, "entropy", "m2-pure", "--spec", SPEC)
        assert "S_vN - log(2)" in out
        assert "matches S_tau" in out

    def test_log2_display(self, capsys):
        _, out, _ = run_cli(capsys, "entropy", "m2-pure", "--spec", SPEC, "--log2")
        assert "S_tau = -1.0000000 bits" in out

    def test_unknown_state_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "entropy", "nope", "--spec", SPEC)
        assert code == 2
        assert "unknown state" in err

    def test_default_spec_is_bundled(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "m2-pure")
        assert code == 0 and "-0.6931472" in out


class TestRelentCommand:
    def test_routes_agree(self, capsys):
        code, out, _ = run_cli(capsys, "relent", "hs4-a", "hs4-b", "--spec", SPEC)
        assert code == 0
        closed = float(out.split("closed form    = ")[1].split(" ")[0])
        modular = float(out.split("modular route  = ")[1].split(" ")[0])
        assert abs(closed - modular) < 1e-9
        assert closed > 0

    def test_self_relent_is_zero(self, capsys):
        _, out, _ = run_cli(capsys, "relent", "hs4-a", "hs4-a", "--spec", SPEC)
        closed = float(out.split("closed form    = ")[1].split(" ")[0])
        assert abs(closed) < 1e-10

    def test_mismatched_algebras_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "relent", "m2-pure", "hs4-a", "--spec", SPEC)
        assert code == 2
        assert "different algebras" in err


class TestIndexCommand:
    @pytest.mark.parametrize("name,pos,cp", [
        ("c-in-m3", 3.0, 9.0),
        ("m2-in-m4", 4.0, 4.0),
        ("trivial", 1.0, 1.0),
    ])
    def test_index_values(self, capsys, name, pos, cp):
        code, out, _ = run_cli(capsys, "index", name, "--spec", SPEC)
        assert code == 0
        got_pos = float(out.split("pp_positive = ")[1].split("\n")[0])
        got_cp = float(out.split("pp_cp       = ")[1].split("\n")[0])
        assert abs(got_pos - pos) < 1e-6
        assert abs(got_cp - cp) < 1e-6


class TestMaximizeCommand:
    def test_reaches_ceiling(self, capsys):
        code, out, _ = run_cli(capsys, "maximize", "m2-in-m4", "--spec", SPEC)
        assert code == 0
        gap = float(out.split("best gap  = ")[1].split(" ")[0])
        assert abs(gap - math.log(4.0)) < 1e-4
        assert "converged = True" in out

    def test_report_keeps_every_key(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "maximize", "c-in-m3", "--spec", SPEC,
                             "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "maximize-c-in-m3.json").read_text())
        assert sorted(payload) == ["bound", "converged", "evaluations", "gap", "inclusion",
                                   "restarts_used", "shortfall"]
        assert payload["restarts_used"] == payload["evaluations"] == 1
        assert payload["converged"] is True
        assert abs(payload["gap"] - math.log(3.0)) <= 1e-9


class TestVerifyCommand:
    def test_smoke_experiment_passes(self, capsys, tmp_path):
        out_dir = tmp_path / "rep"
        code, out, _ = run_cli(capsys, "verify", "smoke", "--spec", SPEC,
                               "--out", str(out_dir))
        assert code == 0
        assert "3/3 suites passed" in out

    def test_runs_as_python_module(self, tmp_path):
        package_root = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "vne", "verify", "smoke", "--out", str(tmp_path / "rep")],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "3/3 suites passed" in proc.stdout

    def test_reports_do_not_depend_on_blas_threads(self, tmp_path):
        package_root = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        dirs = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"threads-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "vne", "verify", "all-desk-scale", "--seed", "2026",
                 "--out", str(out_dir)],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            dirs.append(out_dir)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        assert len(names) == 17
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    def test_imports_without_scipy(self):
        # numpy is the only run-time dependency, also for the gap maximizer
        package_root = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        code = ("import sys, vne, vne.cli; "
                f"assert vne.cli.main(['maximize', 'm2-in-m4', '--spec', {SPEC!r}]) == 0; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "converged = True" in proc.stdout
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_writes_report_per_suite_and_csv(self, capsys, tmp_path):
        out_dir = tmp_path / "rep"
        run_cli(capsys, "verify", "smoke", "--spec", SPEC, "--out", str(out_dir))
        assert (out_dir / "entropy-bounds.json").exists()
        assert (out_dir / "petz-identity.json").exists()
        assert (out_dir / "xu-identity.json").exists()
        with open(out_dir / "slacks.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["suite", "trial", "slack"]
        assert len(rows) == 1 + 25 + 25 + 10
        payload = json.loads((out_dir / "entropy-bounds.json").read_text())
        assert payload["passed"] is True

    def test_reports_byte_identical_across_runs(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "verify", "smoke", "--spec", SPEC, "--out", str(d1))
        run_cli(capsys, "verify", "smoke", "--spec", SPEC, "--out", str(d2))
        for f in sorted(d1.iterdir()):
            assert f.read_bytes() == (d2 / f.name).read_bytes()

    def test_seed_override_changes_reports(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "verify", "smoke", "--spec", SPEC, "--out", str(d1))
        run_cli(capsys, "verify", "smoke", "--spec", SPEC, "--out", str(d2),
                "--seed", "99")
        assert ((d1 / "entropy-bounds.json").read_bytes()
                != (d2 / "entropy-bounds.json").read_bytes())

    def test_thread_variable_is_ignored(self, capsys, tmp_path, monkeypatch):
        # suites run serially; a stale VNE_THREADS setting changes nothing
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "verify", "smoke", "--spec", SPEC, "--out", str(d1))
        monkeypatch.setenv("VNE_THREADS", "abc")
        code, _, _ = run_cli(capsys, "verify", "smoke", "--spec", SPEC,
                             "--out", str(d2))
        assert code == 0
        assert sorted(f.name for f in d2.iterdir()) == sorted(f.name for f in d1.iterdir())
        for f in sorted(d1.iterdir()):
            assert f.read_bytes() == (d2 / f.name).read_bytes()

    def test_tampered_tolerance_exits_1(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "smoke", "--spec", SPEC,
                               "--out", str(tmp_path / "rep"), "--tol", "0")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_invalid_tolerance_exits_2(self, capsys, tmp_path, tol):
        code, _, err = run_cli(capsys, "verify", "smoke", "--spec", SPEC,
                               "--out", str(tmp_path / "rep"), "--tol", tol)
        assert code == 2
        assert "--tol" in err
        assert not (tmp_path / "rep").exists()

    def test_unknown_experiment_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nope", "--spec", SPEC)
        assert code == 2
        assert "unknown experiment" in err


class TestConfigErrors:
    def test_missing_spec_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "entropy", "m2-pure",
                               "--spec", "/no/such.json")
        assert code == 2
        assert "cannot read" in err

    def test_non_finite_generator_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"version": 1, "algebras": {"g": {"ambient_dim": 2, '
                       '"generators": [[[NaN, 0], [0, 1]]]}}}')
        code, _, err = run_cli(capsys, "index", "x", "--spec", str(bad))
        assert code == 2
        assert "algebras.g.generators[0][0][0]: matrix entries must be finite" in err

    @pytest.mark.parametrize("weight", ["NaN", "Infinity"])
    def test_non_finite_trace_weight_exits_2(self, capsys, tmp_path, weight):
        bad = tmp_path / "weight.json"
        bad.write_text('{"version": 1, "algebras": {"m2": {"kind": "full", "n": 2}}, '
                       '"traces": {"t": {"algebra": "m2", "weights": [%s]}}}' % weight)
        code, _, err = run_cli(capsys, "index", "x", "--spec", str(bad))
        assert code == 2
        assert "traces.t" in err and "finite" in err

    def test_density_of_wrong_shape_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "density.json"
        bad.write_text('{"version": 1, "algebras": {"m2": {"kind": "full", "n": 2}}, '
                       '"traces": {"t": {"algebra": "m2", "weights": "normalized"}}, '
                       '"states": {"s": {"algebra": "m2", "trace": "t", "density": [[1]]}}}')
        code, _, err = run_cli(capsys, "index", "x", "--spec", str(bad))
        assert code == 2
        assert "states.s.density: expected 2x2" in err

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        def exhausted(spec, args):
            raise MemoryError("Unable to allocate 16.0 GiB")

        monkeypatch.setitem(cli._COMMANDS, "index", exhausted)
        code, _, err = run_cli(capsys, "index", "m2-in-m4", "--spec", SPEC)
        assert code == 2
        assert "error: out of memory in index" in err

    def test_malformed_spec_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "algebras": {"a": {"kind": "weird"}}}')
        code, _, err = run_cli(capsys, "index", "x", "--spec", str(bad))
        assert code == 2
        assert "algebras.a" in err
