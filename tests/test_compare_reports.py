"""scripts/compare_reports.py: report directories equal up to roundoff."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory: Path, slack: float, passed: bool = True, trials: int = 2):
    directory.mkdir()
    report = {"suite": "petz-identity", "passed": passed, "trials": trials,
              "records": [{"trial": i, "slack": slack * (i + 1)} for i in range(trials)]}
    (directory / "petz-identity.json").write_text(json.dumps(report))
    rows = "".join(f"petz-identity,{i},{slack * (i + 1):.17g}\n" for i in range(trials))
    (directory / "slacks.csv").write_text("suite,trial,slack\n" + rows)


def test_agrees_within_roundoff_and_flags_real_differences(tmp_path, capsys):
    main = _load_script().main
    _write(tmp_path / "a", 0.25)
    _write(tmp_path / "b", 0.25 + 2e-15)
    _write(tmp_path / "far", 0.25 + 1e-9)
    _write(tmp_path / "failed", 0.25, passed=False)
    _write(tmp_path / "longer", 0.25, trials=3)

    assert main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "petz-identity.json" in out and "slacks.csv" in out and "agree" in out

    for other in ("far", "failed", "longer"):
        assert main([str(tmp_path / "a"), str(tmp_path / other)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    (tmp_path / "b" / "extra.json").write_text("{}")
    assert main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    capsys.readouterr()

    (tmp_path / "a" / "notes.txt").write_text("same")
    (tmp_path / "far" / "notes.txt").write_text("same")
    assert main([str(tmp_path / "a"), str(tmp_path / "far")]) == 1
    assert "notes.txt: not a .json or .csv report" in capsys.readouterr().out
