"""scripts/saturate_gap.py: every case reaches its ceiling and the script exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import vne

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "saturate_gap.py"


def test_script_reaches_every_ceiling():
    package_root = str(Path(vne.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPT)], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("True") == 6
    assert "False" not in proc.stdout
