"""The numerical policy: every threshold of the package is named in vne.linalg."""

import ast
import io
import re
import tokenize
from pathlib import Path

import vne

SRC = Path(vne.__file__).resolve().parent
# a number in e-notation with a negative exponent, such as 1e-9 or 2.5E-12
THRESHOLD = re.compile(r"^[0-9_.]+[eE]-[0-9_]+$")


def _allowed_lines(path: Path, tree: ast.Module) -> set:
    """Lines of the policy constants in linalg and of the _SUITES table in harness."""
    lines = set()
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        name = node.targets[0].id
        policy = (path.name == "linalg.py" and name.isupper()
                  and isinstance(node.value, ast.Constant))
        if policy or (path.name == "harness.py" and name == "_SUITES"):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _stray_thresholds(path: Path) -> list:
    text = path.read_text(encoding="utf-8")
    allowed = _allowed_lines(path, ast.parse(text))
    return [f"{path.name}:{tok.start[0]}: {tok.string}"
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type == tokenize.NUMBER and THRESHOLD.match(tok.string)
            and tok.start[0] not in allowed]


def test_thresholds_are_named_in_the_policy_block():
    stray = [hit for path in sorted(SRC.glob("*.py")) for hit in _stray_thresholds(path)]
    assert not stray, "thresholds outside the vne.linalg policy block:\n" + "\n".join(stray)


def test_guard_sees_a_stray_threshold(tmp_path):
    path = tmp_path / "module.py"
    path.write_text('"""1e-9 in a docstring is text."""\nLIMIT = 1e-9\nx = 2.5E-12 * 3\n')
    assert _stray_thresholds(path) == ["module.py:2: 1e-9", "module.py:3: 2.5E-12"]

