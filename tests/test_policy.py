"""The numerical policy: every threshold of the package is named in vne.linalg, and read."""

import ast
import io
import re
import tokenize
from pathlib import Path

import vne

SRC = Path(vne.__file__).resolve().parent
# a number in e-notation with a negative exponent, such as 1e-9 or 2.5E-12
THRESHOLD = re.compile(r"^[0-9_.]+[eE]-[0-9_]+$")


def _assignments(tree: ast.Module):
    """Module-level assignments to a single name."""
    return [node for node in tree.body if isinstance(node, ast.Assign)
            and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)]


def _is_policy(node: ast.Assign) -> bool:
    return node.targets[0].id.isupper() and isinstance(node.value, ast.Constant)


def _dead_policy_names(src: Path) -> list:
    """Policy constants of linalg that no module of the package reads; an import is not a read."""
    tree = ast.parse((src / "linalg.py").read_text(encoding="utf-8"))
    read = {node.id for path in src.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [node.targets[0].id for node in _assignments(tree)
            if _is_policy(node) and node.targets[0].id not in read]


def _allowed_lines(path: Path, tree: ast.Module) -> set:
    """Lines of the policy constants in linalg and of the _SUITES table in harness."""
    lines = set()
    for node in _assignments(tree):
        policy = path.name == "linalg.py" and _is_policy(node)
        if policy or (path.name == "harness.py" and node.targets[0].id == "_SUITES"):
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



def test_every_policy_name_is_read():
    dead = _dead_policy_names(SRC)
    assert not dead, "policy constants that src/vne never reads: " + ", ".join(dead)


def test_guard_sees_a_dead_policy_name(tmp_path):
    (tmp_path / "linalg.py").write_text('USED_TOL = 1e-9\nDEAD_TOL = 1e-8\nROUNDS = 3\n'
                                        'def f(x, tol=USED_TOL):\n    return x < tol\n')
    (tmp_path / "other.py").write_text('from .linalg import DEAD_TOL, ROUNDS\n'
                                       'LIMIT = ROUNDS + 1\n')
    assert _dead_policy_names(tmp_path) == ["DEAD_TOL"]
