"""The three benchmark workloads: their inputs, their timed call, and their checks.

``small-trials`` and ``inclusion-heavy`` run ``vne verify`` through
``vne.cli.main`` on a generated spec; an operation is one suite verdict.
``d-sweep`` calls the relent and inclusion layers directly at growing sizes;
an operation is one case, checked against a second route or a known value.
Inputs depend only on the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from functools import partial

SMALL_SUITES = (
    "entropy-bounds", "entropy-vn-shift", "entropy-additivity",
    "relent-subadditivity", "relent-restriction-monotone", "relent-scaling",
    "trace-rescaling", "petz-identity", "expectation-entropy-bound",
    "entropy-gap-bound", "gap-bound-unnormalized", "reverse-entropy-bound",
)
HEAVY_SUITES = (
    "xu-identity", "dual-expectation-pairing", "subspace-relent-properties",
    "tower-identities",
)
VERIFY_SUITES = {"small-trials": SMALL_SUITES, "inclusion-heavy": HEAVY_SUITES}
WORKLOADS = ("small-trials", "inclusion-heavy", "d-sweep")

SWEEP_N = (2, 3, 4, 6, 8)
TENSOR_PAIRS = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4))
# (label, scalar size n or tensor pair (p, q), known cp index)
DUAL_CASES = (("scalar-2", 2, 4.0), ("scalar-3", 3, 9.0), ("tensor-2x2", (2, 2), 4.0))
INDEX_RTOL = 1e-6
ROUTE_ATOL = 1e-9
STATE_FLOOR = 0.05


def spec_text(workload: str, seed: int) -> str:
    """Canonical spec JSON holding one experiment with the workload's suites."""
    doc = {
        "version": 1, "algebras": {}, "traces": {}, "states": {}, "inclusions": {},
        "experiments": {workload: {
            "seed": seed, "suites": [{"name": s} for s in VERIFY_SUITES[workload]]}},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def sweep_densities(seed: int) -> dict[int, tuple]:
    """Two seeded faithful densities per size, each with normalized trace 1."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = {}
    for n in SWEEP_N:
        pair = []
        for _ in range(2):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            rho = g @ g.conj().T
            rho = (1.0 - STATE_FLOOR) * rho / np.trace(rho).real + STATE_FLOOR * np.eye(n) / n
            pair.append(n * rho)  # tau = Tr/n, so tau(rho) = 1
        out[n] = tuple(pair)
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digests(report_dir: str) -> dict:
    """SHA-256 of each report file and of the whole report set."""
    files = {}
    for name in sorted(os.listdir(report_dir)):
        with open(os.path.join(report_dir, name), "rb") as fh:
            files[name] = _digest(fh.read())
    whole = _digest("".join(f"{n} {d}\n" for n, d in files.items()).encode())
    return {"all": whole, "files": files}


class Verify:
    """``vne verify`` on a generated spec; one operation per suite verdict."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        self.suites = VERIFY_SUITES[workload]
        self.workload = workload
        self.spec_path = os.path.join(work_dir, "spec.json")
        self.report_dir = os.path.join(work_dir, "reports")
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            fh.write(spec_text(workload, seed))

    def run(self) -> int:
        import contextlib
        import io

        from vne import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["verify", self.workload, "--spec", self.spec_path,
                             "--out", self.report_dir])

    def check(self, outcome) -> dict:
        failures = []
        if isinstance(outcome, Exception):
            failures.append(f"verify raised {type(outcome).__name__}: {outcome}")
        elif outcome != 0:
            failures.append(f"verify exited {outcome}")
        passed = 0
        for suite in self.suites:
            path = os.path.join(self.report_dir, f"{suite}.json")
            try:
                with open(path, encoding="utf-8") as fh:
                    ok = json.load(fh).get("passed") is True
            except (OSError, ValueError) as exc:
                failures.append(f"{suite}: no readable report ({exc})")
                continue
            if ok:
                passed += 1
            else:
                failures.append(f"{suite}: violated its tolerance")
        digests, size = {}, 0
        if os.path.isdir(self.report_dir):
            digests = report_digests(self.report_dir)
            size = sum(os.path.getsize(os.path.join(self.report_dir, f)) for f in digests["files"])
        return {"attempted": len(self.suites), "failed": len(self.suites) - passed,
                "failures": failures, "digests": digests, "report_bytes": size}


class DSweep:
    """Direct calls into the relent and inclusion layers at n = 2 ... 8."""

    def __init__(self, seed: int):
        import numpy as np

        from vne.algebra import full_matrix_algebra, normalized_trace
        from vne.states import State

        self.states = {}
        for n, (rho_a, rho_b) in sweep_densities(seed).items():
            alg = full_matrix_algebra(n)
            tau = normalized_trace(alg)
            self.states[n] = (State(alg, tau, rho_a), State(alg, tau, rho_b))
        self.dual_seed = int(np.random.default_rng(seed).integers(1, 2 ** 31))

    def cases(self):
        """(name, thunk) per case; a thunk returns the list of failed checks."""
        from vne.inclusion import scalar_inclusion, tensor_pair_inclusion

        out = [(f"relent-n{n}", partial(_relent_case, *self.states[n])) for n in SWEEP_N]
        out += [(f"index-tensor-{p}x{q}",
                 partial(_index_case, partial(tensor_pair_inclusion, p, q), q * min(p, q), q * q))
                for p, q in TENSOR_PAIRS]
        out += [(f"index-scalar-n{n}", partial(_index_case, partial(scalar_inclusion, n), n, n * n))
                for n in SWEEP_N]
        for label, shape, cp in DUAL_CASES:
            build = (partial(tensor_pair_inclusion, *shape) if isinstance(shape, tuple)
                     else partial(scalar_inclusion, shape))
            out.append((f"dual-{label}", partial(_dual_case, build, self.dual_seed, cp)))
        return out

    def run(self) -> list:
        """(case, errors) per case; an exception is a failed case, not an abort."""
        results = []
        for name, case in self.cases():
            try:
                results.append((name, case()))
            except Exception as exc:  # a raising case is a failed operation
                results.append((name, [f"raised {type(exc).__name__}: {exc}"]))
        return results

    def check(self, outcome) -> dict:
        if isinstance(outcome, Exception):
            return {"attempted": 1, "failed": 1, "digests": {}, "report_bytes": 0,
                    "failures": [f"d-sweep raised {type(outcome).__name__}: {outcome}"]}
        failures = [f"{name}: {err}" for name, errs in outcome for err in errs]
        failed = sum(1 for _, errs in outcome if errs)
        return {"attempted": len(outcome), "failed": failed, "failures": failures,
                "digests": {}, "report_bytes": 0}


def _relent_case(phi, psi) -> list:
    from vne.relent import kosaki_eval, rel_entropy_closed, rel_entropy_modular

    closed = rel_entropy_closed(phi, psi)
    modular = rel_entropy_modular(phi, psi)
    kosaki = kosaki_eval(phi, psi)
    scale = ROUTE_ATOL * max(1.0, abs(closed))
    errs = []
    if not abs(modular - closed) <= scale:
        errs.append(f"|modular - closed| = {abs(modular - closed):.3e}")
    if not kosaki <= closed + scale:
        errs.append(f"kosaki {kosaki!r} exceeds closed {closed!r}")
    return errs


def _index_case(build, pos: float, cp: float) -> list:
    from vne.inclusion import index_report

    rep = index_report(build())
    return _value_errors("pp_positive", rep.pp_positive, pos) + _value_errors("pp_cp", rep.pp_cp, cp)


def _dual_case(build, seed: int, cp: float) -> list:
    from vne.inclusion import dual_expectation

    return _value_errors("scalar_index", dual_expectation(build(), seed=seed).scalar_index, cp)


def _value_errors(what: str, got: float, want: float) -> list:
    if math.isfinite(got) and abs(got - want) <= INDEX_RTOL * max(1.0, abs(want)):
        return []
    return [f"{what} = {got!r}, expected {want!r}"]


def prepare(workload: str, seed: int, work_dir: str):
    if workload in VERIFY_SUITES:
        return Verify(workload, seed, work_dir)
    return DSweep(seed)

