"""End-to-end acceptance criteria at their stated tolerances.

Every test prints one summary line (visible under pytest -s or -rA) and
asserts the same condition, so a plain pytest run gates on all of them.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from vne.algebra import (
    ambient_trace,
    full_matrix_algebra,
    normalized_trace,
    tensor_left_subalgebra,
)
from vne.harness import maximize_gap, run_suite
from vne.inclusion import (
    entropy_gap_bound,
    index_report,
    scalar_inclusion,
    tensor_pair_inclusion,
    trace_expectation,
)
from vne.linalg import log_quadrature
from vne.relent import (
    KosakiGrid,
    kosaki_eval,
    rel_entropy_closed,
    rel_entropy_modular,
    reverse_entropy,
)
from vne.states import State, maximally_mixed, pure_state, rescale_trace, s_tau, s_vn

REPO_ROOT = Path(__file__).resolve().parent.parent


def _line(num, label, ok, detail):
    word = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {word}  {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _hs_state(algebra, tau, rng, floor=0.0):
    comps = []
    for n, _ in algebra.blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        comps.append(g @ g.conj().T + floor * np.eye(n))
    rho = algebra.embed(comps)
    return State(algebra, tau, rho / float(np.real(tau.value(rho))))


def test_criterion_01_entropy_shift_between_trace_and_vn():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in range(2, 7):
        a = full_matrix_algebra(n)
        tau = normalized_trace(a)
        for _ in range(100):
            phi = _hs_state(a, tau, rng)
            worst = max(worst, abs(s_tau(phi) - (s_vn(phi) - math.log(n))))
    elapsed = time.perf_counter() - started
    _line(1, "entropy shift S_tau = S_vN - log n",
          worst < 1e-9 and elapsed < 10.0,
          f"max residual {worst:.3e} over 500 states in {elapsed:.1f} s")


def test_criterion_02_entropy_equality_cases():
    worst_pure = 0.0
    worst_tracial = 0.0
    for n in range(2, 7):
        a = full_matrix_algebra(n)
        tau = normalized_trace(a)
        v = np.zeros(n)
        v[n // 2] = 1.0
        worst_pure = max(worst_pure, abs(s_tau(pure_state(a, tau, v)) + math.log(n)))
        worst_tracial = max(worst_tracial, abs(s_tau(maximally_mixed(a, tau))))
    _line(2, "equality cases of the entropy bounds",
          worst_pure < 1e-10 and worst_tracial < 1e-12,
          f"pure residual {worst_pure:.3e}, tracial residual {worst_tracial:.3e}")


def test_criterion_03_scalar_inclusion_index_values():
    worst_pos = 0.0
    worst_cp = 0.0
    for n in (2, 3, 4):
        rep = index_report(scalar_inclusion(n))
        worst_pos = max(worst_pos, abs(rep.pp_positive - n))
        worst_cp = max(worst_cp, abs(rep.pp_cp - n * n))
    _line(3, "scalars in M_n index pair (n, n^2)",
          worst_pos < 1e-6 and worst_cp < 1e-8,
          f"positive residual {worst_pos:.3e}, cp residual {worst_cp:.3e}")


def test_criterion_04_entropy_gap_bound_both_traces():
    rep_tau = run_suite("entropy-gap-bound", trials=1000, seed=2026)
    rep_tr = run_suite("gap-bound-unnormalized", trials=1000, seed=2026)
    inc = tensor_pair_inclusion(2, 2)
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    bell = State(inc.ambient, inc.tau, 4.0 * np.outer(v, v.conj()))
    bell_gap = entropy_gap_bound(inc, bell).gap
    ok = (rep_tau.passed and rep_tr.passed
          and abs(bell_gap - 1.3862944) < 1e-6)
    _line(4, "restriction gap <= log 4 on both traces",
          ok,
          f"violations {rep_tau.max_violation:.3e} / {rep_tr.max_violation:.3e} "
          f"over 1000+1000 states, maximally entangled gap {bell_gap:.7f}")


def test_criterion_05_gap_maximization_reaches_ceiling():
    res_tensor = maximize_gap(tensor_pair_inclusion(2, 2))
    res_scalar = maximize_gap(scalar_inclusion(2))
    ok = (res_tensor.gap >= math.log(4.0) - 1e-4
          and res_scalar.gap >= math.log(2.0) - 1e-4)
    _line(5, "maximize_gap saturates log-index",
          ok,
          f"tensor gap {res_tensor.gap:.7f} (log 4 = {math.log(4.0):.7f}), "
          f"scalar gap {res_scalar.gap:.7f} (log 2 = {math.log(2.0):.7f})")


def test_criterion_06_chain_rule_across_expectation():
    rep = run_suite("petz-identity", trials=500, seed=2026)
    _line(6, "chain rule residual over 500 pairs",
          rep.passed and rep.max_violation < 1e-8,
          f"max residual {rep.max_violation:.3e}")


def test_criterion_07_commutant_split_identity():
    rep = run_suite("xu-identity", trials=200, seed=2026)
    from vne.inclusion import xu_identity
    inc = tensor_pair_inclusion(2, 2)
    split = xu_identity(inc, maximally_mixed(inc.ambient, inc.tau))
    exact = (abs(split.term_sub) < 1e-9
             and abs(split.term_commutant - math.log(4.0)) < 1e-9)
    _line(7, "two-sided split of log index",
          rep.passed and rep.max_violation < 1e-6 and exact,
          f"max residual {rep.max_violation:.3e} over 200 states, "
          f"split at the trace ({split.term_sub:.2e}, {split.term_commutant:.7f})")


def test_criterion_08_relative_entropy_route_agreement():
    rng = np.random.default_rng(808)
    worst = 0.0
    for i in range(200):
        n = (2, 3, 4)[i % 3]
        a = full_matrix_algebra(n)
        tau = normalized_trace(a)
        phi = _hs_state(a, tau, rng, floor=0.05)
        psi = _hs_state(a, tau, rng, floor=0.05)
        worst = max(worst, abs(rel_entropy_closed(phi, psi)
                               - rel_entropy_modular(phi, psi)))
    _line(8, "closed form vs modular route",
          worst < 1e-9,
          f"max residual {worst:.3e} over 200 faithful pairs on dims 2-4")


def test_criterion_09_variational_formula():
    a = full_matrix_algebra(2)
    tau = normalized_trace(a)
    rng = np.random.default_rng(909)
    worst_deficit = 0.0
    overshoot = 0.0
    for _ in range(50):
        phi = _hs_state(a, tau, rng, floor=0.05)
        psi = _hs_state(a, tau, rng, floor=0.05)
        closed = rel_entropy_closed(phi, psi)
        ko = kosaki_eval(phi, psi)
        worst_deficit = max(worst_deficit, closed - ko)
        overshoot = max(overshoot, ko - closed)
    phi = _hs_state(a, tau, rng, floor=0.05)
    psi = _hs_state(a, tau, rng, floor=0.05)
    g0 = KosakiGrid.default(n=2 ** 8, slices=60)
    g1, g2 = g0.refined(), g0.refined().refined()
    v0, v1, v2 = (kosaki_eval(phi, psi, grid=g) for g in (g0, g1, g2))
    monotone = v0 <= v1 + 1e-12 <= v2 + 2e-12
    chain = run_suite("subspace-relent-properties", seed=2026)
    ok = (worst_deficit < 1e-3 and overshoot < 1e-12 and monotone
          and chain.passed)
    _line(9, "variational lower bound",
          ok,
          f"max deficit {worst_deficit:.3e} below closed form on 50 pairs, "
          f"refinements {v0:.6f} <= {v1:.6f} <= {v2:.6f}, "
          f"subspace chain suite max violation {chain.max_violation:.3e}")


def test_criterion_10_reverse_entropy_restriction_bound():
    # restriction can only lower S(tau||phi), and never by more than the
    # log positive index (the operator-monotone route through the
    # expectation inequality eps(rho) >= rho / index)
    inc = tensor_pair_inclusion(2, 2)
    bound = math.log(index_report(inc).pp_positive)
    rng = np.random.default_rng(1010)
    worst_drop = -math.inf
    for _ in range(500):
        phi = _hs_state(inc.ambient, inc.tau, rng, floor=0.05)
        up = reverse_entropy(inc.tau, phi)
        down = reverse_entropy(inc.sub_trace, inc.restrict_state(phi))
        worst_drop = max(worst_drop, down - up)
    ok = worst_drop <= bound + 1e-8 and worst_drop <= 1e-8
    _line(10, "reverse entropy restriction bound",
          ok,
          f"max restricted-minus-full {worst_drop:.3e} <= log 4 = {bound:.7f} "
          f"over 500 states (restriction never raises it)")


def test_criterion_11_scaling_laws():
    a = full_matrix_algebra(3)
    tau = normalized_trace(a)
    phi = _hs_state(a, tau, np.random.default_rng(1111))
    base = s_tau(phi)
    worst = 0.0
    for lam in (0.1, 1.0, 7.0):
        scaled = s_tau(phi.scaled(lam))
        worst = max(worst, abs(scaled - (lam * base - lam * math.log(lam))))
        moved = s_tau(rescale_trace(phi, lam))
        worst = max(worst, abs(moved - (base + phi.mass * math.log(lam))))
    _line(11, "entropy scaling laws",
          worst < 1e-10,
          f"max residual {worst:.3e} for lam in 0.1, 1, 7")


def test_criterion_12_log_integral_quadrature():
    worst = 0.0
    for lam in (0.1, 0.5, 1.0, 2.0, 10.0):
        worst = max(worst, abs(log_quadrature(lam) - (-math.log(lam))))
    _line(12, "integral representation of -log",
          worst < 1e-6,
          f"max quadrature error {worst:.3e} for lam in 0.1, 0.5, 1, 2, 10")


def test_criterion_13_full_desk_scale_run(tmp_path):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "vne.cli", "verify", "all-desk-scale",
         "--out", str(tmp_path / "reports")],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - started
    _line(13, "full verification experiment",
          proc.returncode == 0 and elapsed < 300.0,
          f"exit {proc.returncode} in {elapsed:.1f} s "
          f"({proc.stdout.strip().splitlines()[-1] if proc.stdout else 'no output'})")
