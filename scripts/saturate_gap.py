"""Drive the restriction entropy gap to its ceiling on small inclusions.

For each inclusion the gap S_tau(phi|B) - S_tau(phi) is capped by
log pp_positive, and maximize_gap builds the pure state of one ambient
block that attains the cap. The cases cover single-block ambients (tensor,
scalar and diagonal subalgebras) and two two-block ones, where the
maximizer must pick the right ambient block and weight the subalgebra's
blocks. On the tensor inclusion the maximally entangled state is the known
maximizer; its gap is computed independently as a cross-check.

Run: python scripts/saturate_gap.py. Exits 1 when any shortfall, or the
cross-check's distance to the maximizer's gap, exceeds ROUTE_TOL (1e-9).
"""

import argparse
import sys

import numpy as np

from vne.algebra import MultiMatrixAlgebra, TraceWeight, algebra_from_blocks, full_matrix_algebra
from vne.harness import maximize_gap
from vne.inclusion import (
    diagonal_inclusion,
    entropy_gap_bound,
    scalar_inclusion,
    tensor_pair_inclusion,
    trace_expectation,
)
from vne.linalg import ROUTE_TOL
from vne.states import State


def bell_check(inc):
    """Gap of the maximally entangled state, computed without the maximizer."""
    p, q = inc.bipartite
    r = min(p, q)
    v = np.zeros(p * q, dtype=complex)
    for i in range(r):
        v[i * q + i] = 1.0 / np.sqrt(r)
    rho = np.outer(v, v.conj())
    phi = State(inc.ambient, inc.tau, rho / float(np.real(inc.tau.value(rho))))
    return entropy_gap_bound(inc, phi).gap


def m2_in_m4_plus_m2():
    """M_4 (+) M_2 > M_2, with M_2 twice in M_4 and once in M_2; weights 0.5, 1.5: index 10."""
    ambient = algebra_from_blocks([(4, 1), (2, 1)])
    # column (i, beta) of the M_2 isometry: beta = 0, 1 in C^2 (x) C^2, beta = 2 in the M_2 block
    sub = MultiMatrixAlgebra(6, ((2, 3),), [np.eye(6, dtype=complex)[:, [0, 1, 4, 2, 3, 5]]])
    return trace_expectation(ambient, sub, TraceWeight(ambient, (0.5, 1.5)))


def m2_plus_m3_in_m7():
    """M_7 > (M_2 (x) 1_2) (+) M_3 with the normalized trace: index 5."""
    ambient = full_matrix_algebra(7)
    return trace_expectation(ambient, algebra_from_blocks([(2, 2), (3, 1)]),
                             TraceWeight(ambient, (1.0 / 7.0,)))


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.parse_args(argv)

    cases = [
        ("M_2 (x) 1  in  M_4", tensor_pair_inclusion(2, 2)),
        ("scalars    in  M_2", scalar_inclusion(2)),
        ("scalars    in  M_3", scalar_inclusion(3)),
        ("diagonals  in  M_2", diagonal_inclusion(2)),
        ("M_2  in  M_4 (+) M_2", m2_in_m4_plus_m2()),
        ("M_2 (+) M_3  in  M_7", m2_plus_m3_in_m7()),
    ]
    worst = 0.0
    print(f"{'inclusion':<22} {'gap':>12} {'ceiling':>12} {'shortfall':>11}  converged")
    results = []
    for label, inc in cases:
        res = maximize_gap(inc)
        results.append(res)
        worst = max(worst, abs(res.shortfall))
        print(f"{label:<22} {res.gap:>12.7f} {res.bound:>12.7f} "
              f"{res.shortfall:>11.2e}  {res.converged}")
    bell = bell_check(cases[0][1])
    worst = max(worst, abs(bell - results[0].gap))
    print(f"\nmaximally entangled state on M_2 (x) 1 in M_4: "
          f"gap = {bell:.7f} (= log 4 = {np.log(4.0):.7f})")
    print(f"worst |shortfall| or cross-check distance {worst:.2e}")
    return 0 if worst <= ROUTE_TOL else 1


if __name__ == "__main__":
    sys.exit(run())
