"""A stack of densities (K, D, D) gives, member by member, what K single calls give."""

import numpy as np
import pytest

from vne.algebra import (
    algebra_from_blocks,
    ambient_trace,
    diagonal_subalgebra,
    full_matrix_algebra,
    normalized_trace,
    tensor_left_subalgebra,
)
from vne.inclusion import (
    entropy_gap_bound,
    scalar_inclusion,
    tensor_pair_inclusion,
    trace_expectation,
    xu_identity,
)
from vne.relent import petz_decompose, rel_entropy_closed, reverse_entropy
from vne.states import State, restrict, s_tau, s_vn

K = 6

# (label, algebra, subalgebra); the subalgebra of the block algebra has m_k > 1
CASES = [
    ("M2", full_matrix_algebra(2), diagonal_subalgebra(2)),
    ("M3", full_matrix_algebra(3), diagonal_subalgebra(3)),
    ("M4", full_matrix_algebra(4), tensor_left_subalgebra(2, 2)),
    ("blocks", algebra_from_blocks([(2, 1), (1, 2), (3, 1)]),
     algebra_from_blocks([(1, 1), (1, 1), (1, 2), (1, 1), (1, 1), (1, 1)])),
]
TRACES = {"normalized": normalized_trace, "ambient": ambient_trace}


def densities(alg, tau, seed, rank_deficient=None):
    """K unit-mass densities; member rank_deficient has a rank-one first block."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(K):
        comps = []
        for b, (n, _) in enumerate(alg.blocks):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if k == rank_deficient and b == 0:
                g[:, 1:] = 0.0
            comps.append(g @ g.conj().T)
        rho = alg.embed(comps)
        out.append(rho / np.real(tau.value(rho)))
    return np.stack(out)


def close(stacked, singles):
    singles = np.asarray(singles, dtype=float)
    assert stacked.shape == singles.shape
    same_inf = np.isinf(stacked) & (stacked == singles)
    with np.errstate(invalid="ignore"):  # inf - inf where both are +inf
        err = np.where(same_inf, 0.0, np.abs(stacked - singles))
    assert np.all(err <= 1e-14 * np.maximum(1.0, np.abs(singles))), (stacked, singles)


@pytest.fixture(params=[(c, t) for c in range(len(CASES)) for t in TRACES],
                ids=lambda p: f"{CASES[p[0]][0]}-{p[1]}")
def setting(request):
    label, alg, sub = CASES[request.param[0]]
    tau = TRACES[request.param[1]](alg)
    # psi's member 2 is not faithful: phi charges its kernel there
    phi = densities(alg, tau, 1)
    psi = densities(alg, tau, 2, rank_deficient=2 if alg.blocks[0][0] > 1 else None)
    return alg, sub, tau, phi, psi


def test_entropies_match_single_calls(setting):
    alg, _, tau, phi, psi = setting
    stack = State(alg, tau, phi)
    singles = [State(alg, tau, rho) for rho in phi]
    assert stack.mass.shape == (K,)
    close(stack.mass, [p.mass for p in singles])
    close(s_tau(stack), [s_tau(p) for p in singles])
    close(s_tau(State(alg, tau, psi), require_faithful=True),
          [s_tau(State(alg, tau, r), require_faithful=True) for r in psi])
    close(s_vn(stack), [s_vn(p) for p in singles])


def test_relative_entropy_matches_single_calls(setting):
    alg, _, tau, phi, psi = setting
    vals = rel_entropy_closed(State(alg, tau, phi), State(alg, tau, psi))
    singles = [rel_entropy_closed(State(alg, tau, a), State(alg, tau, b)) for a, b in zip(phi, psi)]
    close(vals, singles)
    if alg.blocks[0][0] > 1:
        assert np.isinf(vals[2]) and np.isfinite(np.delete(vals, 2)).all()


def test_restriction_matches_single_calls(setting):
    alg, sub, tau, phi, _ = setting
    stack = restrict(State(alg, tau, phi), sub)
    for k, rho in enumerate(phi):
        one = restrict(State(alg, tau, rho), sub)
        assert stack.tau.weights == one.tau.weights
        assert np.max(np.abs(stack.rho[k] - one.rho)) <= 1e-14 * max(1.0, np.max(np.abs(one.rho)))
    close(s_tau(stack), [s_tau(restrict(State(alg, tau, rho), sub)) for rho in phi])


def test_reverse_entropy_matches_single_calls(setting):
    alg, _, tau, _, psi = setting
    if not tau.is_normalized:
        with pytest.raises(ValueError, match="normalized trace"):
            reverse_entropy(tau, State(alg, tau, psi))
        return
    vals = reverse_entropy(tau, State(alg, tau, psi))
    close(vals, [reverse_entropy(tau, State(alg, tau, rho)) for rho in psi])


def test_inclusion_reports_match_single_calls(setting):
    alg, sub, tau, phi, psi = setting
    inc = trace_expectation(alg, sub, tau)
    gap = entropy_gap_bound(inc, State(alg, tau, psi))
    pd = petz_decompose(State(alg, tau, phi), State(alg, tau, psi), inc)
    gaps, petz = [], []
    for a, b in zip(phi, psi):
        gaps.append(entropy_gap_bound(inc, State(alg, tau, b)))
        petz.append(petz_decompose(State(alg, tau, a), State(alg, tau, b), inc))
    for field in ("entropy_sub", "entropy_ambient", "relent_route", "slack", "route_residual"):
        close(np.broadcast_to(getattr(gap, field), (K,)), [getattr(g, field) for g in gaps])
    for field in ("lhs", "restriction_term", "expectation_term", "residual"):
        close(getattr(pd, field), [getattr(p, field) for p in petz])


def test_scalar_calls_return_python_scalars():
    alg = full_matrix_algebra(2)
    tau = normalized_trace(alg)
    phi = State(alg, tau, np.diag([1.5, 0.5]))
    psi = State(alg, tau, np.diag([0.5, 1.5]))
    for value in (phi.mass, s_tau(phi), s_vn(phi), rel_entropy_closed(phi, psi),
                  reverse_entropy(tau, phi), phi.min_eigenvalue()):
        assert type(value) is float
    assert type(phi.is_faithful) is bool and type(phi.is_state) is bool


BLOCKS = CASES[3][1]


def bad_stack(what):
    tau = normalized_trace(BLOCKS)
    stack = densities(BLOCKS, tau, 3)
    if what == "non-member":
        stack[3, 0, 6] = stack[3, 6, 0] = 0.5  # couples block 0 to block 2
    elif what == "non-Hermitian":
        stack[3, 0, 1] += 1e-6
    elif what == "negative":
        stack[3] = BLOCKS.embed([np.diag([1.0, -0.5]), np.eye(1), np.eye(3)])
    elif what == "nan":
        stack[3, 4, 4] = np.nan
    return tau, stack


@pytest.mark.parametrize("what,match", [
    ("non-member", "outside the algebra"),
    ("non-Hermitian", "not Hermitian"),
    ("negative", "negative eigenvalue"),
    ("nan", "non-finite"),
])
def test_bad_member_raises_the_single_error_and_names_it(what, match):
    tau, stack = bad_stack(what)
    with pytest.raises(ValueError, match=match) as single:
        State(BLOCKS, tau, stack[3])
    with pytest.raises(type(single.value), match=rf"{match}.*\(stack member 3\)"):
        State(BLOCKS, tau, stack)
    State(BLOCKS, tau, np.delete(stack, 3, axis=0))  # the others are fine


@pytest.mark.parametrize("make", [lambda: tensor_pair_inclusion(2, 2), lambda: scalar_inclusion(3)],
                         ids=["M2(x)1<M4", "C<M3"])
def test_xu_identity_matches_single_calls_bit_for_bit(make):
    inc = make()
    phi = densities(inc.ambient, inc.tau, 4)
    stack = xu_identity(inc, State(inc.ambient, inc.tau, phi))
    singles = [xu_identity(inc, State(inc.ambient, inc.tau, rho)) for rho in phi]
    for field in ("term_sub", "term_commutant", "total", "residual"):
        assert getattr(stack, field).tolist() == [getattr(x, field) for x in singles], field
    assert stack.log_index == singles[0].log_index


def test_xu_identity_rejects_a_non_unital_member():
    inc = tensor_pair_inclusion(2, 2)
    phi = densities(inc.ambient, inc.tau, 4)
    phi[2] *= 1.5
    with pytest.raises(ValueError, match=r"unital state, got mass 1\.5.*\(stack member 2\)"):
        xu_identity(inc, State(inc.ambient, inc.tau, phi))
    with pytest.raises(ValueError, match=r"unital state, got mass 1\.5$"):
        xu_identity(inc, State(inc.ambient, inc.tau, phi[2]))
