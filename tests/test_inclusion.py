"""Conditional expectations, index invariants, and the identities they enter."""

import math

import numpy as np
import pytest

from vne.algebra import (
    MultiMatrixAlgebra,
    TraceWeight,
    algebra_from_blocks,
    ambient_trace,
    full_matrix_algebra,
    normalized_trace,
    scalar_subalgebra,
    tensor_left_subalgebra,
    tensor_right_subalgebra,
)
from vne.inclusion import (
    diagonal_inclusion,
    dual_expectation,
    entropy_gap_bound,
    index_report,
    scalar_inclusion,
    standard_binary_tower,
    tensor_pair_inclusion,
    tower_gap_formula,
    trace_expectation,
    xu_identity,
)
from vne.linalg import dagger, frob
from vne.states import State, maximally_mixed, s_tau

from oracles import nullspace_commutant


def hs_state(algebra, tau, seed, floor=0.0):
    rng = np.random.default_rng(seed)
    comps = []
    for n, _ in algebra.blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        comps.append(g @ g.conj().T + floor * np.eye(n))
    rho = algebra.embed(comps)
    return State(algebra, tau, rho / float(np.real(tau.value(rho))))


class TestTraceExpectation:
    def test_tensor_expectation_slices_factor(self):
        inc = tensor_pair_inclusion(2, 3)
        rng = np.random.default_rng(0)
        a_part = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b_part = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = np.kron(a_part, b_part)
        expected = np.kron(a_part, np.eye(3)) * (np.trace(b_part) / 3.0)
        assert frob(inc.apply(x) - expected) < 1e-10

    def test_projects_onto_subalgebra(self):
        inc = tensor_pair_inclusion(2, 2)
        rng = np.random.default_rng(1)
        x = inc.ambient.random_hermitian(rng)
        y = inc.apply(x)
        assert inc.sub.contains(y)
        assert frob(inc.apply(y) - y) < 1e-10

    def test_preserves_trace(self):
        inc = tensor_pair_inclusion(2, 2)
        rng = np.random.default_rng(2)
        x = inc.ambient.random_hermitian(rng)
        assert abs(inc.tau.value(x) - inc.tau.value(inc.apply(x))) < 1e-10

    def test_bimodule_property(self):
        inc = tensor_pair_inclusion(2, 2)
        rng = np.random.default_rng(3)
        x = inc.ambient.random_hermitian(rng)
        b = inc.sub.random_hermitian(rng)
        lhs = inc.apply(b @ x @ b)
        rhs = b @ inc.apply(x) @ b
        assert frob(lhs - rhs) < 1e-9

    def test_positivity(self):
        inc = scalar_inclusion(3)
        rng = np.random.default_rng(4)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = inc.apply(g @ dagger(g))
        assert np.min(np.linalg.eigvalsh(0.5 * (y + dagger(y)))) > -1e-12

    def test_scalar_expectation_is_tracial_mean(self):
        inc = scalar_inclusion(4)
        x = np.diag([1.0, 2.0, 3.0, 4.0])
        assert frob(inc.apply(x) - 2.5 * np.eye(4)) < 1e-12

    def test_restrict_state_matches_functional(self):
        inc = tensor_pair_inclusion(2, 2)
        phi = hs_state(inc.ambient, inc.tau, 5)
        phi_b = inc.restrict_state(phi)
        x = inc.sub.random_hermitian(np.random.default_rng(6))
        assert abs(phi(x) - phi_b(x)) < 1e-10

    def test_restrict_state_rejects_a_nearby_trace(self):
        inc = tensor_pair_inclusion(2, 2)
        tau = inc.tau.scaled(1.0 + 5e-6)
        phi = hs_state(inc.ambient, tau, 5)
        with pytest.raises(ValueError, match="inclusion trace"):
            inc.restrict_state(phi)

    def test_rejects_non_subalgebra(self):
        a = full_matrix_algebra(4)
        not_sub = full_matrix_algebra(3)
        with pytest.raises(ValueError):
            trace_expectation(a, not_sub, normalized_trace(a))


def gram_superop(inc):
    """Reference route: eps as a D^2 x D^2 matrix from a Gram solve over a sub basis.

    eps(x) = sum_i c_i b_i with tau(b_j* eps(x)) = tau(b_j* x), written on
    row-major vectorized matrices; its adjoint is the conjugate transpose.
    """
    basis = inc.sub.canonical_basis()
    bmat = basis.reshape(len(basis), -1)
    wmat = np.stack([(b @ inc.tau.ambient_density).ravel() for b in basis])
    gram = bmat.conj() @ wmat.T
    return bmat.T @ np.linalg.solve(gram, wmat.conj())


def _three_block_inclusion():
    # ambient M_2 + M_1 (x) 1_2 + M_2 with weights (0.3, 1.1, 0.6); the sub has
    # blocks C e_0, C (e_1 + P_2) and the third summand, all turned by one unitary
    rng = np.random.default_rng(17)
    u = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    eye = np.eye(6, dtype=complex)
    amb = algebra_from_blocks([(2, 1), (1, 2), (2, 1)])
    ambient = MultiMatrixAlgebra(dim=6, blocks=amb.blocks,
                                 isometries=[u @ v for v in amb.isometries]).validate()
    sub = MultiMatrixAlgebra(dim=6, blocks=((1, 1), (1, 3), (2, 1)),
                             isometries=[u @ eye[:, :1], u @ eye[:, 1:4], u @ eye[:, 4:]]).validate()
    return trace_expectation(ambient, sub, TraceWeight(ambient, (0.3, 1.1, 0.6)))


class TestClosedFormAgainstGram:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: tensor_pair_inclusion(2, 2), id="M2(x)1<M4"),
        pytest.param(lambda: tensor_pair_inclusion(2, 3), id="M2(x)1<M6"),
        pytest.param(lambda: tensor_pair_inclusion(3, 2), id="M3(x)1<M6"),
        pytest.param(lambda: tensor_pair_inclusion(2, 4), id="M2(x)1<M8"),
        pytest.param(lambda: tensor_pair_inclusion(3, 3), id="M3(x)1<M9"),
        pytest.param(_three_block_inclusion, id="three-block"),
        pytest.param(lambda: trace_expectation(full_matrix_algebra(6), tensor_right_subalgebra(2, 3),
                                               normalized_trace(full_matrix_algebra(6))),
                     id="1(x)M3<M6"),
        pytest.param(lambda: dual_expectation(tensor_pair_inclusion(2, 2)).expectation,
                     id="dual-of-M2(x)1<M4"),
    ])
    def test_apply_and_adjoint_match_gram_route(self, make):
        inc = make()
        sop = gram_superop(inc)
        d = inc.ambient.dim
        rng = np.random.default_rng(8)
        members = [inc.ambient.random_hermitian(rng) + 1j * inc.ambient.random_hermitian(rng)
                   for _ in range(3)]
        others = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                  for _ in range(3)]
        for x in members + others:
            scale = 1e-13 * max(1.0, frob(x))
            assert frob(inc.apply(x) - (sop @ x.ravel()).reshape(d, d)) < scale
            assert frob(inc.adjoint_apply(x) - (dagger(sop) @ x.ravel()).reshape(d, d)) < scale


class TestIndexValues:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scalars_in_full_matrix(self, n):
        rep = index_report(scalar_inclusion(n))
        assert abs(rep.pp_positive - n) < 1e-6
        assert abs(rep.pp_cp - n * n) < 1e-8

    def test_tensor_factor_both_indices_coincide(self):
        rep = index_report(tensor_pair_inclusion(2, 2))
        assert abs(rep.pp_positive - 4.0) < 1e-6
        assert abs(rep.pp_cp - 4.0) < 1e-8

    def test_rectangular_tensor_factor(self):
        # M_2 (x) 1 inside M_6: positive index q min(p, q), cp index q^2
        rep = index_report(tensor_pair_inclusion(2, 3))
        assert abs(rep.pp_positive - 6.0) < 1e-6
        assert abs(rep.pp_cp - 9.0) < 1e-8

    def test_diagonal_masa(self):
        rep = index_report(diagonal_inclusion(2))
        assert abs(rep.pp_positive - 2.0) < 1e-6
        assert abs(rep.pp_cp - 2.0) < 1e-8

    def test_trivial_inclusion(self):
        a = full_matrix_algebra(2)
        inc = trace_expectation(a, a, normalized_trace(a))
        rep = index_report(inc)
        assert abs(rep.pp_positive - 1.0) < 1e-9
        assert abs(rep.pp_cp - 1.0) < 1e-9

    def test_scalars_in_direct_sum(self):
        # weights (1/3, 1/3) on M_2 (+) C: positive index 1/min weight,
        # cp index max over blocks of n_k / w_k
        amb = algebra_from_blocks([(2, 1), (1, 1)])
        tau = TraceWeight(amb, (1.0 / 3.0, 1.0 / 3.0))
        inc = trace_expectation(amb, scalar_subalgebra(3), tau)
        rep = index_report(inc)
        assert abs(rep.pp_positive - 3.0) < 1e-6
        assert abs(rep.pp_cp - 6.0) < 1e-8

    def test_cached_report_matches_fresh_defaults(self):
        inc = tensor_pair_inclusion(2, 3)
        cached = inc.index_report()
        assert inc.index_report() is cached
        fresh = index_report(tensor_pair_inclusion(2, 3))
        assert cached.pp_positive == fresh.pp_positive
        assert cached.pp_cp == fresh.pp_cp

    def test_cp_dominates_positive(self):
        for inc in (scalar_inclusion(3), tensor_pair_inclusion(2, 2),
                    diagonal_inclusion(3)):
            rep = index_report(inc)
            assert rep.pp_cp >= rep.pp_positive - 1e-9

    def test_witness_certificate(self):
        # the witness reproduces the positive index when re-evaluated
        from vne.inclusion import pp_index_positive
        inc = tensor_pair_inclusion(2, 2)
        val, y, block = pp_index_positive(inc)
        assert abs(val - 4.0) < 1e-6
        assert block == 0


class TestDualExpectation:
    def test_scalar_pairing_on_tensor_inclusion(self):
        dual = dual_expectation(tensor_pair_inclusion(2, 2))
        assert abs(dual.scalar_index - 4.0) < 1e-6
        assert dual.pairing_residual < 1e-6

    def test_scalar_pairing_on_scalar_inclusion(self):
        dual = dual_expectation(scalar_inclusion(2))
        assert abs(dual.scalar_index - 4.0) < 1e-6

    def test_scalar_pairing_beyond_desk_scale(self):
        # the commutant of the scalars on L^2(M_5) is M_25: L = 625 basis elements
        dual = dual_expectation(scalar_inclusion(5))
        assert abs(dual.scalar_index - 25.0) < 1e-6

    def test_commutant_block_structure(self):
        dual = dual_expectation(tensor_pair_inclusion(2, 2))
        # commutant of M_2 (x) 1 on L^2(M_4) is 8-dim multiplicity-2
        assert sorted(dual.sub_commutant.blocks) == [(8, 2)]
        assert sorted(dual.ambient_commutant.blocks) == [(4, 4)]

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: tensor_pair_inclusion(2, 2), id="M2(x)1<M4"),
        pytest.param(lambda: scalar_inclusion(2), id="C<M2"),
        pytest.param(lambda: diagonal_inclusion(3), id="diag<M3"),
    ])
    def test_commutants_match_nullspace_oracle(self, make):
        # A' and B' come from block data; the oracle solves for the commutants
        # of lambda(A) and lambda(B) on the GNS space
        inc = make()
        dual = dual_expectation(inc)
        form, hs = dual.form, dual.form.hs_dim
        for alg, prime in ((inc.ambient, dual.ambient_commutant), (inc.sub, dual.sub_commutant)):
            oracle = nullspace_commutant([form.left_matrix(u) for u in alg.generating_units()], hs)
            assert sorted(prime.blocks) == sorted(oracle.blocks)
            assert prime.same_span(oracle)

    @pytest.mark.parametrize("p,q", [(3, 3), (2, 4)])
    def test_dual_and_xu_beyond_desk_scale(self, p, q):
        # L^2(M_9) and L^2(M_8) have 81 and 64 dimensions: the nullspace commutant
        # needed an SVD of a stacked 81^2 x 81^2 system for (3, 3)
        inc = tensor_pair_inclusion(p, q)
        dual = dual_expectation(inc)
        assert abs(dual.scalar_index - q * q) < 1e-6
        phi = hs_state(inc.ambient, inc.tau, 5, floor=0.05)
        assert xu_identity(inc, phi).residual < 1e-6


class TestXuIdentity:
    def test_exact_split_at_trace(self):
        inc = tensor_pair_inclusion(2, 2)
        rep = xu_identity(inc, maximally_mixed(inc.ambient, inc.tau))
        assert abs(rep.term_sub) < 1e-12
        assert abs(rep.term_commutant - math.log(4.0)) < 1e-9
        assert rep.residual < 1e-9

    def test_random_states_split_the_log_index(self):
        inc = tensor_pair_inclusion(2, 2)
        for seed in range(25):
            phi = hs_state(inc.ambient, inc.tau, seed, floor=0.05)
            rep = xu_identity(inc, phi)
            assert rep.residual < 1e-6
            assert rep.term_sub > -1e-10
            assert rep.term_commutant > -1e-10

    def test_scalar_inclusion_split(self):
        inc = scalar_inclusion(3)
        for seed in range(10):
            phi = hs_state(inc.ambient, inc.tau, seed, floor=0.05)
            assert xu_identity(inc, phi).residual < 1e-6


class TestEntropyGapBound:
    def test_maximally_entangled_attains_log_index(self):
        inc = tensor_pair_inclusion(2, 2)
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1.0 / math.sqrt(2.0)
        rho = 4.0 * np.outer(v, v.conj())
        phi = State(inc.ambient, inc.tau, rho)
        rep = entropy_gap_bound(inc, phi)
        assert abs(rep.gap - math.log(4.0)) < 1e-9
        assert abs(rep.gap - 1.3862944) < 1e-6
        assert rep.route_residual < 1e-9

    def test_gap_bounded_by_log_index(self):
        inc = tensor_pair_inclusion(2, 2)
        for seed in range(50):
            phi = hs_state(inc.ambient, inc.tau, seed)
            rep = entropy_gap_bound(inc, phi)
            assert rep.slack > -1e-8
            assert rep.route_residual < 1e-9

    def test_gap_equals_expectation_relent(self):
        # the gap routes through S(phi||phi o eps) and through two entropies
        inc = tensor_pair_inclusion(2, 2)
        phi = hs_state(inc.ambient, inc.tau, 77, floor=0.05)
        rep = entropy_gap_bound(inc, phi)
        assert abs((rep.entropy_sub - rep.entropy_ambient) - rep.relent_route) < 1e-9

    def test_unnormalized_trace_same_gap(self):
        amb = full_matrix_algebra(4)
        tr = ambient_trace(amb)
        inc_tr = trace_expectation(amb, tensor_left_subalgebra(2, 2), tr,
                                   bipartite=(2, 2))
        inc_tau = tensor_pair_inclusion(2, 2)
        rng_rho = np.random.default_rng(9)
        g = rng_rho.standard_normal((4, 4)) + 1j * rng_rho.standard_normal((4, 4))
        rho = g @ dagger(g)
        phi_tr = State(amb, tr, rho / float(np.real(tr.value(rho))))
        phi_tau = State(inc_tau.ambient, inc_tau.tau,
                        rho / float(np.real(inc_tau.tau.value(rho))))
        gap_tr = entropy_gap_bound(inc_tr, phi_tr).gap
        gap_tau = entropy_gap_bound(inc_tau, phi_tau).gap
        assert abs(gap_tr - gap_tau) < 1e-9


class TestTower:
    def test_two_step_factor_tower(self):
        pairs, tau, top = standard_binary_tower()
        phi = hs_state(top, tau, 13, floor=0.05)
        rep = tower_gap_formula(pairs, tau, phi)
        assert len(rep.levels) == 2
        for lev in rep.levels:
            # gap formula via von Neumann entropies plus the log size ratio
            assert lev.formula_residual < 1e-9
            # relative index between consecutive levels is 4 = (n/m)^2
            assert abs(lev.index_ratio - 4.0) < 1e-9
            assert abs(lev.pp_estimate - 4.0) < 1e-5
        for r in rep.compat_residuals:
            assert r < 1e-9

    def test_tower_requires_normalized_trace(self):
        pairs, tau, top = standard_binary_tower()
        phi = hs_state(top, tau, 14, floor=0.05)
        with pytest.raises(ValueError, match="normalized"):
            tower_gap_formula(pairs, tau.scaled(2.0), phi)


class TestExpectationEntropyBound:
    def test_expectation_cannot_decrease_entropy_much(self):
        # S_tau(phi o eps) >= S_tau(phi): eps is doubly stochastic here
        inc = tensor_pair_inclusion(2, 2)
        for seed in range(25):
            phi = hs_state(inc.ambient, inc.tau, seed)
            comp = inc.compress_state(phi)
            assert s_tau(comp) >= s_tau(phi) - 1e-10
