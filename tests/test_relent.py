"""Relative entropy: closed form, modular route, variational lower bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vne.algebra import (
    MultiMatrixAlgebra,
    TraceWeight,
    algebra_from_blocks,
    diagonal_subalgebra,
    full_matrix_algebra,
    normalized_trace,
    scalar_subalgebra,
    tensor_right_subalgebra,
)
from vne.inclusion import tensor_pair_inclusion
from vne.linalg import dagger
from vne.relent import (
    KosakiGrid,
    StandardForm,
    bounded_entropy_approximation,
    kosaki_eval,
    petz_decompose,
    rel_entropy_closed,
    rel_entropy_modular,
    reverse_entropy,
)
from vne.states import State, maximally_mixed, pure_state


def hs_state(algebra, tau, seed, floor=0.0):
    rng = np.random.default_rng(seed)
    comps = []
    for n, _ in algebra.blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        comps.append(g @ g.conj().T + floor * np.eye(n))
    rho = algebra.embed(comps)
    return State(algebra, tau, rho / float(np.real(tau.value(rho))))


def classical_kl(p, q, w):
    return float(sum(wi * (pi * math.log(pi) - pi * math.log(qi))
                     for wi, pi, qi in zip(w, p, q) if pi > 0))


class TestClosedForm:
    def test_rejects_a_nearby_trace_weight(self):
        a = full_matrix_algebra(2)
        tau = TraceWeight(a, (0.5,))
        near = TraceWeight(a, (0.5 * (1.0 + 5e-6),))
        phi = hs_state(a, tau, 1, floor=0.1)
        psi = hs_state(a, near, 2, floor=0.1)
        with pytest.raises(ValueError, match="same trace weight"):
            rel_entropy_closed(phi, psi)

    def test_zero_on_equal_states(self):
        a = full_matrix_algebra(3)
        phi = hs_state(a, normalized_trace(a), 0)
        assert abs(rel_entropy_closed(phi, phi)) < 1e-12

    def test_commuting_case_is_classical_kl(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = State(a, tau, np.diag([1.5, 0.5]))
        psi = State(a, tau, np.diag([0.4, 1.6]))
        expected = classical_kl([1.5, 0.5], [0.4, 1.6], [0.5, 0.5])
        assert abs(rel_entropy_closed(phi, psi) - expected) < 1e-12

    def test_positive_between_distinct_states(self):
        a = full_matrix_algebra(3)
        tau = normalized_trace(a)
        for seed in range(20):
            phi = hs_state(a, tau, seed)
            psi = hs_state(a, tau, seed + 1000)
            assert rel_entropy_closed(phi, psi) > 0

    def test_support_leak_is_infinite(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = maximally_mixed(a, tau)
        psi = State(a, tau, np.diag([2.0, 0.0]))
        assert rel_entropy_closed(phi, psi) == math.inf

    def test_contained_support_is_finite(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = State(a, tau, np.diag([2.0, 0.0]))
        psi = maximally_mixed(a, tau)
        # S(phi||tau) = -S_tau(phi) = log 2 for this pure state
        assert abs(rel_entropy_closed(phi, psi) - math.log(2)) < 1e-12

    def test_rejects_mismatched_algebras(self):
        a, b = full_matrix_algebra(2), full_matrix_algebra(3)
        phi = maximally_mixed(a, normalized_trace(a))
        psi = maximally_mixed(b, normalized_trace(b))
        with pytest.raises(ValueError, match="same algebra"):
            rel_entropy_closed(phi, psi)


class TestModularRoute:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_closed_form(self, n):
        # two independent routes to the same number, across dimensions
        a = full_matrix_algebra(n)
        tau = normalized_trace(a)
        worst = 0.0
        for seed in range(200):
            phi = hs_state(a, tau, seed, floor=0.05)
            psi = hs_state(a, tau, seed + 5000, floor=0.05)
            worst = max(worst, abs(rel_entropy_closed(phi, psi)
                                   - rel_entropy_modular(phi, psi)))
        assert worst < 1e-9

    def test_support_leak_is_infinite(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = maximally_mixed(a, tau)
        psi = State(a, tau, np.diag([2.0, 0.0]))
        assert rel_entropy_modular(phi, psi) == math.inf

    def test_shared_form_is_reusable(self):
        a = full_matrix_algebra(3)
        tau = normalized_trace(a)
        form = StandardForm(a, tau)
        phi = hs_state(a, tau, 7, floor=0.05)
        psi = hs_state(a, tau, 8, floor=0.05)
        v1 = rel_entropy_modular(phi, psi, form)
        v2 = rel_entropy_modular(phi, psi)
        assert abs(v1 - v2) < 1e-12

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_route_agreement_property(self, seed):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, seed, floor=0.05)
        psi = hs_state(a, tau, seed + 1, floor=0.05)
        assert abs(rel_entropy_closed(phi, psi)
                   - rel_entropy_modular(phi, psi)) < 1e-9


def block_trace_value(tau, x):
    return complex(sum(w * np.trace(tau.algebra.block_component(x, k))
                       for k, w in enumerate(tau.weights)))


def unit_basis_form(tau):
    """The GNS construction by matrix units scaled by 1 / sqrt(w_k), with
    coordinates taken as tau-inner products against that basis."""
    alg = tau.algebra
    onb = [alg.matrix_unit(k, i, j) / math.sqrt(tau.weights[k])
           for k, (n, _) in enumerate(alg.blocks) for i in range(n) for j in range(n)]

    def vectorize(x):
        return np.array([block_trace_value(tau, dagger(e) @ x) for e in onb])

    def left(a):
        return np.stack([vectorize(a @ e) for e in onb], axis=1)

    def right(a):
        return np.stack([vectorize(e @ a) for e in onb], axis=1)

    return vectorize, left, right


COORDINATE_CASES = [
    pytest.param(lambda: TraceWeight(algebra_from_blocks([(2, 2), (1, 3)]), (0.3, 1.7)),
                 id="blocks-2x2-1x3"),
    pytest.param(lambda: TraceWeight(tensor_right_subalgebra(2, 3), (0.4,)),
                 id="tensor-right-2-3"),
]


class TestStandardForm:
    @pytest.mark.parametrize("make_tau", COORDINATE_CASES)
    def test_coordinates_match_unit_basis(self, make_tau):
        tau = make_tau()
        a = tau.algebra
        form = StandardForm(a, tau)
        vectorize, left, right = unit_basis_form(tau)
        rng = np.random.default_rng(9)
        for _ in range(3):
            x = a.random_hermitian(rng) + 1j * a.random_hermitian(rng)
            assert np.max(np.abs(form.vectorize(x) - vectorize(x))) < 1e-12
            assert np.max(np.abs(form.left_matrix(x) - left(x))) < 1e-12
            assert np.max(np.abs(form.right_matrix(x) - right(x))) < 1e-12

    def test_overlapping_isometries_rejected(self):
        e0 = np.array([[1.0], [0.0]], dtype=complex)
        diag = (e0 + np.array([[0.0], [1.0]])) / math.sqrt(2.0)
        alg = MultiMatrixAlgebra(dim=2, blocks=((1, 1), (1, 1)), isometries=[e0, diag])
        with pytest.raises(ArithmeticError, match="orthonormality"):
            StandardForm(alg, TraceWeight(alg, (1.0, 1.0)))

    @pytest.mark.parametrize("make_tau", COORDINATE_CASES)
    def test_modular_route_on_multiplicities(self, make_tau):
        tau = make_tau()
        a = tau.algebra
        form = StandardForm(a, tau)
        for seed in range(10):
            phi = hs_state(a, tau, seed, floor=0.05)
            psi = hs_state(a, tau, seed + 500, floor=0.05)
            assert abs(rel_entropy_closed(phi, psi)
                       - rel_entropy_modular(phi, psi, form)) < 1e-9


class TestKosaki:
    def test_lower_bound_and_accuracy(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        for seed in range(50):
            phi = hs_state(a, tau, seed, floor=0.05)
            psi = hs_state(a, tau, seed + 3000, floor=0.05)
            closed = rel_entropy_closed(phi, psi)
            ko = kosaki_eval(phi, psi)
            assert ko <= closed + 1e-12
            assert closed - ko < 1e-3

    def test_monotone_under_refinement(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 5, floor=0.05)
        psi = hs_state(a, tau, 6, floor=0.05)
        g0 = KosakiGrid.default(n=2 ** 6, slices=40)
        g1 = g0.refined()
        g2 = g1.refined()
        v0 = kosaki_eval(phi, psi, grid=g0)
        v1 = kosaki_eval(phi, psi, grid=g1)
        v2 = kosaki_eval(phi, psi, grid=g2)
        assert v0 <= v1 + 1e-12
        assert v1 <= v2 + 1e-12
        assert v2 <= rel_entropy_closed(phi, psi) + 1e-12

    def test_monotone_in_subspace_chain(self):
        # scalars inside diagonals inside everything
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 9, floor=0.05)
        psi = hs_state(a, tau, 10, floor=0.05)
        v_scalar = kosaki_eval(phi, psi, subspace=[np.eye(2)])
        v_diag = kosaki_eval(phi, psi, subspace=list(diagonal_subalgebra(2).canonical_basis()))
        v_full = kosaki_eval(phi, psi)
        assert v_scalar <= v_diag + 1e-12
        assert v_diag <= v_full + 1e-12

    def test_scalar_subspace_value_vanishes_for_states(self):
        # V = C 1 distinguishes nothing between two normalized states; the
        # grid deficit sits below the true value 0, never above it
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 11, floor=0.05)
        psi = hs_state(a, tau, 12, floor=0.05)
        v = kosaki_eval(phi, psi, subspace=[np.eye(2)])
        assert -1e-3 <= v <= 1e-12

    def test_monotone_when_second_argument_shrinks(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 13, floor=0.05)
        psi = hs_state(a, tau, 14, floor=0.05)
        v = kosaki_eval(phi, psi)
        v_smaller = kosaki_eval(phi, psi.scaled(0.5))
        assert v <= v_smaller + 1e-12

    def test_requires_identity_in_subspace(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 15, floor=0.05)
        psi = hs_state(a, tau, 16, floor=0.05)
        x = np.zeros((2, 2), dtype=complex)
        x[0, 1] = 1.0
        with pytest.raises(ValueError, match="identity"):
            kosaki_eval(phi, psi, subspace=[x])


def kosaki_oracle(phi, psi, subspace=None, grid=None):
    """The per-slice Kosaki route: Gram matrices pair by pair, one regularized solve per slice.

    Test-only reference for kosaki_eval, which takes every slice from one pencil.
    """
    span = list(subspace) if subspace is not None else list(phi.algebra.canonical_basis())
    basis = [np.asarray(v, dtype=complex) for v in span]
    eye = np.eye(phi.algebra.dim, dtype=complex)
    nb = len(basis)
    g = np.zeros((nb, nb), dtype=complex)
    h = np.zeros((nb, nb), dtype=complex)
    for i, vi in enumerate(basis):
        for j, vj in enumerate(basis):
            g[i, j] = phi(dagger(vi) @ vj)
            h[i, j] = psi(vj @ dagger(vi))
    g = 0.5 * (g + dagger(g))
    h = 0.5 * (h + dagger(h))
    f = np.array([phi(v) for v in basis])
    phi1 = float(np.real(phi(eye)))
    psi1 = float(np.real(psi(eye)))
    grid = grid or KosakiGrid.default(psi_mass=psi1)
    b = grid.breakpoints
    reg = 1e-12 * max(1.0, float(np.real(np.trace(g))), float(np.real(np.trace(h))))
    total = phi1 * math.log(grid.n)
    for aw, bw in zip(np.log(b[1:] / b[:-1]), 1.0 / b[:-1] - 1.0 / b[1:]):
        q = aw * g + bw * h + reg * max(aw, bw) * np.eye(nb)
        c = np.linalg.solve(q, aw * np.conj(f))
        quad = float(np.real(np.conj(c) @ g @ c))
        quad_h = float(np.real(np.conj(c) @ h @ c))
        total -= aw * (phi1 - 2.0 * float(np.real(np.dot(f, c))) + quad) + bw * quad_h
    return total - psi1 / grid.t_max


def rank_deficient_state(algebra, tau, seed):
    """A state whose density has a kernel in every block of size two or more."""
    rng = np.random.default_rng(seed)
    comps = []
    for n, _ in algebra.blocks:
        g = rng.standard_normal((n, max(1, n - 1))) + 1j * rng.standard_normal((n, max(1, n - 1)))
        comps.append(g @ g.conj().T)
    rho = algebra.embed(comps)
    return State(algebra, tau, rho / float(np.real(tau.value(rho))))


# float64 rounding of psi(x x*) where psi nearly vanishes, amplified by the
# slice weights b_s, which sum to n: eps * n, about 2.3e-10 on the default grid
KOSAKI_NOISE = np.finfo(float).eps * KosakiGrid.default().n


def _oracle_cases():
    three_blocks = algebra_from_blocks([(1, 1), (2, 1), (2, 2)])
    for a in (full_matrix_algebra(2), full_matrix_algebra(3), full_matrix_algebra(4), three_blocks):
        tau = TraceWeight(a, tuple(0.5 + 0.25 * k for k in range(len(a.blocks))))
        full = list(a.canonical_basis())
        dependent = [a.identity()] + full + [full[0] + full[-1]]
        yield a, tau, (None, dependent, [a.identity()])


class TestKosakiPencil:
    def test_matches_the_per_slice_oracle_on_faithful_pairs(self):
        for a, tau, subspaces in _oracle_cases():
            for seed in range(2):
                phi = hs_state(a, tau, 40 + seed, floor=0.05)
                psi = hs_state(a, tau, 80 + seed, floor=0.05)
                for sub in subspaces:
                    v = kosaki_eval(phi, psi, subspace=sub)
                    ref = kosaki_oracle(phi, psi, subspace=sub)
                    assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_not_below_the_oracle_on_non_faithful_pairs(self):
        # S = inf here.  The oracle's regularization shrinks its minimizers and
        # the pencil's are exact, so the pencil may only sit higher, up to
        # KOSAKI_NOISE
        for a, tau, subspaces in _oracle_cases():
            faithful = hs_state(a, tau, 7, floor=0.05)
            deficient = rank_deficient_state(a, tau, 8)
            for phi, psi in ((faithful, deficient), (deficient, rank_deficient_state(a, tau, 9))):
                for sub in subspaces:
                    v = kosaki_eval(phi, psi, subspace=sub)
                    assert math.isfinite(v)
                    ref = kosaki_oracle(phi, psi, subspace=sub)
                    assert v >= ref - KOSAKI_NOISE * max(1.0, abs(ref))

    def test_near_singular_pairs(self):
        # phi and psi share an eigenvector of tiny weight, so g + h has an
        # eigenvalue near the kernel cut and whitening magnifies rounding
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            a = full_matrix_algebra(d)
            tau = normalized_trace(a)
            for tiny in (1e-8, 1e-10, 1e-11):
                u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                p, q = rng.random(d), rng.random(d)
                p[0], q[0] = tiny, 0.7 * tiny
                phi = State(a, tau, (u * p / p.sum()) @ dagger(u) * d)
                psi = State(a, tau, (u * q / q.sum()) @ dagger(u) * d)
                v = kosaki_eval(phi, psi)
                assert v <= rel_entropy_closed(phi, psi) + 1e-12
                ref = kosaki_oracle(phi, psi)
                assert v >= ref - KOSAKI_NOISE * max(1.0, abs(ref))

    @pytest.mark.parametrize("refine", [False, True])
    def test_one_pencil_and_no_per_slice_work(self, monkeypatch, refine):
        import vne.relent as relent

        a = full_matrix_algebra(3)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 21, floor=0.05)
        psi = hs_state(a, tau, 22, floor=0.05)
        grid = KosakiGrid.default().refined() if refine else None
        herm_eig = relent.herm_eig
        calls = []

        def counted(h, *args, **kwargs):
            calls.append(h.shape)
            return herm_eig(h, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("per-pair or per-slice work in kosaki_eval")

        monkeypatch.setattr(relent, "herm_eig", counted)
        monkeypatch.setattr(np.linalg, "solve", forbidden)
        monkeypatch.setattr(State, "__call__", forbidden)
        monkeypatch.setattr(TraceWeight, "value", forbidden)
        v = kosaki_eval(phi, psi, grid=grid)
        assert len(calls) == 2
        assert math.isfinite(v)


class TestKosakiGrid:
    @pytest.mark.parametrize("breakpoints, rule", [
        (np.array([1.0, 0.5, 4.0]), "strictly increasing"),
        (np.array([0.5, 0.5, 2.0]), "strictly increasing"),
        (np.array([-1.0, 1.0, 2.0]), "positive"),
        (np.array([0.5, np.inf]), "finite"),
        (np.array([0.5, np.nan, 2.0]), "finite"),
        (np.array([0.5]), "at least two"),
        (np.array([[0.5, 1.0], [2.0, 4.0]]), "1-D"),
    ])
    def test_rejects_breakpoints_that_are_not_a_grid(self, breakpoints, rule):
        with pytest.raises(ValueError, match=rule):
            KosakiGrid(breakpoints)

    def test_decreasing_default_is_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            KosakiGrid.default(n=2, t_max=0.1, slices=10)


class TestPetz:
    def test_chain_rule_residual(self):
        inc = tensor_pair_inclusion(2, 2)
        tau = inc.tau
        for seed in range(50):
            phi = hs_state(inc.ambient, tau, seed, floor=0.05)
            psi = hs_state(inc.ambient, tau, seed + 7000, floor=0.05)
            assert petz_decompose(phi, psi, inc).residual < 1e-8

    def test_terms_are_nonnegative_for_states(self):
        inc = tensor_pair_inclusion(2, 2)
        phi = hs_state(inc.ambient, inc.tau, 3, floor=0.05)
        psi = hs_state(inc.ambient, inc.tau, 4, floor=0.05)
        dec = petz_decompose(phi, psi, inc)
        assert dec.restriction_term > -1e-12
        assert dec.expectation_term > -1e-12


class TestReverseEntropy:
    def test_unbalanced_qubit_value(self):
        # spectral weights (3/4, 1/4): -tau(log rho) = (1/2) log(4/3)
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = State(a, tau, np.diag([1.5, 0.5]))
        expected = 0.5 * math.log(4.0 / 3.0)
        assert abs(expected - 0.1438410362258904) < 1e-15
        assert abs(reverse_entropy(tau, phi) - expected) < 1e-12

    def test_matches_relative_entropy_from_trace(self):
        a = full_matrix_algebra(3)
        tau = normalized_trace(a)
        for seed in range(20):
            phi = hs_state(a, tau, seed, floor=0.05)
            oracle = rel_entropy_closed(maximally_mixed(a, tau), phi)
            assert abs(reverse_entropy(tau, phi) - oracle) < 1e-10

    def test_vanishes_only_at_trace(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        assert abs(reverse_entropy(tau, maximally_mixed(a, tau))) < 1e-12
        phi = hs_state(a, tau, 2, floor=0.05)
        if np.linalg.norm(phi.rho - np.eye(2)) > 1e-6:
            assert reverse_entropy(tau, phi) > 0

    def test_infinite_off_support(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        v = np.zeros(2)
        v[0] = 1.0
        assert reverse_entropy(tau, pure_state(a, tau, v)) == math.inf

    def test_requires_normalized_trace(self):
        a = full_matrix_algebra(2)
        from vne.algebra import ambient_trace
        tr = ambient_trace(a)
        phi = State(a, tr, np.diag([0.75, 0.25]))
        with pytest.raises(ValueError, match="normalized"):
            reverse_entropy(tr, phi)

    def test_normalization_agrees_with_the_trace_predicate(self):
        # tau(1) = 1 + 4e-11: outside NORMALIZED_TOL, which both must apply
        a = full_matrix_algebra(2)
        tau = TraceWeight(a, (0.5 + 2e-11,))
        assert not tau.is_normalized
        with pytest.raises(ValueError, match="normalized"):
            reverse_entropy(tau, State(a, tau, np.diag([1.5, 0.5])))


class TestBoundedApproximation:
    def test_increases_to_trace(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = State(a, tau, np.diag([1.5, 0.5]))
        k_small = bounded_entropy_approximation(phi, 0.9)
        k_large = bounded_entropy_approximation(phi, 2.1)
        # once k exceeds 1/min-eigenvalue the approximant is the identity
        assert np.linalg.norm(k_large.rho - np.eye(2)) < 1e-12
        w_small = np.linalg.eigvalsh(k_small.rho)
        w_large = np.linalg.eigvalsh(k_large.rho)
        assert np.all(w_small <= w_large + 1e-12)
        assert np.all(w_small <= 1.0 + 1e-12)

    def test_relative_entropy_decreases_to_limit(self):
        # the approximants increase, so the divergences against them decrease,
        # reaching S(phi||tracial state) once the cutoff stops binding
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 19, floor=0.1)
        target = rel_entropy_closed(phi, maximally_mixed(a, tau))
        vals = [rel_entropy_closed(phi, bounded_entropy_approximation(phi, k))
                for k in (2.0, 8.0, 64.0)]
        assert vals[0] >= vals[1] - 1e-10
        assert vals[1] >= vals[2] - 1e-10
        assert abs(vals[2] - target) < 1e-10

    def test_rejects_nonpositive_cutoff(self):
        a = full_matrix_algebra(2)
        phi = maximally_mixed(a, normalized_trace(a))
        with pytest.raises(ValueError, match="positive"):
            bounded_entropy_approximation(phi, 0.0)


class TestScalingLaws:
    def test_joint_scaling(self):
        # S(lam phi || lam psi) = lam S(phi||psi)
        a = full_matrix_algebra(3)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 23, floor=0.05)
        psi = hs_state(a, tau, 24, floor=0.05)
        base = rel_entropy_closed(phi, psi)
        for lam in (0.1, 1.0, 7.0):
            v = rel_entropy_closed(phi.scaled(lam), psi.scaled(lam))
            assert abs(v - lam * base) < 1e-10

    def test_second_argument_scaling(self):
        # S(phi || lam psi) = S(phi||psi) - phi(1) log lam
        a = full_matrix_algebra(3)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 25, floor=0.05)
        psi = hs_state(a, tau, 26, floor=0.05)
        base = rel_entropy_closed(phi, psi)
        for lam in (0.1, 1.0, 7.0):
            v = rel_entropy_closed(phi, psi.scaled(lam))
            assert abs(v - (base - phi.mass * math.log(lam))) < 1e-10

    def test_scalar_inclusion_relent_is_entropy_defect(self):
        # S(phi||tau) = -S_tau(phi) for states against the tracial state
        from vne.states import s_tau
        a = full_matrix_algebra(4)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 27)
        v = rel_entropy_closed(phi, maximally_mixed(a, tau))
        assert abs(v + s_tau(phi)) < 1e-10
