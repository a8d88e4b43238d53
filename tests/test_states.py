"""States, entropies, and the scaling laws they obey."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vne.algebra import (
    algebra_from_blocks,
    ambient_trace,
    full_matrix_algebra,
    normalized_trace,
    tensor_left_subalgebra,
)
import vne.linalg
import vne.relent
import vne.states
from vne.linalg import frob, matrix_function
from vne.relent import rel_entropy_closed, reverse_entropy
from vne.states import (
    State,
    maximally_mixed,
    pure_state,
    rescale_trace,
    restrict,
    s_tau,
    s_vn,
    tensor_state,
)


def hs_state(algebra, tau, seed, floor=0.0):
    rng = np.random.default_rng(seed)
    comps = []
    for n, _ in algebra.blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        comps.append(g @ g.conj().T + floor * np.eye(n))
    rho = algebra.embed(comps)
    return State(algebra, tau, rho / float(np.real(tau.value(rho))))


class TestStateInvariants:
    def test_mass_computed(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = State(a, tau, np.diag([1.0, 1.0]))
        assert phi.is_state and abs(phi.mass - 1.0) < 1e-14

    def test_rejects_negative_density(self):
        a = full_matrix_algebra(2)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            State(a, normalized_trace(a), np.diag([2.0, -1.0]))

    def test_rejects_non_member(self):
        a = tensor_left_subalgebra(2, 2)
        with pytest.raises(ValueError, match="outside the algebra"):
            State(a, normalized_trace(a), np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_rejects_wrong_declared_mass(self):
        a = full_matrix_algebra(2)
        with pytest.raises(ValueError, match="declared mass"):
            State(a, normalized_trace(a), np.eye(2), mass=2.0)

    def test_rejects_nan_density(self):
        a = full_matrix_algebra(2)
        with pytest.raises(ValueError, match="non-finite"):
            State(a, normalized_trace(a), [[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("mass", [np.nan, np.inf])
    def test_rejects_non_finite_declared_mass(self, mass):
        a = full_matrix_algebra(2)
        with pytest.raises(ValueError, match="declared mass must be finite"):
            State(a, normalized_trace(a), np.eye(2), mass=mass)

    def test_pure_state_rejects_zero_vector(self):
        a = full_matrix_algebra(2)
        with pytest.raises(ValueError, match="nonzero finite vector"):
            pure_state(a, normalized_trace(a), [0.0, 0.0])

    @pytest.mark.parametrize("c", [np.inf, np.nan, 0.0, -1.0])
    def test_scaling_must_be_positive_and_finite(self, c):
        a = full_matrix_algebra(2)
        phi = State(a, normalized_trace(a), np.eye(2))
        with pytest.raises(ValueError, match="positive and finite"):
            phi.scaled(c)

    def test_functional_evaluation(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = State(a, tau, np.diag([1.5, 0.5]))
        assert abs(phi(np.diag([1.0, 0.0])) - 0.75) < 1e-14


class TestEntropyValues:
    def test_pure_state_hits_negative_log_n(self):
        for n in (2, 3, 4, 5):
            a = full_matrix_algebra(n)
            tau = normalized_trace(a)
            v = np.zeros(n)
            v[0] = 1.0
            assert abs(s_tau(pure_state(a, tau, v)) + math.log(n)) < 1e-10

    def test_tracial_state_gives_zero(self):
        for n in (2, 3, 4):
            a = full_matrix_algebra(n)
            phi = maximally_mixed(a, normalized_trace(a))
            assert abs(s_tau(phi)) < 1e-12

    def test_unbalanced_qubit_value(self):
        # spectral weights (3/4, 1/4): -sum w p log p with p the tau-density
        a = full_matrix_algebra(2)
        phi = State(a, normalized_trace(a), np.diag([1.5, 0.5]))
        expected = -(0.5 * 1.5 * math.log(1.5) + 0.5 * 0.5 * math.log(0.5))
        assert abs(expected - -0.13081203594113694) < 1e-15
        assert abs(s_tau(phi) - expected) < 1e-14

    def test_entropy_between_bounds(self):
        a = full_matrix_algebra(3)
        tau = normalized_trace(a)
        for seed in range(40):
            st_val = s_tau(hs_state(a, tau, seed))
            assert -math.log(3) - 1e-12 <= st_val <= 1e-12

    @given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_bounds_property(self, seed, n):
        a = full_matrix_algebra(n)
        tau = normalized_trace(a)
        val = s_tau(hs_state(a, tau, seed))
        assert -math.log(n) - 1e-10 <= val <= 1e-10


class TestVonNeumannShift:
    def test_factor_shift_identity(self):
        # on a factor with normalized trace: S_tau = S_vN - log n
        for n in (2, 3, 4, 5, 6):
            a = full_matrix_algebra(n)
            tau = normalized_trace(a)
            phi = hs_state(a, tau, 11 * n)
            assert abs(s_tau(phi) - (s_vn(phi) - math.log(n))) < 1e-9

    def test_shift_on_embedded_factor(self):
        # multiplicity does not inflate the von Neumann entropy
        a = tensor_left_subalgebra(2, 3)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 3)
        assert abs(s_tau(phi) - (s_vn(phi) - math.log(2))) < 1e-9

    def test_pure_vn_entropy_zero(self):
        a = full_matrix_algebra(4)
        tau = normalized_trace(a)
        v = np.zeros(4)
        v[1] = 1.0
        assert abs(s_vn(pure_state(a, tau, v))) < 1e-12

    def test_vn_requires_state(self):
        a = full_matrix_algebra(2)
        phi = State(a, normalized_trace(a), 3.0 * np.eye(2))
        with pytest.raises(ValueError, match="normalized state"):
            s_vn(phi)


class TestScalingLaws:
    def test_functional_scaling(self):
        # S_tau(lam phi) = lam S_tau(phi) - lam log lam
        a = full_matrix_algebra(3)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 21)
        base = s_tau(phi)
        for lam in (0.1, 1.0, 7.0):
            scaled = s_tau(phi.scaled(lam))
            assert abs(scaled - (lam * base - lam * math.log(lam))) < 1e-10

    def test_trace_rescaling(self):
        # against lam tau: S_{lam tau}(phi) = S_tau(phi) + phi(1) log lam
        a = full_matrix_algebra(3)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 22)
        base = s_tau(phi)
        for lam in (0.1, 1.0, 7.0):
            moved = s_tau(rescale_trace(phi, lam))
            assert abs(moved - (base + phi.mass * math.log(lam))) < 1e-10

    def test_rescale_preserves_functional(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 23)
        moved = rescale_trace(phi, 3.0)
        x = a.random_hermitian(np.random.default_rng(0))
        assert abs(phi(x) - moved(x)) < 1e-12

    def test_additivity_on_products(self):
        a = full_matrix_algebra(2)
        b = full_matrix_algebra(3)
        phi = hs_state(a, normalized_trace(a), 31)
        psi = hs_state(b, normalized_trace(b), 32)
        prod = tensor_state(phi, psi)
        assert abs(s_tau(prod) - (s_tau(phi) + s_tau(psi))) < 1e-10


class TestRestriction:
    def test_restricted_density_is_member(self):
        a = full_matrix_algebra(4)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 41)
        sub = tensor_left_subalgebra(2, 2)
        phi_b = restrict(phi, sub)
        assert phi_b.algebra is sub
        assert abs(phi_b.mass - phi.mass) < 1e-10

    def test_restriction_agrees_on_subalgebra_members(self):
        a = full_matrix_algebra(4)
        tau = normalized_trace(a)
        phi = hs_state(a, tau, 42)
        sub = tensor_left_subalgebra(2, 2)
        phi_b = restrict(phi, sub)
        x = sub.random_hermitian(np.random.default_rng(1))
        assert abs(phi(x) - phi_b(x)) < 1e-10

    def test_restriction_cannot_lower_entropy(self):
        a = full_matrix_algebra(4)
        tau = normalized_trace(a)
        sub = tensor_left_subalgebra(2, 2)
        for seed in range(25):
            phi = hs_state(a, tau, seed)
            assert s_tau(restrict(phi, sub)) >= s_tau(phi) - 1e-10

    def test_restrict_multiblock_target(self):
        a = full_matrix_algebra(2)
        tau = normalized_trace(a)
        phi = State(a, tau, np.diag([1.5, 0.5]))
        sub = algebra_from_blocks([(1, 1), (1, 1)])
        phi_d = restrict(phi, sub)
        assert abs(phi_d(np.diag([1.0, 0.0])) - 0.75) < 1e-12


class TestUnnormalizedTrace:
    def test_entropy_against_matrix_trace(self):
        # density against Tr is the usual spectral density
        a = full_matrix_algebra(2)
        tr = ambient_trace(a)
        phi = State(a, tr, np.diag([0.75, 0.25]))
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert abs(s_tau(phi) - expected) < 1e-14


class TestHeldSpectrum:
    """A State diagonalizes rho once; every spectral function reuses that system."""

    FUNCTIONS = [
        (vne.states._XLOGX, True),
        (vne.relent._LOG, True),
        (vne.relent._LOG, False),
        (vne.relent._SQRT, True),
        (lambda x: 1.0 / x, True),
        (lambda x: min(1.0, 3.0 * x.real), False),
    ]

    @staticmethod
    def states():
        out = []
        for n in (2, 3, 4):
            a = full_matrix_algebra(n)
            out += [hs_state(a, normalized_trace(a), seed, floor=0.05) for seed in range(3)]
        multi = algebra_from_blocks([(2, 1), (1, 2), (3, 1)])
        out += [hs_state(multi, ambient_trace(multi), seed, floor=0.05) for seed in range(3)]
        return out

    def test_function_equals_matrix_function_bitwise(self):
        for phi in self.states():
            for f, support_only in self.FUNCTIONS:
                ours = phi.density_function(f, support_only=support_only)
                assert np.array_equal(ours, matrix_function(phi.rho, f, support_only=support_only))

    def test_built_states_need_no_diagonalization(self, monkeypatch):
        pairs = [(phi, hs_state(phi.algebra, phi.tau, 99, floor=0.05)) for phi in self.states()]
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return vne.linalg.EigenSystem(*np.linalg.eigh(args[0]))

        for module in (vne.linalg, vne.states, vne.relent):
            monkeypatch.setattr(module, "herm_eig", counting)
        for phi, psi in pairs:
            s_tau(phi)
            rel_entropy_closed(phi, psi)
            assert phi.is_faithful
            if phi.is_state:
                reverse_entropy(normalized_trace(phi.algebra), phi)
        assert calls == []

    def test_strict_hermitian_check_runs_once(self, monkeypatch):
        a = full_matrix_algebra(3)
        phi = hs_state(a, normalized_trace(a), 5)
        calls = []
        check = vne.states.check_hermitian

        def counting(h, *args):
            calls.append(1)
            return check(h, *args)

        monkeypatch.setattr(vne.states, "check_hermitian", counting)
        s_tau(phi)
        s_tau(phi)
        phi.min_eigenvalue()
        assert calls == [1]

    def test_slightly_asymmetric_density_constructs_but_has_no_entropy(self):
        a = full_matrix_algebra(2)
        rho = np.diag([0.6, 0.4]).astype(complex)
        rho[0, 1] += 1e-11
        phi = State(a, ambient_trace(a), rho)
        with pytest.raises(ValueError, match="matrix is not Hermitian"):
            s_tau(phi)
        with pytest.raises(ValueError, match="matrix is not Hermitian"):
            phi.min_eigenvalue()

    def test_density_is_a_private_read_only_copy(self):
        a = full_matrix_algebra(2)
        rho = np.diag([1.5, 0.5]).astype(complex)
        phi = State(a, normalized_trace(a), rho)
        with pytest.raises(ValueError):
            phi.rho[0, 0] = 1.0
        before = s_tau(phi)
        rho[0, 0] = 0.5
        rho[1, 1] = 1.5
        rho[0, 1] = rho[1, 0] = 0.25
        assert np.array_equal(phi.rho, np.diag([1.5, 0.5]))
        assert s_tau(phi) == before
