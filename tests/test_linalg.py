"""Hermitian primitives: eigensystems, spectral calculus, quadrature."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from vne.linalg import (
    LogGrid,
    check_hermitian,
    dagger,
    frob,
    herm_eig,
    log_quadrature,
    matrix_function,
    partial_trace,
)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + dagger(g))


def random_psd(rng, n, floor=0.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ dagger(g) + floor * np.eye(n)


class TestCheckHermitian:
    def test_accepts_and_symmetrizes(self):
        h = np.array([[1.0, 2.0 + 1e-14j], [2.0, 3.0]])
        out = check_hermitian(h)
        assert frob(out - dagger(out)) == 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            check_hermitian(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        # NaN compares false with every threshold; it must not pass as Hermitian
        h = np.eye(3, dtype=complex)
        h[1, 2] = bad
        with pytest.raises(ValueError, match=r"non-finite entry .* at \(1, 2\)"):
            check_hermitian(h)

    def test_stack_error_names_the_member(self):
        stack = np.stack([np.eye(2), np.eye(2), [[0.0, 1.0], [0.0, 0.0]], np.eye(2)])
        with pytest.raises(ValueError, match=r"not Hermitian.*\(stack member 2\)"):
            check_hermitian(stack)
        stack[2] = np.eye(2)
        stack[3, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"non-finite.*\(stack member 3\)"):
            check_hermitian(stack)
        stack = stack[:3].reshape(3, 1, 2, 2)
        stack[2, 0, 0, 1] = 5.0
        with pytest.raises(ValueError, match=r"\(stack member \(2, 0\)\)"):
            check_hermitian(stack)


class TestHermEig:
    def test_ascending_and_reconstructs(self):
        rng = np.random.default_rng(0)
        h = random_hermitian(rng, 5)
        es = herm_eig(h)
        assert np.all(np.diff(es.eigenvalues) >= 0)
        assert frob(es.reconstruct() - h) < 1e-12 * frob(h)

    def test_known_spectrum(self):
        es = herm_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(es.eigenvalues, [1.0, 2.0, 3.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite entry nan"):
            herm_eig([[np.nan, 0.0], [0.0, 1.0]])

    def test_stack_equals_one_call_per_matrix(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 6):
            stack = np.stack([random_hermitian(rng, n) for _ in range(7)])
            es = herm_eig(stack)
            for k in range(7):
                one = herm_eig(stack[k])
                assert np.array_equal(es.eigenvalues[k], one.eigenvalues)
                assert np.array_equal(es.eigenvectors[k], one.eigenvectors)

    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_unitary_eigenvectors(self, seed, n):
        h = random_hermitian(np.random.default_rng(seed), n)
        v = herm_eig(h).eigenvectors
        assert frob(dagger(v) @ v - np.eye(n)) < 1e-10


class TestMatrixFunction:
    def test_exp_matches_scipy(self):
        h = random_hermitian(np.random.default_rng(1), 4)
        ours = matrix_function(h, lambda x: math.exp(x.real))
        assert frob(ours - scipy.linalg.expm(h)) < 1e-10

    def test_log_matches_scipy_on_pd(self):
        rho = random_psd(np.random.default_rng(2), 4, floor=0.1)
        ours = matrix_function(rho, lambda x: math.log(x.real))
        assert frob(ours - scipy.linalg.logm(rho)) < 1e-9

    def test_support_only_skips_kernel(self):
        rho = np.diag([0.0, 2.0])
        out = matrix_function(rho, lambda x: math.log(x.real), support_only=True)
        np.testing.assert_allclose(out, np.diag([0.0, math.log(2.0)]), atol=1e-14)

    def test_undefined_value_raises(self):
        with pytest.raises(ValueError, match="undefined at eigenvalue"):
            matrix_function(np.diag([0.0, 1.0]), lambda x: math.log(x.real))

    def test_undefined_value_in_a_stack_names_the_first_offender(self):
        stack = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, -1.0]), np.diag([-2.0, 1.0])])
        with pytest.raises(ValueError, match=r"undefined at eigenvalue np.float64\(-1.0\)"):
            matrix_function(stack, lambda x: math.log(x.real))
        with pytest.raises(ValueError, match=r"undefined at eigenvalue np.float64\(0.0\)"):
            matrix_function(np.diag([0.0, 1.0]), lambda x: 1.0 / x)

    def test_stack_maps_each_matrix_as_alone(self):
        rng = np.random.default_rng(13)
        stack = np.stack([random_psd(rng, 4, floor=0.1) for _ in range(6)])
        stack[2] = np.diag([0.0, 0.0, 1.0, 2.0])  # support_only drops its kernel
        log = lambda x: math.log(x.real)
        out = matrix_function(stack, log, support_only=True)
        for k in range(6):
            assert np.array_equal(out[k], matrix_function(stack[k], log, support_only=True))

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_square_consistency(self, seed):
        h = random_hermitian(np.random.default_rng(seed), 3)
        sq = matrix_function(h, lambda x: x * x)
        assert frob(sq - h @ h) < 1e-10 * max(1.0, frob(h) ** 2)


class TestPartialTrace:
    def test_factorized_right(self):
        a = random_hermitian(np.random.default_rng(3), 2)
        b = random_hermitian(np.random.default_rng(4), 3)
        out = partial_trace(np.kron(a, b), (2, 3), "right")
        assert frob(out - np.trace(b) * a) < 1e-12

    def test_factorized_left(self):
        a = random_hermitian(np.random.default_rng(5), 2)
        b = random_hermitian(np.random.default_rng(6), 3)
        out = partial_trace(np.kron(a, b), (2, 3), "left")
        assert frob(out - np.trace(a) * b) < 1e-12

    def test_trace_preserved(self):
        m = random_psd(np.random.default_rng(7), 6)
        out = partial_trace(m, (2, 3), "right")
        assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="incompatible"):
            partial_trace(np.eye(5), (2, 3), "right")

    def test_bad_side(self):
        with pytest.raises(ValueError, match="side"):
            partial_trace(np.eye(6), (2, 3), "middle")


class TestLogQuadrature:
    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_matches_closed_form(self, lam):
        assert abs(log_quadrature(lam) - (-math.log(lam))) < 1e-6

    def test_wide_range(self):
        for lam in np.geomspace(1e-3, 1e3, 13):
            assert abs(log_quadrature(float(lam)) + math.log(lam)) < 1e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="lam > 0"):
            log_quadrature(0.0)

    def test_coarse_grid_is_worse(self):
        fine = abs(log_quadrature(7.0) + math.log(7.0))
        coarse = abs(log_quadrature(7.0, LogGrid(panels=20)) + math.log(7.0))
        assert fine < coarse
