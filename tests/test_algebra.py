"""Multi-matrix algebras, trace weights, commutants, structure recovery."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vne.algebra import (
    MultiMatrixAlgebra,
    TraceWeight,
    algebra_from_blocks,
    ambient_trace,
    commutant,
    diagonal_subalgebra,
    full_matrix_algebra,
    generated_algebra,
    normalized_trace,
    scalar_subalgebra,
    tensor_algebra,
    tensor_left_subalgebra,
    tensor_right_subalgebra,
    wedderburn_decompose,
)
from vne.linalg import dagger, frob
from vne.states import maximally_mixed

from bratteli import inclusion_from_bratteli
from oracles import nullspace_commutant


class TestConstructors:
    def test_full_matrix_algebra(self):
        a = full_matrix_algebra(3).validate()
        assert a.dim == 3 and a.blocks == ((3, 1),)
        assert a.dim_linear == 9

    def test_blocks_partition(self):
        a = algebra_from_blocks([(2, 1), (1, 2)]).validate()
        assert a.dim == 4
        assert a.dim_linear == 5

    def test_scalar_subalgebra(self):
        a = scalar_subalgebra(4).validate()
        assert a.blocks == ((1, 4),)
        assert a.contains(np.eye(4))
        assert not a.contains(np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_diagonal_subalgebra(self):
        a = diagonal_subalgebra(3).validate()
        assert a.blocks == ((1, 1),) * 3
        assert a.contains(np.diag([1.0, 2.0, 3.0]))
        x = np.zeros((3, 3))
        x[0, 1] = 1.0
        assert not a.contains(x)

    def test_tensor_left_contains_products(self):
        a = tensor_left_subalgebra(2, 3).validate()
        assert a.blocks == ((2, 3),)
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert a.contains(np.kron(m, np.eye(3)))
        assert not a.contains(np.kron(np.eye(2), np.diag([1.0, 2.0, 3.0])))

    def test_tensor_right_contains_products(self):
        a = tensor_right_subalgebra(2, 3).validate()
        assert a.blocks == ((3, 2),)
        m = np.diag([1.0, 2.0, 3.0])
        assert a.contains(np.kron(np.eye(2), m))

    def test_tensor_algebra_product(self):
        a = tensor_algebra(full_matrix_algebra(2), full_matrix_algebra(2)).validate()
        assert a.dim == 4 and a.blocks == ((4, 1),)

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            algebra_from_blocks([(0, 1)])


class TestSize:
    def test_full_matrix_algebra_120_needs_no_span(self):
        # a stored span of M_120 would hold 120^4 complex entries (3.3 GB)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            a = full_matrix_algebra(120)
            phi = maximally_mixed(a, normalized_trace(a))
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(phi.mass - 1.0) < 1e-12
        assert elapsed < 1.0
        assert peak < 8 * 2 ** 20


class TestBlockStructure:
    def test_embed_component_roundtrip(self):
        a = algebra_from_blocks([(2, 2), (1, 3)])
        rng = np.random.default_rng(5)
        comps = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                 rng.standard_normal((1, 1)) + 0j]
        x = a.embed(comps)
        back = a.block_components(x)
        for c, b in zip(comps, back):
            assert frob(c - b) < 1e-12

    def test_embed_rejects_wrong_components(self):
        a = algebra_from_blocks([(2, 2), (1, 3)])
        with pytest.raises(ValueError, match="expected 2 block components"):
            a.embed([np.eye(2)])
        with pytest.raises(ValueError, match=r"shape \(1, 1\), expected \(2, 2\)"):
            a.embed([np.eye(1), np.eye(1)])
        with pytest.raises(ValueError, match=r"shape \(2, 2\), expected \(1, 1\)"):
            a.embed([np.eye(2), np.eye(2)])

    def test_matrix_units_multiply(self):
        a = algebra_from_blocks([(2, 2)])
        u01 = a.matrix_unit(0, 0, 1)
        u10 = a.matrix_unit(0, 1, 0)
        u00 = a.matrix_unit(0, 0, 0)
        assert frob(u01 @ u10 - u00) < 1e-12

    def test_minimal_projection_rank(self):
        a = algebra_from_blocks([(2, 3)])
        p = a.minimal_projection(0)
        assert abs(np.trace(p).real - 3.0) < 1e-12
        assert frob(p @ p - p) < 1e-12

    def test_central_projections_sum_to_identity(self):
        a = algebra_from_blocks([(2, 1), (1, 2)])
        total = sum(a.central_projection(k) for k in range(len(a.blocks)))
        assert frob(total - np.eye(a.dim)) < 1e-12

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_projection_idempotent(self, seed):
        a = algebra_from_blocks([(2, 1), (1, 1)])
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        once = a.project(x)
        assert frob(a.project(once) - once) < 1e-10
        assert a.contains(once)


def span_projection(span, x):
    """Reference route: Hilbert-Schmidt projection onto a span through its SVD row basis."""
    rows = np.asarray(span, dtype=complex).reshape(len(span), -1)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    onb = vh[s > 1e-10 * s[0]]
    return ((onb.conj() @ x.ravel()) @ onb).reshape(x.shape)


def _turned(a, seed):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((a.dim, a.dim))
                     + 1j * rng.standard_normal((a.dim, a.dim)))[0]
    return MultiMatrixAlgebra(dim=a.dim, blocks=a.blocks,
                              isometries=[u @ v for v in a.isometries]).validate()


class TestProjectAgainstSpan:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: algebra_from_blocks([(2, 1), (1, 2), (2, 2)]), id="M2+M1x2+M2x2"),
        pytest.param(lambda: _turned(algebra_from_blocks([(2, 1), (1, 2), (2, 2)]), 3),
                     id="turned-M2+M1x2+M2x2"),
        pytest.param(lambda: tensor_right_subalgebra(2, 3), id="1(x)M3"),
        pytest.param(lambda: tensor_left_subalgebra(3, 3), id="M3(x)1"),
        pytest.param(lambda: tensor_algebra(algebra_from_blocks([(1, 2), (2, 1)]),
                                            tensor_right_subalgebra(2, 2)), id="tensor-with-multiplicity"),
    ])
    def test_project_matches_span_route(self, make):
        a = make()
        rng = np.random.default_rng(21)
        members = [_random_member(a, rng) for _ in range(3)]
        others = [rng.standard_normal((a.dim, a.dim)) + 1j * rng.standard_normal((a.dim, a.dim))
                  for _ in range(3)]
        span = a.canonical_basis()
        for x in members + others:
            ref = span_projection(span, x)
            assert frob(a.project(x) - ref) < 1e-13 * max(1.0, frob(x))
            resid = frob(x - ref) / max(1.0, frob(x))
            assert abs(a.membership_residual(x) - resid) < 1e-13


class TestTraceWeight:
    def test_normalized_total(self):
        tau = normalized_trace(full_matrix_algebra(4))
        assert abs(tau.total - 1.0) < 1e-14
        assert tau.is_normalized

    def test_unnormalized_is_matrix_trace(self):
        a = full_matrix_algebra(3)
        tr = ambient_trace(a)
        x = np.diag([1.0, 2.0, 3.0])
        assert abs(tr.value(x) - 6.0) < 1e-14
        assert abs(tr.total - 3.0) < 1e-14

    def test_weights_and_multiplicity(self):
        a = algebra_from_blocks([(2, 3)])
        tr = ambient_trace(a)
        # ambient trace of a member counts each block m times
        assert abs(tr.value(a.embed([np.eye(2)])) - 6.0) < 1e-14

    def test_tracial_property(self):
        a = full_matrix_algebra(3)
        tau = normalized_trace(a)
        rng = np.random.default_rng(0)
        x, y = a.random_hermitian(rng), a.random_hermitian(rng)
        assert abs(tau.value(x @ y) - tau.value(y @ x)) < 1e-12

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            TraceWeight(full_matrix_algebra(2), (0.0,))

    def test_restriction_to_tensor_factor(self):
        a = full_matrix_algebra(4)
        tau = normalized_trace(a)
        sub = tensor_left_subalgebra(2, 2)
        tau_b = tau.restricted_to(sub)
        # minimal projection of M_2 (x) 1 has ambient trace 2, tau-value 1/2
        assert abs(tau_b.weights[0] - 0.5) < 1e-14
        assert abs(tau_b.total - 1.0) < 1e-14

    def test_density_reproduces_functional(self):
        a = algebra_from_blocks([(2, 1), (1, 2)])
        tau = normalized_trace(a)
        rng = np.random.default_rng(1)
        target = a.random_hermitian(rng)
        # the functional x -> tau(target x) is Tr(T target x)
        rho = tau.density(tau.ambient_density @ target)
        assert frob(rho - target) < 1e-10

    def test_density_of_nonhermitian_ambient_matrix(self):
        a = algebra_from_blocks([(2, 2), (1, 3)])
        tau = TraceWeight(a, (0.3, 1.7))
        rng = np.random.default_rng(4)
        t = rng.standard_normal((a.dim, a.dim)) + 1j * rng.standard_normal((a.dim, a.dim))
        rho = tau.density(t)
        assert a.membership_residual(rho) < 1e-12
        for x in list(a.canonical_basis()) + [_random_member(a, rng) for _ in range(3)]:
            assert abs(tau.value(rho @ x) - np.trace(t @ x)) < 1e-12 * max(1.0, frob(x))
        # oracle: entry (j, i) of block k is Tr(t u_{k,i,j}) / weight_k
        comps = []
        for k, (n, _) in enumerate(a.blocks):
            c = np.zeros((n, n), dtype=complex)
            for i in range(n):
                for j in range(n):
                    c[j, i] = np.trace(t @ a.matrix_unit(k, i, j)) / tau.weights[k]
            comps.append(c)
        assert frob(rho - a.embed(comps)) < 1e-12

    @pytest.mark.parametrize("member", [True, False])
    def test_value_is_weighted_block_trace(self, member):
        a = algebra_from_blocks([(2, 2), (1, 3)])
        tau = TraceWeight(a, (0.3, 1.7))
        rng = np.random.default_rng(5)
        for _ in range(4):
            if member:
                x = _random_member(a, rng)
            else:
                x = rng.standard_normal((a.dim, a.dim)) + 1j * rng.standard_normal((a.dim, a.dim))
            assert abs(tau.value(x) - block_trace_value(tau, x)) < 1e-12 * max(1.0, frob(x))


def _random_member(a, rng):
    return a.random_hermitian(rng) + 1j * a.random_hermitian(rng)


def block_trace_value(tau, x):
    """tau(x) as sum_k weight_k Tr(block_component(x, k))."""
    return complex(sum(w * np.trace(tau.algebra.block_component(x, k))
                       for k, w in enumerate(tau.weights)))


_TENSOR_FACTOR_GENS = [np.kron(m, np.eye(3)) for m in (np.diag([1.0, -1.0]),
                                                     np.array([[0.0, 1.0], [1.0, 0.0]]))]

# (Bratteli matrix, n_B, m_A, trace weights t), each with D = n_A . m_A <= 4
_SMALL_BRATTELI = [
    ([[1, 1]], [1, 2], [1], [0.7]),
    ([[2], [1]], [1], [1, 1], [0.5, 1.5]),
    ([[1], [1]], [2], [1, 1], [0.4, 0.9]),
    ([[2]], [2], [1], [1.0]),
    ([[1, 2]], [2, 1], [1], [0.3]),
    ([[2]], [1], [2], [1.2]),
]


def _bratteli_generator_sets():
    rng = np.random.default_rng(23)
    out = []
    for lam, n_b, m_a, t in _SMALL_BRATTELI:
        inc = inclusion_from_bratteli(lam, n_b, m_a, t, rng)
        for alg in (inc.sub, inc.ambient):
            out.append(pytest.param(alg.generating_units(), alg.dim,
                                    id=f"{lam}-{n_b}-{m_a}-{'sub' if alg is inc.sub else 'ambient'}"))
    return out


class TestCommutant:
    def test_commutant_of_tensor_factor(self):
        c = commutant(_TENSOR_FACTOR_GENS, 6)
        assert sorted(c.blocks) == [(3, 2)]
        assert c.contains(np.kron(np.eye(2), np.diag([1.0, 2.0, 3.0])))

    def test_commutant_of_full_algebra_is_scalars(self):
        a = full_matrix_algebra(3)
        c = commutant(list(a.canonical_basis()), 3)
        assert c.blocks == ((1, 3),)

    def test_commutant_of_scalars_is_everything(self):
        c = commutant([np.eye(4)], 4)
        assert c.blocks == ((4, 1),)

    @pytest.mark.parametrize("gens,d", [
        pytest.param(_TENSOR_FACTOR_GENS, 6, id="M2(x)1_3"),
        pytest.param(list(full_matrix_algebra(3).canonical_basis()), 3, id="M3"),
        pytest.param([np.eye(4)], 4, id="scalars"),
    ] + _bratteli_generator_sets())
    def test_swap_matches_nullspace_oracle(self, gens, d):
        swap = commutant(gens, d)
        oracle = nullspace_commutant(gens, d)
        generated = generated_algebra(gens, d)
        assert swap.blocks == tuple((m, n) for n, m in generated.blocks)
        assert sorted(swap.blocks) == sorted(oracle.blocks)
        assert swap.same_span(oracle) and oracle.same_span(swap)

    def test_rejects_generators_it_does_not_commute_with(self, monkeypatch):
        # a commutant built from the wrong algebra fails its certificate
        import vne.algebra as algebra_module

        monkeypatch.setattr(algebra_module, "generated_algebra",
                            lambda gens, d, seed=0: diagonal_subalgebra(d))
        with pytest.raises(ArithmeticError, match="commutant residual"):
            commutant(_TENSOR_FACTOR_GENS, 6)


_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])
_E01 = np.array([[0.0, 1.0], [0.0, 0.0]])


class TestValidate:
    def test_rejects_basis_element_outside_blocks(self):
        a = algebra_from_blocks([(2, 1), (1, 2)])
        span = np.concatenate([a.canonical_basis(), [np.kron(_X, np.eye(2))]])
        with pytest.raises(ValueError):
            wedderburn_decompose(span)

    def test_rejects_missing_basis_direction(self):
        a = algebra_from_blocks([(2, 1), (1, 2)])
        with pytest.raises(ValueError):
            wedderburn_decompose(a.canonical_basis()[:-1])

    def test_rejects_overlapping_isometries(self):
        a = diagonal_subalgebra(2)
        bad = MultiMatrixAlgebra(dim=2, blocks=a.blocks,
                                 isometries=[a.isometries[0], a.isometries[0]])
        with pytest.raises(ValueError):
            bad.validate()


class TestWedderburn:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: algebra_from_blocks([(2, 1), (1, 2)]), id="M2_M1x2"),
        pytest.param(lambda: algebra_from_blocks([(1, 1), (1, 1), (2, 3)]), id="M1_M1_M2x3"),
        pytest.param(lambda: algebra_from_blocks([(2, 2), (2, 1)]), id="M2x2_M2"),
        pytest.param(lambda: tensor_algebra(full_matrix_algebra(2), full_matrix_algebra(2)),
                     id="M2(x)M2"),
    ])
    def test_recovers_block_structure(self, make, seed):
        a = make()
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.standard_normal((a.dim, a.dim))
                         + 1j * rng.standard_normal((a.dim, a.dim)))[0]
        span = np.stack([u @ b @ dagger(u) for b in a.canonical_basis()])
        conjugated = MultiMatrixAlgebra(dim=a.dim, blocks=a.blocks,
                                        isometries=[u @ v for v in a.isometries]).validate()
        w = wedderburn_decompose(span, seed=seed)
        assert w.blocks == tuple(sorted(a.blocks))
        assert w.same_span(conjugated)
        again = wedderburn_decompose(span, seed=seed)
        assert all(np.array_equal(v, v2) for v, v2 in zip(w.isometries, again.isometries))

    @pytest.mark.parametrize("span", [
        pytest.param([np.eye(2), _X, _Z], id="1,X,Z"),
        pytest.param([np.eye(2), _E01], id="1,E01"),
        pytest.param([np.eye(3), np.pad(_X, ((0, 1), (0, 1)))], id="1_3,E01+E10"),
        pytest.param([np.diag([1.0, 0.0])], id="diag(1,0)"),
        pytest.param([np.kron(m, np.eye(2)) for m in (np.eye(2), _X, _Z)], id="(1,X,Z)(x)1_2"),
    ])
    def test_rejects_span_that_is_not_an_algebra(self, span):
        with pytest.raises(ValueError):
            wedderburn_decompose(span)

    def test_generated_algebra_closes_products(self):
        x = np.zeros((3, 3))
        x[0, 1] = 1.0
        g = generated_algebra([x + x.T], 3)
        # the generator has distinct eigenvalues on its support: diagonals
        # of the 2x2 corner plus the untouched third direction
        assert g.contains(np.eye(3))
        assert g.dim_linear == 3

    def test_generated_full_algebra(self):
        shift = np.roll(np.eye(3), 1, axis=0)
        sym = shift + shift.T
        diag = np.diag([1.0, 2.0, 3.0])
        g = generated_algebra([sym, diag], 3)
        assert g.blocks == ((3, 1),)
