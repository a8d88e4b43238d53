"""Relative entropy on multi-matrix algebras, by three independent routes.

rel_entropy_closed works directly on densities.  rel_entropy_modular reads
the spectral resolution of the relative modular operator off the two
states' block spectra, diagonalizing each block component itself, and
integrates log against it.  kosaki_eval maximizes the variational
functional over step functions and is a certified lower bound; restricted
to a subspace V of the algebra it computes the subspace relative entropy.
All its slice problems come from one generalized eigendecomposition of the
Gram pencil (g, g + h), and the value returned is the functional at the
computed minimizers, with no regularization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import MultiMatrixAlgebra, TraceWeight, algebra_from_blocks
from .linalg import (FRAME_TOL, RANK_TOL, SPAN_TOL, SPECTRAL_FLOOR, SUPPORT_LEAK_TOL,
                     EigenSystem, any_member, dagger, frob, herm_eig, unwrap)
from .states import POS_INF, State, restrict

_LOG = lambda x: math.log(x.real)
_SQRT = lambda x: math.sqrt(x.real)


def _block_diag(blocks) -> np.ndarray:
    """Block-diagonal matrix with the given square blocks along its diagonal."""
    size = sum(len(b) for b in blocks)
    out = np.zeros((size, size), dtype=complex)
    pos = 0
    for b in blocks:
        out[pos:pos + len(b), pos:pos + len(b)] = b
        pos += len(b)
    return out


def _support_projection(phi: State):
    es = phi.spectrum()
    w = es.eigenvalues
    keep = w > SPECTRAL_FLOOR * np.abs(w).max(axis=-1, keepdims=True, initial=0.0)
    v = es.eigenvectors * keep[..., None, :]
    return v @ dagger(v)


def _log_density(phi: State, skip):
    """log rho on the support, per member; members flagged in skip get 0.

    A skipped member's value is replaced by the caller, so its spectrum is
    swapped for ones and f is never evaluated on it.
    """
    es = phi.spectrum()
    w = np.where(skip[..., None], 1.0, es.eigenvalues)
    return EigenSystem(w, es.eigenvectors).apply(_LOG, support_only=True)


def _check_same_algebra(phi: State, psi: State):
    if phi.algebra is not psi.algebra and not phi.algebra.same_span(psi.algebra):
        raise ValueError("relative entropy requires functionals on the same algebra")
    if phi.tau is not psi.tau and phi.tau.weights != psi.tau.weights:
        raise ValueError("functionals must be expressed against the same trace weight")


def rel_entropy_closed(phi: State, psi: State):
    """S(phi||psi) = tau(rho_phi (log rho_phi - log rho_psi)), per stack member.

    Support violation (phi charging the kernel of psi) yields +inf.
    """
    _check_same_algebra(phi, psi)
    p_psi = _support_projection(psi)
    leak = np.real(phi.tau.value(phi.rho @ (np.eye(phi.algebra.dim) - p_psi)))
    leaks = leak > SUPPORT_LEAK_TOL * np.maximum(1.0, phi.mass)
    if not any_member(~leaks):
        return unwrap(np.full(leaks.shape, POS_INF))
    val = np.real(phi.tau.value(phi.rho @ (_log_density(phi, leaks) - _log_density(psi, leaks))))
    return unwrap(np.where(leaks, POS_INF, val))


def rel_entropy_modular(phi: State, psi: State) -> float:
    """S(phi||psi) = -(xi_phi, log Delta xi_phi) via the spectral resolution of Delta.

    In block k, Delta = Delta_{psi,phi} maps x to rho_psi,k x rho_phi,k^+. With
    rho_phi,k = sum_i lam_i e_i e_i* and rho_psi,k = sum_j mu_j f_j f_j*, its
    eigenvectors are the f_j e_i*, with eigenvalues mu_j / lam_i, and xi_phi
    puts weight w_k lam_i |<f_j, e_i>|^2 on each. Independent of
    rel_entropy_closed: each block component is diagonalized here, and +inf
    is returned when weight sits on the kernel of psi.
    """
    _check_same_algebra(phi, psi)
    alg = phi.algebra
    blocks = []
    for w, a, b in zip(phi.tau.weights, alg.block_components(phi.rho),
                       alg.block_components(psi.rho)):
        ea, eb = herm_eig(a), herm_eig(b)
        overlap = np.abs(dagger(ea.eigenvectors) @ eb.eigenvectors) ** 2
        weight = w * ea.eigenvalues[:, None] * overlap
        blocks.append((ea.eigenvalues, eb.eigenvalues, weight))
    lam_top = max(float(np.abs(lam).max(initial=0.0)) for lam, _, _ in blocks)
    mu_top = max(float(np.abs(mu).max(initial=0.0)) for _, mu, _ in blocks)
    w_cut = SPECTRAL_FLOOR * max(1.0, float(phi.mass))
    total = 0.0
    for lam, mu, weight in blocks:
        live = lam > SPECTRAL_FLOOR * lam_top
        kernel = mu <= SPECTRAL_FLOOR * mu_top
        weight = weight[live]
        if np.any(weight[:, kernel] > w_cut):
            return POS_INF
        logs = np.log(lam[live])[:, None] - np.log(mu[~kernel])
        total += float(np.sum(weight[:, ~kernel] * logs))
    return total


# -- the standard form ---------------------------------------------------------


@dataclass(eq=False)
class StandardForm:
    """Trace GNS space L^2(A, tau) in block coordinates.

    A member x = (+)_k x_k (x) 1_{m_k} has coordinates (+)_k sqrt(w_k) x_k,
    each block row-major: its coefficients against the orthonormal basis of
    matrix units scaled by 1 / sqrt(w_k). Left multiplication by a becomes
    block-diag(a_k (x) 1).
    """

    algebra: MultiMatrixAlgebra
    tau: TraceWeight

    def __post_init__(self):
        # the coordinates are exact only when the block ranges are orthonormal
        w = np.concatenate(self.algebra.isometries, axis=1)
        if frob(dagger(w) @ w - np.eye(w.shape[1])) > FRAME_TOL:
            raise ArithmeticError("GNS basis failed orthonormality check")
        self.hs_dim = self.algebra.dim_linear

    def vectorize(self, x) -> np.ndarray:
        """The GNS vector of a member, or one per member of a stack (..., hs_dim)."""
        comps = self.algebra.block_components(x)
        return np.concatenate([math.sqrt(w) * c.reshape(c.shape[:-2] + (-1,))
                               for w, c in zip(self.tau.weights, comps)], axis=-1)

    def left_algebra(self) -> MultiMatrixAlgebra:
        """The left multiplications lambda(A): (+)_k M_{n_k} (x) 1_{n_k} in these coordinates."""
        return algebra_from_blocks([(n, n) for n, _ in self.algebra.blocks])

    def left_matrix(self, a) -> np.ndarray:
        return _block_diag([np.kron(c, np.eye(len(c))) for c in self.algebra.block_components(a)])

    def subspace_projection(self, sub: MultiMatrixAlgebra) -> np.ndarray:
        """Orthogonal projection of the GNS space onto the closure of a subalgebra."""
        rows = np.stack([self.vectorize(b) for b in sub.canonical_basis()])
        u, s, vh = np.linalg.svd(rows, full_matrices=False)
        rank = int(np.sum(s > RANK_TOL * s[0]))
        vh = vh[:rank]
        return dagger(vh) @ vh

    def cyclic_vector(self, phi: State) -> np.ndarray:
        return self.vectorize(phi.density_function(_SQRT, support_only=True))


# -- Kosaki variational formula ----------------------------------------------


@dataclass(frozen=True)
class KosakiGrid:
    """Step-function grid for the variational formula.

    breakpoints run from 1/n to the tail cut; the step function is
    optimized per slice and pinned to the identity on the tail, so the
    evaluation is an exact lower bound for the supremum.
    """

    breakpoints: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        if b.ndim != 1:
            raise ValueError(f"KosakiGrid breakpoints must be a 1-D array, got shape {b.shape}")
        if b.size < 2:
            raise ValueError(f"KosakiGrid needs at least two breakpoints, got {b.size}")
        if not np.all(np.isfinite(b)):
            raise ValueError("KosakiGrid breakpoints must be finite")
        if not b[0] > 0:
            raise ValueError(f"KosakiGrid breakpoints must be positive, got {b[0]!r} first")
        if not np.all(b[1:] > b[:-1]):
            raise ValueError("KosakiGrid breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", b)

    @property
    def n(self) -> float:
        return 1.0 / float(self.breakpoints[0])

    @property
    def t_max(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def slices(self) -> int:
        return len(self.breakpoints) - 1

    @classmethod
    def default(cls, psi_mass: float = 1.0, n: float = 2.0 ** 20, slices: int = 400,
                t_max: float | None = None) -> "KosakiGrid":
        t_max = t_max if t_max is not None else 1e6 * max(1.0, float(psi_mass))
        return cls(breakpoints=np.geomspace(1.0 / n, t_max, slices + 1))

    def refined(self) -> "KosakiGrid":
        """Nest the old breakpoints: split every slice and push the left edge to 1/n^2."""
        b = self.breakpoints
        mids = np.sqrt(b[:-1] * b[1:])
        merged = np.sort(np.concatenate([b, mids]))
        density = 2.0 * self.slices / math.log(self.t_max * self.n)
        ext_slices = max(1, int(math.ceil(math.log(self.n) * density)))
        left = np.geomspace(1.0 / self.n ** 2, 1.0 / self.n, ext_slices + 1)
        return KosakiGrid(breakpoints=np.concatenate([left[:-1], merged]))


def kosaki_eval(phi: State, psi: State, subspace=None, grid: KosakiGrid | None = None) -> float:
    """Lower bound for S_V(phi||psi) from the variational formula.

    The functional phi(1) log n - integral of [phi(y* y) + t^{-1} psi(x x*)]
    dt/t is evaluated exactly at the step function that solves the convex
    quadratic slice problems over V, with x = 1 on the tail.  The value
    never exceeds the supremum and is nondecreasing under grid refinement
    (nested breakpoints), enlargement of V, and decrease of psi.

    Every slice problem (a g + b h) c = a conj(f) comes from one pencil:
    g + h is whitened once and g diagonalized in those coordinates, so the
    minimizers of all slices are diagonal rescalings of one vector.  The
    value returned is the functional at those minimizers, evaluated with
    the original Gram matrices; no regularization enters.
    """
    _check_same_algebra(phi, psi)
    span = list(subspace) if subspace is not None else phi.algebra.canonical_basis()
    dim = phi.algebra.dim
    rows = np.asarray(span, dtype=complex).reshape(len(span), -1)

    # orthonormal basis v_i of V; the tail step needs the identity in V
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    vh = vh[s > RANK_TOL * s[0]]
    eye = np.eye(dim, dtype=complex).ravel()
    if frob(eye - (np.conj(vh) @ eye) @ vh) > SPAN_TOL * math.sqrt(dim):
        raise ValueError("kosaki_eval requires the identity to lie in the subspace")

    # phi(x) = Tr(A x) and psi(x) = Tr(B x) with A = T rho_phi, B = T rho_psi
    # (T the ambient density of the trace):
    # g_ij = phi(v_i* v_j) = <v_i, v_j A>, h_ij = psi(v_j v_i*) = <v_i, B v_j>
    a_mat = phi.tau.ambient_density @ phi.rho
    b_mat = psi.tau.ambient_density @ psi.rho
    nb = len(vh)
    stack = vh.reshape(nb, dim, dim)
    g = np.conj(vh) @ (stack @ a_mat).reshape(nb, -1).T
    h = np.conj(vh) @ (b_mat @ stack).reshape(nb, -1).T
    g = 0.5 * (g + dagger(g))
    h = 0.5 * (h + dagger(h))
    f = vh @ a_mat.T.ravel()
    phi1 = float(np.real(np.trace(a_mat)))
    psi1 = float(np.real(np.trace(b_mat)))

    if grid is None:
        grid = KosakiGrid.default(psi_mass=psi1)
    bp = grid.breakpoints
    a_w = np.log(bp[1:] / bp[:-1])
    b_w = 1.0 / bp[:-1] - 1.0 / bp[1:]

    # whiten g + h, dropping its kernel (there phi(v* v) = psi(v v*) = 0, so
    # f = 0 too), and diagonalize g in that frame: W* g W = diag(gamma) and
    # W* h W = 1 - diag(gamma).  Small eigenvalues of g + h magnify the
    # rounding asymmetry of the whitened g, hence its Hermitian part.
    pencil = herm_eig(g + h)
    lam = pencil.eigenvalues
    live = lam > SPECTRAL_FLOOR * max(1.0, float(lam[-1]))
    whiten = pencil.eigenvectors[:, live] / np.sqrt(lam[live])
    g_w = dagger(whiten) @ g @ whiten
    inner = herm_eig(0.5 * (g_w + dagger(g_w)))
    gamma = np.clip(inner.eigenvalues, 0.0, 1.0)
    w = whiten @ inner.eigenvectors
    f_t = dagger(w) @ np.conj(f)
    # column s is the minimizer c_s = a_s W diag(1 / (a_s gamma + b_s (1 - gamma))) W* conj(f)
    c = w @ (a_w * f_t[:, None] / (np.outer(gamma, a_w) + np.outer(1.0 - gamma, b_w)))

    lin = np.real(f @ c)
    quad = np.real(np.sum(np.conj(c) * (g @ c), axis=0))
    quad_h = np.real(np.sum(np.conj(c) * (h @ c), axis=0))
    slice_vals = a_w * (phi1 - 2.0 * lin + quad) + b_w * quad_h
    return phi1 * math.log(grid.n) - float(np.sum(slice_vals)) - psi1 / grid.t_max


# -- identities around conditional expectations -------------------------------


@dataclass(frozen=True)
class PetzDecomposition:
    """Both sides of the chain rule across a conditional expectation."""

    lhs: float
    restriction_term: float
    expectation_term: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.restriction_term - self.expectation_term)


def petz_decompose(phi: State, psi: State, inc) -> PetzDecomposition:
    """S(phi||psi o eps) = S(phi|_B||psi|_B) + S(phi||phi o eps) for eps onto B.

    For stacks of states each term is a per-member array.
    """
    _check_same_algebra(phi, psi)
    a = phi.algebra
    psi_eps = State(a, phi.tau, inc.apply(psi.rho))
    phi_eps = State(a, phi.tau, inc.apply(phi.rho))
    lhs = rel_entropy_closed(phi, psi_eps)
    restriction = rel_entropy_closed(restrict(phi, inc.sub), restrict(psi, inc.sub))
    expectation = rel_entropy_closed(phi, phi_eps)
    return PetzDecomposition(lhs=lhs, restriction_term=restriction, expectation_term=expectation)


def reverse_entropy(tau: TraceWeight, phi: State):
    """S(tau||phi) = -tau(log rho_phi) for the tracial state of a normalized trace.

    +inf when phi is not faithful (the tracial state charges every corner).
    A faithful density has no eigenvalue near enough to zero for the support
    cutoff of _log_density to drop it, so that is the full log rho.
    """
    if not tau.is_normalized:
        raise ValueError(f"reverse_entropy requires a normalized trace, got tau(1) = {tau.total}")
    unfaithful = ~np.asarray(phi.is_faithful)
    if not any_member(~unfaithful):
        return unwrap(np.full(unfaithful.shape, POS_INF))
    val = -np.real(tau.value(_log_density(phi, unfaithful)))
    return unwrap(np.where(unfaithful, POS_INF, val))


def bounded_entropy_approximation(phi: State, k: float) -> State:
    """Bounded approximant of the trace from below: density min(1, k rho_phi).

    The approximants increase to tau as k grows (equality once k exceeds
    1 over the least eigenvalue of rho), and S(phi||psi_k) decreases to
    S(phi||tau).
    """
    if not k > 0:
        raise ValueError("cutoff index k must be positive")
    rho_k = phi.density_function(lambda s: min(1.0, k * s.real))
    return State(phi.algebra, phi.tau, rho_k)
