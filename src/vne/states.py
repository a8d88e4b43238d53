"""States and positive functionals on multi-matrix algebras.

A functional phi is stored through its density rho with respect to a trace
weight tau: phi(x) = tau(rho x).  States have mass tau(rho) = 1; general
positive functionals carry any positive mass.  A State may hold a stack of
densities (..., D, D) on one algebra and trace; its mass, the entropies and
the restriction are then one value per member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import MultiMatrixAlgebra, TraceWeight, tensor_algebra
from .linalg import (DENSITY_TOL, SPECTRAL_FLOOR, EigenSystem, any_member, check_hermitian,
                     dagger, first_failure, frob_each, herm_eig, kron, matrix_function,
                     member_note, unwrap)

NEG_INF = float("-inf")
POS_INF = float("inf")

_XLOGX = lambda x: x * math.log(x.real) if x.real > 0 else 0.0


@dataclass(eq=False)
class State:
    """Positive functional phi(x) = tau(rho x) on a multi-matrix algebra.

    rho is a private read-only copy of the given density, or of a stack of
    densities. Its eigensystem, computed and validated once at construction,
    serves every spectral function of the state (spectrum,
    density_function). For a stack, mass is an array and every check
    applies to each member; an error names the first failing member.
    """

    algebra: MultiMatrixAlgebra
    tau: TraceWeight
    rho: np.ndarray
    mass: float | np.ndarray = field(default=None)
    _eig: EigenSystem = field(init=False, repr=False)
    _hermitian_checked: bool = field(init=False, repr=False, default=False)

    def __post_init__(self):
        self.rho = np.array(self.rho, dtype=complex)
        self.rho.flags.writeable = False
        self.algebra.require_member(self.rho, "density")
        self._eig = herm_eig(self.rho, tol=DENSITY_TOL)
        w = self._eig.eigenvalues
        w.flags.writeable = self._eig.eigenvectors.flags.writeable = False
        negative = w[..., 0] < -DENSITY_TOL * np.maximum(1.0, np.abs(w).max(axis=-1))
        if any_member(negative):
            at = first_failure(negative)
            raise ValueError(f"density has negative eigenvalue {float(w[at][0]):.3e}"
                             f"{member_note(at)}")
        mass = np.real(self.tau.value(self.rho))
        if self.mass is None:
            self.mass = mass
            return
        declared = np.asarray(self.mass, dtype=float)
        if not np.isfinite(declared).all():
            raise ValueError(f"declared mass must be finite, got {self.mass}")
        off = np.abs(mass - declared) > DENSITY_TOL * np.maximum(1.0, np.abs(declared))
        if any_member(off):
            at = first_failure(off)
            raise ValueError(f"declared mass {declared[at]} but tau(rho) = "
                             f"{np.asarray(mass)[at]}{member_note(at)}")

    def __call__(self, x) -> complex:
        return self.tau.value(self.rho @ np.asarray(x, dtype=complex))

    @property
    def is_state(self) -> bool:
        return abs(self.mass - 1.0) <= DENSITY_TOL

    def spectrum(self) -> EigenSystem:
        """The eigensystem of rho, held since construction.

        Construction admits an asymmetry of rho up to DENSITY_TOL; the first call
        also applies the stricter HERM_TOL check of matrix_function and
        remembers that it passed.
        """
        if not self._hermitian_checked:
            check_hermitian(self.rho)
            self._hermitian_checked = True
        return self._eig

    def density_function(self, f, support_only: bool = False) -> np.ndarray:
        """f(rho) by spectral mapping; equal to matrix_function(rho, f, support_only)."""
        return self.spectrum().apply(f, support_only)

    def min_eigenvalue(self):
        return unwrap(self.spectrum().eigenvalues[..., 0])

    @property
    def is_faithful(self):
        return unwrap(self.min_eigenvalue() > SPECTRAL_FLOOR * np.maximum(1.0, frob_each(self.rho)))

    def scaled(self, c) -> "State":
        c = np.asarray(c, dtype=float)
        if not (np.all(c > 0) and np.isfinite(c).all()):
            raise ValueError("scaling of a positive functional must be positive and finite")
        return State(self.algebra, self.tau, c[..., None, None] * self.rho)


def maximally_mixed(algebra: MultiMatrixAlgebra, tau: TraceWeight) -> State:
    """The tracial state tau / tau(1)."""
    return State(algebra, tau, algebra.identity() / tau.total)


def pure_state(algebra: MultiMatrixAlgebra, tau: TraceWeight, vector) -> State:
    """Vector state on a full matrix algebra (single block, multiplicity one)."""
    if algebra.blocks != ((algebra.dim, 1),):
        raise ValueError("pure_state requires a full matrix algebra acting on its own space")
    v = np.asarray(vector, dtype=complex).reshape(-1, 1)
    if not (np.isfinite(v).all() and np.any(v)):
        raise ValueError("pure_state requires a nonzero finite vector")
    p = v @ dagger(v)
    return State(algebra, tau, p / float(np.real(tau.value(p))))


# -- entropies ---------------------------------------------------------------


def s_tau(phi: State, require_faithful: bool = False):
    """Entropy relative to the trace: -tau(rho log rho), 0 log 0 = 0.

    With require_faithful=True a support-deficient density yields the
    distinguished -inf marker instead of the finite spectral sum.
    """
    xlx = phi.density_function(_XLOGX, support_only=True)
    val = -np.real(phi.tau.value(xlx))
    if require_faithful:
        val = np.where(phi.is_faithful, val, NEG_INF)
    return unwrap(val)


def s_vn(phi: State) -> float:
    """Von Neumann entropy of phi on the abstract block algebra (+)_k M_{n_k}.

    The density against the block trace (1 on minimal projections,
    multiplicities quotiented out) is sigma_k = w_k rho_k; the entropy is
    -sum_k Tr(sigma_k log sigma_k). On a full matrix algebra this is the
    usual -Tr(sigma log sigma).
    """
    if not np.all(phi.is_state):
        raise ValueError(f"s_vn requires a normalized state, got mass {phi.mass}")
    total = 0.0
    for w, c in zip(phi.tau.weights, phi.algebra.block_components(phi.rho)):
        xlx = matrix_function(w * c, _XLOGX, support_only=True)
        total -= np.real(np.trace(xlx, axis1=-2, axis2=-1))
    return unwrap(total)


def rescale_trace(phi: State, lam: float) -> State:
    """Re-express phi against lam * tau; the density becomes rho / lam."""
    return State(phi.algebra, phi.tau.scaled(lam), phi.rho / lam)


def tensor_state(phi: State, psi: State,
                 product_algebra: MultiMatrixAlgebra | None = None) -> State:
    """Product functional phi (x) psi on the tensor product algebra."""
    alg = product_algebra if product_algebra is not None \
        else tensor_algebra(phi.algebra, psi.algebra)
    weights = tuple(wa * wb for wa in phi.tau.weights for wb in psi.tau.weights)
    tau = TraceWeight(alg, weights)
    return State(alg, tau, kron(phi.rho, psi.rho))


def restrict(phi: State, sub: MultiMatrixAlgebra) -> State:
    """Restriction phi|_B as a state on the subalgebra with the restricted trace.

    The density is the unique member of B representing phi against tau|_B;
    this is the image of rho under the trace-preserving conditional
    expectation onto B.
    """
    tau_b = phi.tau.restricted_to(sub)
    rho_b = tau_b.density(phi.tau.ambient_density @ phi.rho)
    rho_b = 0.5 * (rho_b + dagger(rho_b))
    return State(sub, tau_b, rho_b)
