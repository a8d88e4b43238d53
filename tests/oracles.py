"""Test-only reference routes that the library replaced by closed constructions."""

import math

import numpy as np
from scipy.linalg import block_diag

from vne.algebra import wedderburn_decompose
from vne.linalg import SPECTRAL_FLOOR, check_hermitian, dagger, herm_eig
from vne.relent import StandardForm
from vne.states import POS_INF

# Hermitian check of the assembled dense modular operator, and its kernel cut
# relative to max(1, top eigenvalue)
MODULAR_HERM_TOL = 1e-9
KERNEL_FLOOR = 1e-13


def nullspace_commutant(generators, d, seed=0):
    """The commutant of a generating set as the joint kernel of x -> h x - x h.

    h runs over the generators and their adjoints; the kernel comes from an
    economy SVD of the stacked d^2 x d^2 systems and is structured by
    wedderburn_decompose. Its cost grows as d^6, so keep d small.
    """
    eye = np.eye(d, dtype=complex)
    rows = [np.kron(h, eye) - np.kron(eye, h.T)
            for g in generators for h in (np.asarray(g, dtype=complex), dagger(g))]
    system = np.concatenate(rows + [np.zeros((d * d, d * d))])  # at least d^2 rows
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    kernel = vh[s <= 1e-10 * max(float(s[0]), 1.0)].conj()
    return wedderburn_decompose(kernel.reshape(-1, d, d), seed=seed)


def right_matrix(form: StandardForm, a) -> np.ndarray:
    """Right multiplication by a member on the GNS space: block-diag(1 (x) a_k^T)."""
    return block_diag(*[np.kron(np.eye(len(c)), c.T) for c in form.algebra.block_components(a)])


def dense_modular_relent(phi, psi) -> float:
    """S(phi||psi) = -(xi_phi, log Delta xi_phi) from the dense relative modular operator.

    Delta_{psi,phi}: x -> rho_psi x rho_phi^+ is built as an hs x hs matrix on
    the trace GNS space, hs = sum_k n_k^2, and diagonalized whole; +inf when
    the cyclic vector charges its kernel. Its cost grows as D^6 on M_D.
    """
    form = StandardForm(phi.algebra, phi.tau)
    inv_phi = phi.density_function(lambda x: 1.0 / x, support_only=True)
    delta = form.left_matrix(psi.rho) @ right_matrix(form, inv_phi)
    es = herm_eig(check_hermitian(delta, tol=MODULAR_HERM_TOL))
    weights = np.abs(dagger(es.eigenvectors) @ form.cyclic_vector(phi)) ** 2
    lam = es.eigenvalues
    lam_cut = KERNEL_FLOOR * max(1.0, float(np.max(lam)))
    w_cut = SPECTRAL_FLOOR * max(1.0, float(np.sum(weights)))
    total = 0.0
    for l, w in zip(lam, weights):
        if l <= lam_cut:
            if w > w_cut:
                return POS_INF
            continue
        total -= w * math.log(l)
    return float(total)
