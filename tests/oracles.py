"""Test-only reference routes that the library replaced by closed constructions."""

import numpy as np

from vne.algebra import wedderburn_decompose
from vne.linalg import dagger


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
