"""Test-only inclusions B in A built from a Bratteli matrix, in a random frame.

A-block k is M_{n_k} (x) 1_{m_A[k]} with n_k = sum_l lam[k][l] n_B[l], and
C^{n_k} = (+)_l C^{n_B[l]} (x) C^{lam[k][l]}, so B-block l sits in A-block k
with multiplicity lam[k][l]. The trace on A has weight t[k] on a minimal
projection of block k.
"""

import numpy as np

from vne.algebra import MultiMatrixAlgebra, TraceWeight
from vne.inclusion import trace_expectation


def inclusion_from_bratteli(lam, n_b, m_a, t, rng):
    """The inclusion of Bratteli matrix lam, conjugated by a Haar random unitary."""
    lam, n_b, m_a = (np.asarray(v, dtype=int) for v in (lam, n_b, m_a))
    n_a = lam @ n_b
    dim = int(n_a @ m_a)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    frame, _ = np.linalg.qr(g)
    starts = np.concatenate([[0], np.cumsum(n_a * m_a)])  # ambient offset of A-block k

    a_iso = [frame[:, starts[k]:starts[k + 1]] for k in range(len(n_a))]
    b_iso = []
    for l, n in enumerate(n_b):
        # column (i, beta), beta running over (k, a, alpha): row offset + i lam_kl + a
        # of C^{n_k}, copy alpha
        cols = [starts[k] + (lam[k, :l] @ n_b[:l] + i * lam[k, l] + a) * m_a[k] + alpha
                for i in range(n) for k in range(len(n_a))
                for a in range(lam[k, l]) for alpha in range(m_a[k])]
        b_iso.append(frame[:, cols])
    ambient = MultiMatrixAlgebra(dim, tuple(zip(n_a.tolist(), m_a.tolist())), a_iso)
    sub = MultiMatrixAlgebra(dim, tuple(zip(n_b.tolist(), (lam.T @ m_a).tolist())), b_iso)
    return trace_expectation(ambient.validate(), sub.validate(), TraceWeight(ambient, tuple(t)))


def pp_index_closed(lam, n_b, t):
    """Pimsner-Popa index max_k (1/t_k) sum_l min(lam_kl, n_l) s_l, with s = lam^T t."""
    lam = np.asarray(lam, dtype=float)
    s = lam.T @ np.asarray(t, dtype=float)
    return float(np.max((np.minimum(lam, np.asarray(n_b)) @ s) / np.asarray(t)))
