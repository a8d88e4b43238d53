"""Dense Hermitian linear algebra helpers shared by the whole package.

Everything operates on complex numpy arrays.  Matrices are small (desk
scale, ambient dimension <= 32 or so), so we favour clarity and strict
validation over speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-12


def frob(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def dagger(a):
    """Conjugate transpose."""
    return np.conj(a.T)


def check_hermitian(h, tol: float = HERM_TOL):
    """Return h as a complex array, rejecting non-Hermitian input.

    The allowed asymmetry is tol * (1 + max|h|); the raised error reports
    the actual violation magnitude.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = 1.0 + float(np.max(np.abs(h))) if h.size else 1.0
    dev = float(np.max(np.abs(h - dagger(h)))) if h.size else 0.0
    if dev > tol * scale:
        raise ValueError(f"matrix is not Hermitian: max|H - H*| = {dev:.3e} "
                         f"exceeds {tol:.1e} * (1 + max|H|) = {tol * scale:.3e}")
    return 0.5 * (h + dagger(h))


@dataclass(frozen=True)
class EigenSystem:
    """Spectral data of a Hermitian matrix: ascending eigenvalues, unitary eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self):
        w, v = self.eigenvalues, self.eigenvectors
        return (v * w) @ dagger(v)

    def apply(self, f, support_only: bool = False):
        """f of the Hermitian matrix with this spectrum, by spectral mapping.

        With support_only=True, eigenvalues within 1e-12 * max|eig| of zero
        are mapped to zero without evaluating f (the 0 log 0 = 0 convention).
        If f evaluates to a non-finite number at some retained eigenvalue, a
        domain error naming that eigenvalue is raised.
        """
        w = self.eigenvalues
        keep = np.ones(w.shape, dtype=bool)
        if support_only:
            cutoff = 1e-12 * float(np.max(np.abs(w))) if w.size else 0.0
            keep = np.abs(w) > cutoff
        fw = np.zeros(w.shape, dtype=complex)
        if np.any(keep):
            retained = w[keep]
            vals = np.empty(retained.shape, dtype=complex)
            with np.errstate(all="ignore"):
                for idx, x in enumerate(retained):
                    try:
                        vals[idx] = f(x)
                    except (ValueError, ZeroDivisionError, OverflowError) as exc:
                        raise ValueError(f"function undefined at eigenvalue {x!r}") from exc
            bad = ~np.isfinite(vals)
            if np.any(bad):
                offender = retained[bad][0]
                raise ValueError(f"function undefined at eigenvalue {offender!r}")
            fw[keep] = vals
        v = self.eigenvectors
        return (v * fw) @ dagger(v)


def herm_eig(h, tol: float = HERM_TOL) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with validated output.

    Ascending real eigenvalues; reconstruction and unitarity residuals are
    checked against the input scale before returning.
    """
    hh = check_hermitian(h, tol)
    w, v = np.linalg.eigh(hh)
    scale = max(frob(hh), 1e-300)
    resid = frob((v * w) @ dagger(v) - hh)
    if resid > 1e-10 * scale:
        raise ArithmeticError(f"eigendecomposition residual {resid:.3e} exceeds 1e-10 * |H|_F")
    unit = frob(dagger(v) @ v - np.eye(hh.shape[0]))
    if unit > 1e-10:
        raise ArithmeticError(f"eigenvector unitarity residual {unit:.3e} exceeds 1e-10")
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def matrix_function(h, f, support_only: bool = False, tol: float = HERM_TOL):
    """Apply a scalar function to a Hermitian matrix: herm_eig, then EigenSystem.apply."""
    return herm_eig(h, tol).apply(f, support_only)


def partial_trace(m, dims, side: str):
    """Trace out one tensor factor of an operator on C^d1 (x) C^d2.

    side names the factor being traced out:
    partial_trace(np.kron(a, b), (d1, d2), "right") == Tr(b) * a.
    """
    d1, d2 = dims
    m = np.asarray(m, dtype=complex)
    if m.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"shape {m.shape} incompatible with dims {dims}")
    t = m.reshape(d1, d2, d1, d2)
    if side == "right":
        return np.trace(t, axis1=1, axis2=3)
    if side == "left":
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def is_psd(h, tol: float = 1e-10) -> bool:
    """Whether a Hermitian matrix is positive semidefinite up to -tol."""
    w = herm_eig(h).eigenvalues
    return bool(w.size == 0 or float(w[0]) >= -tol)


@dataclass(frozen=True)
class LogGrid:
    """Quadrature layout for the integral representation of -log.

    The integral over t in (0, inf) is mapped by t = e^s onto the line and
    truncated to [s_min, s_max]; each of `panels` equal panels carries a
    Gauss-Legendre rule of the given order.
    """

    s_min: float = -40.0
    s_max: float = 40.0
    panels: int = 2000
    order: int = 4

    def nodes_weights(self):
        x, w = np.polynomial.legendre.leggauss(self.order)
        edges = np.linspace(self.s_min, self.s_max, self.panels + 1)
        lo, hi = edges[:-1], edges[1:]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        weights = (half[:, None] * w[None, :]).ravel()
        return nodes, weights


def log_quadrature(lam: float, grid: LogGrid | None = None) -> float:
    """-log(lam) through the integral of ((t+1)^-1 - lam (t+lam)^-1) dt/t.

    Uses the t = e^s substitution, under which dt/t = ds and the integrand
    decays exponentially both ways.  Accurate to well below 1e-6 for lam
    within a few dozen e-folds of 1.
    """
    if not lam > 0:
        raise ValueError(f"log_quadrature requires lam > 0, got {lam!r}")
    g = grid or LogGrid()
    s, w = g.nodes_weights()
    t = np.exp(s)
    integrand = 1.0 / (t + 1.0) - lam / (t + lam)
    return float(np.dot(w, integrand))
