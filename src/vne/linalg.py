"""Dense Hermitian linear algebra helpers shared by the whole package.

Everything operates on complex numpy arrays.  Matrices are small (desk
scale, ambient dimension <= 32 or so), so we favour clarity and strict
validation over speed.  The matrix helpers take one matrix of shape (D, D)
or a stack of shape (..., D, D); a stack is checked member by member, and an
error names the first failing member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# -- numerical policy: every threshold of the package, named by its role. A site
# scales its threshold as it states (by a norm, a top eigenvalue, a mass).

# Hermitian input: max|H - H*| allowed per unit of 1 + max|H|
HERM_TOL = 1e-12
# a State's density: Hermitian part, negative eigenvalues, declared and unit mass
DENSITY_TOL = 1e-10
# Hermitian check of the assembled relative modular operator
MODULAR_HERM_TOL = 1e-9
# Hermitian check of the generic member that splits a span into eigenspaces
GENERIC_HERM_TOL = 1e-8
# certificates: eigendecomposition residuals, commutant, unital and trace-preserving expectation
CERT_TOL = 1e-10
# smallest norm a relative residual is measured against
NORM_FLOOR = 1e-300
# an eigenvalue or spectral weight below this times the top one counts as zero
SPECTRAL_FLOOR = 1e-12
# kernel of the relative modular operator, relative to max(1, top eigenvalue)
KERNEL_FLOOR = 1e-13
# a singular value below this times the top one drops out of the numerical rank
RANK_TOL = 1e-10
# membership: relative distance from an algebra or a span
SPAN_TOL = 1e-9
# membership of one algebra's generating units in another's span
SAME_SPAN_TOL = 1e-8
# joint orthonormality of block isometries, as |W*W - 1|_F
FRAME_TOL = 1e-8
# the same check on the GNS coordinates of a standard form
GNS_FRAME_TOL = 1e-9
# a trace weight is normalized when |tau(1) - 1| is at most this
NORMALIZED_TOL = 1e-12
# construction checks of an expectation: membership, idempotence, bimodule, positivity
CHECK_TOL = 1e-9
# gap between eigenvalue clusters of a generic member, relative to its spread
CLUSTER_TOL = 1e-6
# coupling between eigenspaces of a generic member, relative to its norm
COUPLING_TOL = 1e-8
# rounds of products that closing a generating set under multiplication may take
CLOSURE_ROUNDS = 12
# mass of phi outside the support of psi, relative to max(1, mass), that makes S infinite
SUPPORT_LEAK_TOL = 1e-10
# support leak of eps(X) below X that ends the index ascent at +inf
ASCENT_LEAK_TOL = 1e-6
# projected gradient that stops the index ascent, relative to max(1, value)
GRADIENT_TOL = 1e-11
# least gain the index ascent's line search accepts
ASCENT_GAIN = 1e-14
# Choi pencil: the identity's Choi matrix outside the support of eps's, relative
PENCIL_TOL = 1e-8
# two routes to one value (or to an order between two) agree within this, relative
ROUTE_TOL = 1e-9
# dual side: E'(e_B) is scalar, and its index meets the Choi route, relative
DUAL_TOL = 1e-6
# how far below zero a quantity that cannot be negative may round
SIGN_TOL = 1e-10
# how far the Kosaki lower bound may pass the closed form
KOSAKI_TOL = 1e-12
# the searched positive index against its known value in the tower suite, relative
INDEX_SEARCH_TOL = 1e-5


def frob(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def frob_each(a):
    """Frobenius norm of a matrix, or of each matrix of a stack."""
    # axis=None takes norm's flattened fast path for one matrix
    return np.linalg.norm(a, axis=None if a.ndim == 2 else (-2, -1))


def dagger(a):
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def kron(a, b):
    """np.kron of a and b, member by member when they are stacks."""
    a, b = np.asarray(a), np.asarray(b)
    (p, q), (r, s) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (p * r, q * s))


def unwrap(a):
    """A Python scalar for a scalar or 0-d result (one matrix), the array for a stack."""
    if isinstance(a, (np.ndarray, np.generic)) and a.ndim == 0:
        return a.item()
    return a


def any_member(flags) -> bool:
    """Whether any member is flagged; a numpy scalar for one matrix is read directly."""
    return bool(flags) if flags.ndim == 0 else bool(flags.any())


def first_failure(bad) -> tuple:
    """Index of the first flagged member of a per-member mask; () for one matrix."""
    return np.unravel_index(int(np.argmax(bad)), np.shape(bad))


def member_note(at: tuple) -> str:
    """Error-message suffix naming a stack member; empty for one matrix."""
    if not at:
        return ""
    return f" (stack member {int(at[0]) if len(at) == 1 else tuple(int(i) for i in at)})"


def check_hermitian(h, tol: float = HERM_TOL):
    """Return h as a complex array, rejecting non-finite or non-Hermitian input.

    The allowed asymmetry is tol * (1 + max|h|) per matrix; the raised error
    reports the actual violation magnitude.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    hd = dagger(h)
    if h.shape[-1]:
        top = np.abs(h).max(axis=(-2, -1))
        infinite = ~(top < np.inf)  # max|h| is NaN or inf exactly when an entry is
        if any_member(infinite):
            at = first_failure(infinite)
            member = h[at]
            bad = ~np.isfinite(member)
            i, j = np.argwhere(bad)[0]
            entry = member[i, j].real if member[i, j].imag == 0 else member[i, j]
            count = int(bad.sum())
            what = "a non-finite entry" if count == 1 else f"{count} non-finite entries, the first"
            raise ValueError(f"matrix has {what} {entry} at ({i}, {j}){member_note(at)}")
        dev = np.abs(h - hd).max(axis=(-2, -1))
        over = dev > tol * (1.0 + top)
        if any_member(over):
            at = first_failure(over)
            scale = 1.0 + float(top[at])
            raise ValueError(f"matrix is not Hermitian: max|H - H*| = {float(dev[at]):.3e} "
                             f"exceeds {tol:.1e} * (1 + max|H|) = {tol * scale:.3e}"
                             f"{member_note(at)}")
    return 0.5 * (h + hd)


@dataclass(frozen=True)
class EigenSystem:
    """Spectral data of a Hermitian matrix, or of each matrix of a stack:
    ascending eigenvalues (..., D), unitary eigenvectors (..., D, D)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self):
        w, v = self.eigenvalues, self.eigenvectors
        return (v * w[..., None, :]) @ dagger(v)

    def apply(self, f, support_only: bool = False):
        """f of the Hermitian matrix with this spectrum, by spectral mapping.

        f is a scalar function; it is mapped over every retained eigenvalue
        of the stack in one np.frompyfunc call.  With support_only=True,
        eigenvalues within SPECTRAL_FLOOR * max|eig| of zero (per matrix) are mapped
        to zero without evaluating f (the 0 log 0 = 0 convention).  If f
        raises or is non-finite at some retained eigenvalue, a domain error
        naming the first such eigenvalue is raised.
        """
        w = self.eigenvalues
        if support_only:
            keep = np.abs(w) > SPECTRAL_FLOOR * np.abs(w).max(axis=-1, keepdims=True, initial=0.0)
        else:
            keep = np.ones(w.shape, dtype=bool)
        fw = np.zeros(w.shape, dtype=complex)
        retained = w[keep]
        if retained.size:
            with np.errstate(all="ignore"):
                try:
                    vals = np.frompyfunc(f, 1, 1)(retained).astype(complex)
                except (ValueError, ZeroDivisionError, OverflowError):
                    vals = None
            if vals is None or not np.isfinite(vals).all():
                raise ValueError(f"function undefined at eigenvalue {_offender(f, retained)!r}")
            fw[keep] = vals
        v = self.eigenvectors
        return (v * fw[..., None, :]) @ dagger(v)


def _offender(f, values):
    """The first value at which f raises a domain error or is not finite."""
    with np.errstate(all="ignore"):
        for x in values:
            try:
                if not np.isfinite(complex(f(x))):
                    return x
            except (ValueError, ZeroDivisionError, OverflowError):
                return x
    return None


def herm_eig(h, tol: float = HERM_TOL) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack,
    with validated output.

    Ascending real eigenvalues; reconstruction and unitarity residuals are
    checked per matrix against its scale before returning.
    """
    hh = check_hermitian(h, tol)
    w, v = np.linalg.eigh(hh)
    vh = dagger(v)
    resid = frob_each((v * w[..., None, :]) @ vh - hh)
    over = resid > CERT_TOL * np.maximum(frob_each(hh), NORM_FLOOR)
    if any_member(over):
        at = first_failure(over)
        raise ArithmeticError(f"eigendecomposition residual {float(resid[at]):.3e} "
                              f"exceeds {CERT_TOL:.0e} * |H|_F{member_note(at)}")
    unit = frob_each(vh @ v - np.eye(hh.shape[-1]))
    over = unit > CERT_TOL
    if any_member(over):
        at = first_failure(over)
        raise ArithmeticError(f"eigenvector unitarity residual {float(unit[at]):.3e} "
                              f"exceeds {CERT_TOL:.0e}{member_note(at)}")
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def matrix_function(h, f, support_only: bool = False):
    """Apply a scalar function to a Hermitian matrix: herm_eig, then EigenSystem.apply."""
    return herm_eig(h).apply(f, support_only)


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
