"""Inclusions B in A of multi-matrix algebras.

Provides the trace-preserving conditional expectation onto a subalgebra,
two index constructions (a positive-element variant and a completely
positive variant), the dual expectation on the commutant side of the trace
GNS space, the entropy-sum identity splitting log of the index across an
inclusion and its commutant, and entropy gap reports for towers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    MultiMatrixAlgebra,
    TraceWeight,
    ambient_trace,
    commutant_of,
    full_matrix_algebra,
    normalized_trace,
    scalar_subalgebra,
    diagonal_subalgebra,
    tensor_algebra,
    tensor_left_subalgebra,
    wedderburn_decompose,
)
from .linalg import (ASCENT_GAIN, ASCENT_LEAK_TOL, CERT_TOL, DUAL_TOL, GRADIENT_TOL,
                     PENCIL_TOL, ROUTE_TOL, SPECTRAL_FLOOR, dagger, first_failure, frob,
                     herm_eig, member_note)
from .relent import StandardForm, rel_entropy_closed
from .states import State, restrict, s_tau, s_vn

__all__ = [
    "Inclusion",
    "IndexReport",
    "DualExpectation",
    "XuReport",
    "GapReport",
    "TowerLevelReport",
    "TowerReport",
    "trace_expectation",
    "scalar_inclusion",
    "diagonal_inclusion",
    "tensor_pair_inclusion",
    "pp_index_positive",
    "pp_index_cp",
    "index_report",
    "dual_expectation",
    "xu_identity",
    "entropy_gap_bound",
    "tower_gap_formula",
    "standard_binary_tower",
]


# -- conditional expectation --------------------------------------------------


@dataclass(eq=False)
class Inclusion:
    """A unital inclusion sub <= ambient carrying the trace expectation.

    eps(x) is the member of sub representing x -> tau(x .) on sub, which in
    block form is (+)_l V_l (Tr_{m_l}(V_l* T x V_l) / s_l (x) 1) V_l* for the
    ambient density T and the restricted weights s_l.  It is defined on every
    ambient matrix but only meaningful on members of the ambient algebra.
    apply, restrict_state and compress_state take a stack of matrices, or a
    State holding a stack, as well.
    """

    ambient: MultiMatrixAlgebra
    sub: MultiMatrixAlgebra
    tau: TraceWeight
    bipartite: tuple[int, int] | None = None
    _sub_trace: TraceWeight | None = field(default=None, repr=False)
    _index: "IndexReport | None" = field(default=None, repr=False)
    _dual: "DualExpectation | None" = field(default=None, repr=False)

    def apply(self, x) -> np.ndarray:
        return self.sub_trace.density(self.tau.ambient_density @ x)

    def adjoint_apply(self, y) -> np.ndarray:
        """Adjoint of eps for the unweighted Hilbert-Schmidt pairing: y -> T rho_sub(y).

        rho_sub is sub_trace.density, which is self-adjoint for that pairing.
        """
        return self.tau.ambient_density @ self.sub_trace.density(y)

    @property
    def sub_trace(self) -> TraceWeight:
        if self._sub_trace is None:
            self._sub_trace = self.tau.restricted_to(self.sub)
        return self._sub_trace

    def restrict_state(self, phi: State) -> State:
        """phi restricted to the subalgebra; density is eps(rho)."""
        if phi.algebra is not self.ambient and not self.ambient.same_span(phi.algebra):
            raise ValueError("state does not live on the ambient algebra")
        if phi.tau.weights != self.tau.weights:
            raise ValueError("state trace disagrees with the inclusion trace")
        rho = self.apply(phi.rho)
        rho = 0.5 * (rho + dagger(rho))
        return State(self.sub, self.sub_trace, rho)

    def compress_state(self, phi: State) -> State:
        """phi composed with eps, as a state back on the ambient algebra."""
        rho = self.apply(phi.rho)
        rho = 0.5 * (rho + dagger(rho))
        return State(self.ambient, phi.tau, rho)

    def index_report(self) -> "IndexReport":
        if self._index is None:
            self._index = index_report(self)
        return self._index

    def dual(self) -> "DualExpectation":
        if self._dual is None:
            self._dual = dual_expectation(self)
        return self._dual


def _random_member(alg: MultiMatrixAlgebra, rng) -> np.ndarray:
    return alg.random_hermitian(rng) + 1j * alg.random_hermitian(rng)


def trace_expectation(
    ambient: MultiMatrixAlgebra,
    sub: MultiMatrixAlgebra,
    tau: TraceWeight,
    bipartite: tuple[int, int] | None = None,
    check: bool = True,
    seed: int = 11,
) -> Inclusion:
    """The tau-preserving conditional expectation of ambient onto sub.

    eps(x) is the tau-orthogonal projection of x onto sub, which for a
    subalgebra is automatically unital, idempotent, positive, a sub-bimodule
    map, and trace preserving; all five are verified on construction.
    """
    if tau.algebra is not ambient and not tau.algebra.same_span(ambient):
        raise ValueError("trace is not defined on the ambient algebra")
    for u in sub.generating_units():
        ambient.require_member(u, what="subalgebra generator")
    inc = Inclusion(ambient, sub, tau, bipartite=bipartite)

    if check:
        eye = ambient.identity()
        if frob(inc.apply(eye) - eye) > CERT_TOL * math.sqrt(ambient.dim):
            raise ArithmeticError("expectation is not unital")
        rng = np.random.default_rng(seed)
        for _ in range(4):
            x = _random_member(ambient, rng)
            ex = inc.apply(x)
            scale = max(1.0, frob(x))
            if sub.membership_residual(ex) > CERT_TOL * scale:
                raise ArithmeticError("expectation leaves the subalgebra")
            if frob(inc.apply(ex) - ex) > CERT_TOL * scale:
                raise ArithmeticError("expectation is not idempotent")
            if abs(tau.value(ex) - tau.value(x)) > CERT_TOL * scale:
                raise ArithmeticError("expectation does not preserve the trace")
            b1, b2 = sub.random_hermitian(rng), sub.random_hermitian(rng)
            bim = inc.apply(b1 @ x @ b2) - b1 @ ex @ b2
            if frob(bim) > CERT_TOL * scale * max(1.0, frob(b1) * frob(b2)):
                raise ArithmeticError("expectation violates the bimodule property")
            h = inc.apply(x @ dagger(x))
            low = float(np.min(np.linalg.eigvalsh(0.5 * (h + dagger(h)))))
            if low < -CERT_TOL * scale * scale:
                raise ArithmeticError(f"expectation not positive, eigenvalue {low:.3e}")
    return inc


def scalar_inclusion(n: int, tau: TraceWeight | None = None) -> Inclusion:
    """Scalars inside M_n; eps(x) = tau(x)/tau(1) * 1."""
    a = full_matrix_algebra(n)
    tau = normalized_trace(a) if tau is None else tau
    return trace_expectation(a, scalar_subalgebra(n), tau)


def diagonal_inclusion(n: int, tau: TraceWeight | None = None) -> Inclusion:
    a = full_matrix_algebra(n)
    tau = normalized_trace(a) if tau is None else tau
    return trace_expectation(a, diagonal_subalgebra(n), tau)


def tensor_pair_inclusion(p: int, q: int, tau: TraceWeight | None = None) -> Inclusion:
    """M_p tensor 1 inside M_{pq}; eps slices out the right tensor factor."""
    a = full_matrix_algebra(p * q)
    tau = normalized_trace(a) if tau is None else tau
    return trace_expectation(a, tensor_left_subalgebra(p, q), tau, bipartite=(p, q))


# -- the positive-element index ----------------------------------------------


def _pinv_psd(m):
    es = herm_eig(0.5 * (m + dagger(m)))
    lam = np.maximum(es.eigenvalues, 0.0)
    top = float(np.max(lam)) if lam.size else 0.0
    keep = lam > SPECTRAL_FLOOR * max(top, 1.0)
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / lam[keep]
    pinv = (es.eigenvectors * inv) @ dagger(es.eigenvectors)
    supp = (es.eigenvectors[:, keep]) @ dagger(es.eigenvectors[:, keep])
    return pinv, supp


def _block_frame(inc: Inclusion, k: int, u: np.ndarray) -> np.ndarray:
    # isometry onto the range of the projection embedding uu* tensor 1_m
    n, m = inc.ambient.blocks[k]
    v = inc.ambient.isometries[k]
    return v @ (u[:, None, None] * np.eye(m)).reshape(n * m, m)


def _pp_value(inc: Inclusion, k: int, u: np.ndarray):
    """lambda_max of X eps(X)^+ X for X the projection built from u.

    Returns (value, frame vector attaining it, pseudo-inverse image, leak).
    A support leak of eps(X) below X means no finite constant works.
    """
    w_frame = _block_frame(inc, k, u)
    x = w_frame @ dagger(w_frame)
    mp, supp = _pinv_psd(inc.apply(x))
    leak = frob(w_frame - supp @ w_frame)
    y_small = dagger(w_frame) @ mp @ w_frame
    es = herm_eig(0.5 * (y_small + dagger(y_small)))
    idx = int(np.argmax(es.eigenvalues))
    val = float(es.eigenvalues[idx])
    y = w_frame @ es.eigenvectors[:, idx]
    return val, y, mp @ y, leak


def _pp_gradient(inc: Inclusion, k: int, u: np.ndarray, y: np.ndarray, w: np.ndarray):
    # d/d(conj u) of y* eps(X_u)^+ y at the attaining frame vector y, w = eps(X)^+ y
    n, m = inc.ambient.blocks[k]
    v = inc.ambient.isometries[k]
    c = np.outer(w, y.conj()) + np.outer(y, w.conj()) - inc.adjoint_apply(np.outer(w, w.conj()))
    small = dagger(v) @ c @ v
    small = small.reshape(n, m, n, m)
    ctil = np.einsum("iaja->ij", small)
    return ctil @ u


def _ascend(inc: Inclusion, k: int, u0: np.ndarray, iters: int) -> tuple[float, np.ndarray, np.ndarray]:
    u = u0 / np.linalg.norm(u0)
    val, y, w, leak = _pp_value(inc, k, u)
    if leak > ASCENT_LEAK_TOL:
        return math.inf, u, y
    step = 0.5
    for _ in range(iters):
        g = _pp_gradient(inc, k, u, y, w)
        g = g - np.vdot(u, g) * u
        gn = float(np.linalg.norm(g))
        if gn < GRADIENT_TOL * max(1.0, abs(val)):
            break
        improved = False
        for _ in range(25):
            cand = u + step * g
            cand = cand / np.linalg.norm(cand)
            cval, cy, cw, cleak = _pp_value(inc, k, cand)
            if cleak > ASCENT_LEAK_TOL:
                return math.inf, cand, cy
            if cval > val + ASCENT_GAIN:
                u, val, y, w = cand, cval, cy, cw
                improved = True
                step = min(step * 1.6, 4.0)
                break
            step *= 0.5
        if not improved:
            break
    return val, u, y


def _schmidt_candidates(p: int, q: int, rng, count: int = 48):
    """Unit vectors of M_{pq} organized by Schmidt weight across the split."""
    r = min(p, q)
    weights = [np.ones(r) / r]
    for i in range(1, r):
        e = np.zeros(r)
        e[: i + 1] = 1.0 / (i + 1)
        weights.append(e)
    weights.extend(rng.dirichlet(np.ones(r), size=count))
    out = []
    for s in weights:
        v = np.zeros(p * q, dtype=complex)
        for i in range(r):
            e = np.zeros(p, dtype=complex)
            f = np.zeros(q, dtype=complex)
            e[i] = 1.0
            f[i] = 1.0
            v += math.sqrt(max(float(s[i]), 0.0)) * np.kron(e, f)
        out.append(v / np.linalg.norm(v))
    return out


def pp_index_positive(inc: Inclusion, starts: int = 64, iters: int = 120, seed: int = 7):
    """sup over positive x in the ambient of the best constant in eps(x) >= x/c.

    The supremum is attained on projections of the form uu* tensor 1 inside a
    single block, so the search runs multistart gradient ascent over unit
    vectors u per block. Returns (value, witness GNS-side vector, block index).
    """
    rng = np.random.default_rng(seed)
    best = -math.inf
    best_y = None
    best_k = 0
    for k, (n, _) in enumerate(inc.ambient.blocks):
        cands = []
        for i in range(n):
            e = np.zeros(n, dtype=complex)
            e[i] = 1.0
            cands.append(e)
        cands.append(np.ones(n, dtype=complex) / math.sqrt(n))
        if inc.bipartite is not None and len(inc.ambient.blocks) == 1:
            cands.extend(_schmidt_candidates(*inc.bipartite, rng))
        # the objective is locally constant off a measure-zero set, so random
        # starts carry the search; always draw them on top of the seeded ones
        for _ in range(max(starts, 8)):
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            cands.append(z / np.linalg.norm(z))
        for u0 in cands:
            val, _, y = _ascend(inc, k, u0, iters)
            if val > best:
                best, best_y, best_k = val, y, k
            if math.isinf(best):
                return best, best_y, best_k
    return best, best_y, best_k


# -- the completely positive index -------------------------------------------


def _choi_pair(inc: Inclusion, k: int):
    n, _ = inc.ambient.blocks[k]
    d = inc.ambient.dim
    cm = np.zeros((n * d, n * d), dtype=complex)
    dm = np.zeros((n * d, n * d), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            unit = inc.ambient.matrix_unit(k, i, j)
            cm += np.kron(e, inc.apply(unit))
            dm += np.kron(e, unit)
    return cm, dm


def _pencil_lambda(cm, dm):
    """Largest lambda with cm - lambda dm >= 0, for PSD cm, dm."""
    es = herm_eig(0.5 * (cm + dagger(cm)))
    lam = np.maximum(es.eigenvalues, 0.0)
    top = float(np.max(lam))
    keep = lam > SPECTRAL_FLOOR * max(top, 1.0)
    basis = es.eigenvectors[:, keep]
    outside = dm - basis @ (dagger(basis) @ dm @ basis) @ dagger(basis)
    if frob(outside) > PENCIL_TOL * max(1.0, frob(dm)):
        return 0.0, None  # dm has support outside cm, no positive lambda
    winv = basis * (1.0 / np.sqrt(lam[keep]))
    t = dagger(winv) @ dm @ winv
    est = herm_eig(0.5 * (t + dagger(t)))
    idx = int(np.argmax(est.eigenvalues))
    lmax = float(est.eigenvalues[idx])
    witness = winv @ est.eigenvectors[:, idx]
    if lmax <= 0.0:
        raise ArithmeticError("degenerate pencil: the units do not couple")
    return 1.0 / lmax, witness


def pp_index_cp(inc: Inclusion):
    """Best constant c with eps - id/c completely positive, via Choi pencils.

    For each ambient block the Choi matrices of eps and of the identity on
    that block are whitened against each other; the index is the reciprocal
    of the smallest surviving pencil value across blocks. When the ambient
    is a single full factor the identity Choi matrix is rank one and the
    pencil reduces to d <Omega| C^+ |Omega> on the maximally entangled Omega.
    """
    certs = {}
    lam_star = math.inf
    for k in range(len(inc.ambient.blocks)):
        cm, dm = _choi_pair(inc, k)
        lam, witness = _pencil_lambda(cm, dm)
        pencil = cm - lam * dm
        low = float(np.min(np.linalg.eigvalsh(0.5 * (pencil + dagger(pencil)))))
        certs[k] = {
            "lam": lam,
            "witness": witness,
            "pencil_floor": low,
        }
        lam_star = min(lam_star, lam)
    if lam_star == 0.0:
        return math.inf, certs
    return 1.0 / lam_star, certs


@dataclass(frozen=True)
class IndexReport:
    """Both index values with their optimality certificates.

    witness_vector attains the positive-variant supremum; choi_certificate
    holds per-block pencil values, witnesses, and the (near zero) smallest
    eigenvalue of the optimal pencil. pp_cp >= pp_positive always.
    """

    pp_positive: float
    pp_cp: float
    witness_vector: np.ndarray
    witness_block: int
    witness_slack: float
    choi_certificate: dict


def index_report(inc: Inclusion, starts: int = 64, seed: int = 7) -> IndexReport:
    pos, y, k = pp_index_positive(inc, starts=starts, seed=seed)
    cp, certs = pp_index_cp(inc)
    if cp < pos - ROUTE_TOL * max(1.0, abs(pos)):
        raise ArithmeticError(
            f"cp index {cp:.12g} fell below positive index {pos:.12g}"
        )
    slack = math.nan
    if y is not None and math.isfinite(pos):
        # eps(yy*) - yy*/pos should be PSD up to roundoff at the optimum
        xy = np.outer(y, y.conj())
        h = inc.apply(xy) - xy / pos
        slack = float(np.min(np.linalg.eigvalsh(0.5 * (h + dagger(h)))))
    return IndexReport(pos, cp, y, k, slack, certs)


# -- the dual expectation on the commutant -----------------------------------


@dataclass(eq=False)
class DualExpectation:
    """Trace expectation from the commutant of sub onto the commutant of
    ambient, acting on the trace GNS space of the inclusion.

    Pairing with the subalgebra projection recovers the reciprocal of the
    cp index; construction aborts if that consistency check fails.
    """

    form: StandardForm
    ambient_commutant: MultiMatrixAlgebra
    sub_commutant: MultiMatrixAlgebra
    expectation: Inclusion
    jones_projection: np.ndarray
    scalar_index: float
    pairing_residual: float


def dual_expectation(inc: Inclusion, seed: int = 3) -> DualExpectation:
    form = StandardForm(inc.ambient, inc.tau)
    hs = form.hs_dim
    aprime = commutant_of(form.left_algebra())
    # lambda(B) is recovered, and certified, from its Sum n_l^2 matrix units
    bprime = commutant_of(wedderburn_decompose(
        np.stack([form.left_matrix(b) for b in inc.sub.canonical_basis()]), seed=seed))
    tau_prime = ambient_trace(bprime)
    eps_prime = trace_expectation(bprime, aprime, tau_prime, seed=seed)

    e_sub = form.subspace_projection(inc.sub)
    bprime.require_member(e_sub, what="subalgebra GNS projection")
    image = eps_prime.apply(e_sub)
    c = float(np.real(np.trace(image))) / hs
    off = frob(image - c * np.eye(hs))
    if not (c > 0.0) or off > DUAL_TOL * max(1.0, abs(c) * math.sqrt(hs)):
        raise ArithmeticError(
            "dual expectation of the subalgebra projection is not scalar: "
            f"mean {c:.6g}, deviation {off:.3e}"
        )
    scalar_index = 1.0 / c
    cp = inc.index_report().pp_cp
    resid = abs(scalar_index - cp)
    if resid > DUAL_TOL * max(1.0, cp):
        raise ArithmeticError(
            f"dual pairing gives index {scalar_index:.9g} but the Choi route "
            f"gives {cp:.9g}"
        )
    return DualExpectation(form, aprime, bprime, eps_prime, e_sub, scalar_index, resid)


# -- the entropy-sum identity across an inclusion ----------------------------


@dataclass(frozen=True)
class XuReport:
    """S(phi || phi o eps) + the commutant-side term against log index.

    For a stack of states the two terms, total and residual are per-member arrays.
    """

    term_sub: float | np.ndarray
    term_commutant: float | np.ndarray
    log_index: float

    @property
    def total(self) -> float:
        return self.term_sub + self.term_commutant

    @property
    def residual(self) -> float:
        return abs(self.total - self.log_index)


def _vector_state(tau: TraceWeight, t: np.ndarray) -> State:
    """The state tau(rho x) = Tr(t x) on the algebra of tau."""
    rho = tau.density(t)
    return State(tau.algebra, tau, 0.5 * (rho + dagger(rho)))


def xu_identity(inc: Inclusion, phi: State) -> XuReport:
    """Split log(cp index) into entropies across the inclusion and its dual.

    The ambient term is S(phi || phi o eps). The commutant term is the same
    construction one level up: the GNS vector of phi induces a state on the
    commutant of sub, compared against its compression by the dual
    expectation. Their sum reproduces the log of the cp index. phi may hold a
    stack of states; every member must be unital.
    """
    unital = np.asarray(phi.is_state)
    if not unital.all():
        at = first_failure(~unital)
        raise ValueError(f"the identity needs a unital state, got mass "
                         f"{float(np.asarray(phi.mass)[at]):.12g}{member_note(at)}")
    term_sub = rel_entropy_closed(phi, inc.compress_state(phi))
    du = inc.dual()
    xi = du.form.cyclic_vector(phi)
    tau_prime = du.expectation.tau
    # <xi, x xi> = Tr(xi xi* x) and <xi, eps(x) xi> = Tr(eps^*(xi xi*)* x); the
    # densities are Hermitian on the algebra, so t and t* give the same state
    xi_xi = xi[..., :, None] * xi.conj()[..., None, :]
    phi_prime = _vector_state(tau_prime, xi_xi)
    phi_prime_eps = _vector_state(tau_prime, du.expectation.adjoint_apply(xi_xi))
    term_comm = rel_entropy_closed(phi_prime, phi_prime_eps)
    return XuReport(term_sub, term_comm, math.log(inc.index_report().pp_cp))


# -- entropy gap against the index bound --------------------------------------


@dataclass(frozen=True)
class GapReport:
    """Entropy gap across an inclusion with its index upper bound.

    gap and relent_route compute the same quantity two ways: as a difference
    of trace entropies and as S(phi || phi o eps).
    """

    entropy_sub: float
    entropy_ambient: float
    relent_route: float
    bound: float

    @property
    def gap(self) -> float:
        return self.entropy_sub - self.entropy_ambient

    @property
    def slack(self) -> float:
        return self.bound - self.gap

    @property
    def route_residual(self) -> float:
        return abs(self.gap - self.relent_route)


def entropy_gap_bound(inc: Inclusion, phi: State) -> GapReport:
    """The gap report of phi; for a stack of states, its entries are per-member arrays."""
    ent_sub = s_tau(inc.restrict_state(phi))
    ent_amb = s_tau(phi)
    route = rel_entropy_closed(phi, inc.compress_state(phi))
    bound = math.log(inc.index_report().pp_positive)
    return GapReport(ent_sub, ent_amb, route, bound)


# -- towers -------------------------------------------------------------------


@dataclass(frozen=True)
class TowerLevelReport:
    factor_size: int
    sub_factor_size: int
    gap: float
    vn_formula: float
    pp_estimate: float

    @property
    def formula_residual(self) -> float:
        return abs(self.gap - self.vn_formula)

    @property
    def index_ratio(self) -> float:
        return (self.factor_size / self.sub_factor_size) ** 2

    @property
    def index_residual(self) -> float:
        return abs(self.pp_estimate - self.index_ratio)


@dataclass(frozen=True)
class TowerReport:
    levels: tuple[TowerLevelReport, ...]
    compat_residuals: tuple[float, ...]

    @property
    def max_formula_residual(self) -> float:
        return max(l.formula_residual for l in self.levels)

    @property
    def max_compat_residual(self) -> float:
        return max(self.compat_residuals) if self.compat_residuals else 0.0


def tower_gap_formula(pairs, tau: TraceWeight, phi: State,
                      starts: int = 24, seed: int = 5) -> TowerReport:
    """Per-level entropy gaps along a tower of factor inclusions.

    pairs is a list of (ambient_i, sub_i) of factors inside one common
    matrix algebra, increasing in i, with sub_i <= ambient_i and
    sub_i <= sub_{i+1}; tau and phi live on the top ambient. Each level
    reports the gap of the restricted state, the von Neumann reformulation
    S_vN(phi|sub) - S_vN(phi|ambient) + log(n_i/m_i), and the measured
    positive index against the square of the size ratio. Compatibility of
    consecutive expectations is verified on random samples.
    """
    if not tau.is_normalized:
        raise ValueError("tower gaps are stated for a normalized trace")
    top = pairs[-1][0]
    incs = []
    states = []
    for alg, sub in pairs:
        if len(alg.blocks) != 1 or len(sub.blocks) != 1:
            raise ValueError("tower levels must be factors")
        tau_i = tau if alg is top else tau.restricted_to(alg)
        incs.append(trace_expectation(alg, sub, tau_i))
        states.append(phi if alg is top else restrict(phi, alg))

    levels = []
    for inc_i, phi_i in zip(incs, states):
        n_i = inc_i.ambient.blocks[0][0]
        m_i = inc_i.sub.blocks[0][0]
        phi_sub = inc_i.restrict_state(phi_i)
        gap = s_tau(phi_sub) - s_tau(phi_i)
        formula = s_vn(phi_sub) - s_vn(phi_i) + math.log(n_i / m_i)
        pp, _, _ = pp_index_positive(inc_i, starts=starts, seed=seed)
        levels.append(TowerLevelReport(n_i, m_i, gap, formula, pp))

    rng = np.random.default_rng(seed)
    compat = []
    for i in range(len(pairs) - 1):
        alg_up, _ = pairs[i + 1]
        step = trace_expectation(alg_up, incs[i].ambient,
                                 tau if alg_up is top else tau.restricted_to(alg_up),
                                 check=False)
        worst = 0.0
        for _ in range(4):
            x = _random_member(alg_up, rng)
            y = step.apply(x)
            r = frob(incs[i + 1].apply(y) - incs[i].apply(y)) / max(1.0, frob(x))
            worst = max(worst, r)
        compat.append(worst)
    return TowerReport(tuple(levels), tuple(compat))


def standard_binary_tower():
    """The two-level tower M_2 tensor 1 <= M_4 tensor 1 <= M_16 with the
    intermediate subalgebra generated by the first and last tensor slots.

    Returns (pairs, tau, top) ready for tower_gap_formula; each level has
    size ratio 2 and positive index 4.
    """
    top = full_matrix_algebra(16)
    a1 = tensor_left_subalgebra(4, 4)
    b1 = tensor_left_subalgebra(2, 8)
    b2 = tensor_algebra(tensor_left_subalgebra(2, 2), full_matrix_algebra(4))
    tau = normalized_trace(top)
    return [(a1, b1), (top, b2)], tau, top
