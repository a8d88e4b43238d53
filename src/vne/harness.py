"""Randomized verification suites and bound-saturation optimization.

Each suite checks one identity or inequality over a seeded random ensemble
and reports signed slacks per trial; a report passes when the worst
violation stays within the declared tolerance. Suites are deterministic:
the same seed reproduces the same report bytes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    MultiMatrixAlgebra,
    TraceWeight,
    ambient_trace,
    diagonal_subalgebra,
    full_matrix_algebra,
    normalized_trace,
    scalar_subalgebra,
    tensor_algebra,
    tensor_left_subalgebra,
    tensor_right_subalgebra,
)
from .inclusion import (
    Inclusion,
    dual_expectation,
    entropy_gap_bound,
    scalar_inclusion,
    standard_binary_tower,
    tensor_pair_inclusion,
    tower_gap_formula,
    trace_expectation,
    xu_identity,
)
from .linalg import dagger, partial_trace
from .relent import (
    KosakiGrid,
    kosaki_eval,
    petz_decompose,
    rel_entropy_closed,
    reverse_entropy,
)
from .states import State, maximally_mixed, rescale_trace, restrict, s_tau, s_vn, tensor_state

__all__ = [
    "Ensemble",
    "random_state",
    "VerificationReport",
    "run_suite",
    "suite_names",
    "MaximizeResult",
    "maximize_gap",
]


# -- random state ensembles ----------------------------------------------------


@dataclass(frozen=True)
class Ensemble:
    """Seeded recipe for random densities on a multi-matrix algebra.

    kinds: "hilbert-schmidt" squares a complex Gaussian member;
    "purified-haar" traces out half of a Haar random purification per block;
    "spectrum-fixed" conjugates a prescribed spectrum by a random unitary.
    floor > 0 mixes in a multiple of the identity before normalization,
    keeping draws uniformly faithful.
    """

    kind: str = "hilbert-schmidt"
    dim: int = 2
    seed: int = 0
    spectrum: tuple[float, ...] | None = None
    floor: float = 0.0


def _haar_vector(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_state(ens: Ensemble, algebra: MultiMatrixAlgebra | None = None,
                 tau: TraceWeight | None = None, rng=None) -> State:
    """One draw from the ensemble, normalized to a state against tau."""
    if ens.dim < 1:
        raise ValueError(f"ensemble dimension must be positive, got {ens.dim}")
    if algebra is None:
        algebra = full_matrix_algebra(ens.dim)
    if tau is None:
        tau = normalized_trace(algebra)
    if rng is None:
        rng = np.random.default_rng(ens.seed)
    comps = []
    if ens.kind == "hilbert-schmidt":
        for n, _ in algebra.blocks:
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            comps.append(g @ g.conj().T)
    elif ens.kind == "purified-haar":
        masses = rng.dirichlet(np.ones(len(algebra.blocks)))
        for (n, _), mass in zip(algebra.blocks, masses):
            v = _haar_vector(rng, n * n)
            red = partial_trace(np.outer(v, v.conj()), (n, n), side="right")
            comps.append(mass * red)
    elif ens.kind == "spectrum-fixed":
        if ens.spectrum is None:
            raise ValueError("spectrum-fixed ensemble needs a spectrum")
        sizes = [n for n, _ in algebra.blocks]
        if len(ens.spectrum) != sum(sizes):
            raise ValueError(
                f"spectrum length {len(ens.spectrum)} does not match "
                f"total block size {sum(sizes)}")
        u = algebra.random_unitary(rng)
        flat = list(ens.spectrum)
        pos = 0
        for n, _ in algebra.blocks:
            comps.append(np.diag(np.asarray(flat[pos:pos + n], dtype=complex)))
            pos += n
        raw = u @ algebra.embed(comps) @ u.conj().T
        comps = None
    else:
        raise ValueError(f"unknown ensemble kind {ens.kind!r}")
    if comps is not None:
        raw = algebra.embed(comps)
    if ens.floor > 0.0:
        raw = raw + ens.floor * algebra.identity()
    raw = raw / np.real(tau.value(raw))
    return State(algebra, tau, raw)


def _faithful(rng, algebra, tau, floor=0.05) -> State:
    # suites that feed logarithms keep spectra bounded away from zero
    ens = Ensemble(kind="hilbert-schmidt", dim=algebra.dim, floor=floor)
    return random_state(ens, algebra, tau, rng)


# -- reports -------------------------------------------------------------------


def _plain(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) or isinstance(value, int) or isinstance(value, str):
        return value
    return float(value)


@dataclass
class VerificationReport:
    suite: str
    trials: int
    seed: int
    tolerance: float
    records: list
    elapsed: float = field(default=0.0, compare=False)

    @property
    def max_violation(self) -> float:
        return max((r["violation"] for r in self.records), default=0.0)

    @property
    def min_slack(self) -> float:
        return min((r["slack"] for r in self.records), default=math.inf)

    @property
    def max_slack(self) -> float:
        return max((r["slack"] for r in self.records), default=-math.inf)

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def to_payload(self) -> dict:
        # elapsed stays out: report bytes depend only on the seed
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "max_violation": self.max_violation,
            "extremes": {"min_slack": self.min_slack, "max_slack": self.max_slack},
            "passed": self.passed,
            "records": self.records,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))

    def summary(self) -> str:
        word = "pass" if self.passed else "FAIL"
        return (f"{self.suite:32s} {word}  trials={self.trials:<5d} "
                f"max_violation={self.max_violation:.3e}  tol={self.tolerance:.1e}")


# -- suite library -------------------------------------------------------------
#
# A suite is (default trials, default tolerance, setup, trial). setup builds
# shared read-only context once; trial(ctx, idx, rng, tol) returns a record
# with at least "slack" (signed distance to the sharp statement) and
# "violation" (how far past the statement the trial landed, 0 when inside).


def _identity_record(residual: float, **extra) -> dict:
    rec = {"slack": -abs(residual), "violation": abs(residual)}
    rec.update(extra)
    return rec


def _bound_record(slack: float, violation: float | None = None, **extra) -> dict:
    rec = {"slack": slack, "violation": max(0.0, -slack) if violation is None else violation}
    rec.update(extra)
    return rec


def _setup_entropy_dims(dims):
    def setup(seed):
        return [(full_matrix_algebra(n), None) for n in dims]
    return setup


def _trial_entropy_bounds(ctx, idx, rng, tol):
    alg, _ = ctx[idx % len(ctx)]
    n = alg.dim
    tau = normalized_trace(alg)
    phi = random_state(Ensemble(dim=n), alg, tau, rng)
    s = s_tau(phi)
    slack = min(s + math.log(n), -s)
    return _bound_record(slack, dim=n, entropy=s)


def _trial_vn_shift(ctx, idx, rng, tol):
    alg, _ = ctx[idx % len(ctx)]
    tau = normalized_trace(alg)
    phi = random_state(Ensemble(dim=alg.dim), alg, tau, rng)
    resid = s_tau(phi) - (s_vn(phi) - math.log(alg.dim))
    return _identity_record(resid, dim=alg.dim)


def _setup_additivity(seed):
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3)]
    out = []
    for p, q in shapes:
        a, b = full_matrix_algebra(p), full_matrix_algebra(q)
        out.append((a, b, tensor_algebra(a, b)))
    return out


def _trial_additivity(ctx, idx, rng, tol):
    a, b, prod = ctx[idx % len(ctx)]
    ta, tb = normalized_trace(a), normalized_trace(b)
    phi = random_state(Ensemble(dim=a.dim), a, ta, rng)
    psi = random_state(Ensemble(dim=b.dim), b, tb, rng)
    joint = tensor_state(phi, psi, product_algebra=prod)
    resid = s_tau(joint) - s_tau(phi) - s_tau(psi)
    return _identity_record(resid, dims=f"{a.dim}x{b.dim}")


def _setup_subadditivity(seed):
    a, b = full_matrix_algebra(2), full_matrix_algebra(2)
    prod = tensor_algebra(a, b)
    tau = TraceWeight(prod, (0.25,))
    left = tensor_left_subalgebra(2, 2)
    right = tensor_right_subalgebra(2, 2)
    return {"prod": prod, "tau": tau, "left": left, "right": right,
            "m2": a, "tau2": normalized_trace(a)}


def _trial_subadditivity(ctx, idx, rng, tol):
    phi = _faithful(rng, ctx["prod"], ctx["tau"])
    p1 = _faithful(rng, ctx["m2"], ctx["tau2"])
    p2 = _faithful(rng, ctx["m2"], ctx["tau2"])
    joint = State(ctx["prod"], ctx["tau"], np.kron(p1.rho, p2.rho))
    lhs = rel_entropy_closed(phi, joint)
    terms = []
    for sub, marginal in ((ctx["left"], p1), (ctx["right"], p2)):
        phi_sub = restrict(phi, sub)
        lifted = State(sub, phi_sub.tau, sub.embed([marginal.rho]))
        terms.append(rel_entropy_closed(phi_sub, lifted))
    slack = lhs - sum(terms)
    return _bound_record(slack, lhs=lhs, rhs=sum(terms))


def _setup_restriction_monotone(seed):
    a = full_matrix_algebra(4)
    subs = [tensor_left_subalgebra(2, 2), diagonal_subalgebra(4),
            scalar_subalgebra(4), tensor_right_subalgebra(2, 2)]
    return {"alg": a, "tau": normalized_trace(a), "subs": subs}


def _trial_restriction_monotone(ctx, idx, rng, tol):
    sub = ctx["subs"][idx % len(ctx["subs"])]
    phi = _faithful(rng, ctx["alg"], ctx["tau"])
    psi = _faithful(rng, ctx["alg"], ctx["tau"])
    full = rel_entropy_closed(phi, psi)
    down = rel_entropy_closed(restrict(phi, sub), restrict(psi, sub))
    return _bound_record(full - down, full=full, restricted=down,
                         sub=f"{sub.blocks}")


_SCALES = (0.1, 1.0, 7.0)


def _setup_scaling(seed):
    return [full_matrix_algebra(n) for n in (2, 3, 4)]


def _trial_relent_scaling(ctx, idx, rng, tol):
    alg = ctx[idx % len(ctx)]
    tau = normalized_trace(alg)
    phi = _faithful(rng, alg, tau)
    psi = _faithful(rng, alg, tau)
    base = rel_entropy_closed(phi, psi)
    worst = 0.0
    for lam in _SCALES:
        val = rel_entropy_closed(phi, psi.scaled(lam))
        worst = max(worst, abs(val - base + math.log(lam)))
    return _identity_record(worst, dim=alg.dim)


def _trial_trace_rescaling(ctx, idx, rng, tol):
    alg = ctx[idx % len(ctx)]
    tau = normalized_trace(alg)
    phi = _faithful(rng, alg, tau)
    base = s_tau(phi)
    worst = 0.0
    for lam in _SCALES:
        worst = max(worst, abs(s_tau(rescale_trace(phi, lam)) - base - math.log(lam)))
    return _identity_record(worst, dim=alg.dim)


def _setup_m2_in_m4(seed):
    return {"inc": tensor_pair_inclusion(2, 2)}


def _trial_petz(ctx, idx, rng, tol):
    inc = ctx["inc"]
    phi = _faithful(rng, inc.ambient, inc.tau)
    psi = _faithful(rng, inc.ambient, inc.tau)
    pd = petz_decompose(phi, psi, inc)
    return _identity_record(pd.residual, lhs=pd.lhs,
                            restriction=pd.restriction_term,
                            expectation=pd.expectation_term)


def _setup_expectation_bound(seed):
    incs = [tensor_pair_inclusion(2, 2), scalar_inclusion(2), scalar_inclusion(3)]
    return [(inc, math.log(inc.index_report().pp_positive)) for inc in incs]


def _trial_expectation_bound(ctx, idx, rng, tol):
    inc, bound = ctx[idx % len(ctx)]
    phi = _faithful(rng, inc.ambient, inc.tau)
    val = rel_entropy_closed(phi, inc.compress_state(phi))
    return _bound_record(bound - val, value=val, bound=bound)


def _trial_gap_bound(ctx, idx, rng, tol):
    inc = ctx["inc"]
    phi = _faithful(rng, inc.ambient, inc.tau, floor=0.0)
    rep = entropy_gap_bound(inc, phi)
    violation = max(0.0, -rep.slack, rep.route_residual - 1e-9)
    return _bound_record(rep.slack, violation=violation, gap=rep.gap,
                         route_residual=rep.route_residual)


def _setup_gap_unnormalized(seed):
    a = full_matrix_algebra(4)
    tr = ambient_trace(a)
    inc = trace_expectation(a, tensor_left_subalgebra(2, 2), tr, bipartite=(2, 2))
    return {"inc": inc}


def _trial_gap_unnormalized(ctx, idx, rng, tol):
    inc = ctx["inc"]
    phi = _faithful(rng, inc.ambient, inc.tau, floor=0.0)
    rep = entropy_gap_bound(inc, phi)
    violation = max(0.0, -rep.slack, rep.route_residual - 1e-9)
    return _bound_record(rep.slack, violation=violation, gap=rep.gap)


def _trial_reverse_bound(ctx, idx, rng, tol):
    # Two-sided: restriction cannot raise S(tau||.), and the operator-monotone
    # route through eps(rho) >= rho / index caps how far it can drop.
    inc = ctx["inc"]
    phi = _faithful(rng, inc.ambient, inc.tau)
    up = reverse_entropy(inc.tau, phi)
    down = reverse_entropy(inc.sub_trace, inc.restrict_state(phi))
    bound = math.log(inc.index_report().pp_positive)
    slack = up - down
    index_margin = bound - (down - up)
    violation = max(0.0, -slack, -index_margin, -up - 1e-10, -down - 1e-10)
    return _bound_record(slack, violation=violation, full=up, restricted=down,
                         index_margin=index_margin)


def _trial_xu(ctx, idx, rng, tol):
    inc = ctx["inc"]
    phi = _faithful(rng, inc.ambient, inc.tau)
    xr = xu_identity(inc, phi)
    return _identity_record(xr.residual, term_sub=xr.term_sub,
                            term_commutant=xr.term_commutant,
                            log_index=xr.log_index)


def _setup_dual_pairing(seed):
    return [scalar_inclusion(2), scalar_inclusion(3), tensor_pair_inclusion(2, 2)]


def _trial_dual_pairing(ctx, idx, rng, tol):
    # re-derives the commutant decomposition with a fresh seed each trial
    inc = ctx[idx % len(ctx)]
    du = dual_expectation(inc, seed=int(rng.integers(1, 2 ** 31)))
    return _identity_record(du.pairing_residual, index=du.scalar_index)


def _setup_subspace_props(seed):
    alg = full_matrix_algebra(2)
    return {
        "alg": alg,
        "tau": normalized_trace(alg),
        "chain": [
            [alg.identity()],
            list(diagonal_subalgebra(2).canonical_basis()),
            list(alg.canonical_basis()),
        ],
    }


def _trial_subspace_props(ctx, idx, rng, tol):
    phi = _faithful(rng, ctx["alg"], ctx["tau"], floor=0.1)
    psi = _faithful(rng, ctx["alg"], ctx["tau"], floor=0.1)
    vals = [kosaki_eval(phi, psi, subspace=v) for v in ctx["chain"]]
    # a) larger second argument lowers the value
    bigger = State(ctx["alg"], ctx["tau"], psi.rho + 0.5 * np.eye(2))
    val_big = kosaki_eval(phi, bigger)
    slack_a = vals[-1] - val_big
    # c) monotone along the nested chain of subspaces
    slack_c = min(vals[1] - vals[0], vals[2] - vals[1])
    # d) refinement increases toward the closed form from below
    refined = kosaki_eval(phi, psi, grid=KosakiGrid.default().refined())
    closed = rel_entropy_closed(phi, psi)
    slack_d = min(refined - vals[-1], closed - refined + 1e-12)
    slack = min(slack_a, slack_c, slack_d)
    return _bound_record(slack, chain=[float(v) for v in vals],
                         closed=closed, refined=refined)


def _setup_tower(seed):
    pairs, tau, top = standard_binary_tower()
    return {"pairs": pairs, "tau": tau, "top": top}


def _trial_tower(ctx, idx, rng, tol):
    phi = _faithful(rng, ctx["top"], ctx["tau"], floor=0.02)
    rep = tower_gap_formula(ctx["pairs"], ctx["tau"], phi, starts=12, seed=idx + 1)
    worst_idx = max(l.index_residual / l.index_ratio for l in rep.levels)
    violation = max(0.0, rep.max_formula_residual - 1e-9,
                    rep.max_compat_residual - 1e-9, worst_idx - 1e-5)
    return _bound_record(-violation, violation=violation,
                         gaps=[float(l.gap) for l in rep.levels],
                         formula_residual=rep.max_formula_residual,
                         index_residual=worst_idx)


# name -> (default trials, default tolerance, setup, trial)
_SUITES = {
    "entropy-bounds": (500, 1e-9, _setup_entropy_dims((2, 3, 4)), _trial_entropy_bounds),
    "entropy-vn-shift": (500, 1e-9, _setup_entropy_dims((2, 3, 4, 5, 6)), _trial_vn_shift),
    "entropy-additivity": (200, 1e-10, _setup_additivity, _trial_additivity),
    "relent-subadditivity": (200, 1e-9, _setup_subadditivity, _trial_subadditivity),
    "relent-restriction-monotone": (200, 1e-9, _setup_restriction_monotone,
                                    _trial_restriction_monotone),
    "relent-scaling": (200, 1e-10, _setup_scaling, _trial_relent_scaling),
    "trace-rescaling": (200, 1e-10, _setup_scaling, _trial_trace_rescaling),
    "petz-identity": (500, 1e-8, _setup_m2_in_m4, _trial_petz),
    "expectation-entropy-bound": (300, 1e-8, _setup_expectation_bound,
                                  _trial_expectation_bound),
    "entropy-gap-bound": (1000, 1e-8, _setup_m2_in_m4, _trial_gap_bound),
    "gap-bound-unnormalized": (1000, 1e-8, _setup_gap_unnormalized,
                               _trial_gap_unnormalized),
    "reverse-entropy-bound": (500, 1e-8, _setup_m2_in_m4, _trial_reverse_bound),
    "xu-identity": (200, 1e-6, _setup_m2_in_m4, _trial_xu),
    "dual-expectation-pairing": (9, 1e-6, _setup_dual_pairing, _trial_dual_pairing),
    "subspace-relent-properties": (25, 1e-9, _setup_subspace_props,
                                   _trial_subspace_props),
    "tower-identities": (5, 1e-9, _setup_tower, _trial_tower),
}


def suite_names():
    return sorted(_SUITES)


def run_suite(name: str, trials: int | None = None, seed: int = 0,
              tol: float | None = None) -> VerificationReport:
    """Run one named suite; unknown names raise KeyError with the catalog."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(suite_names())}")
    default_trials, default_tol, setup, trial = _SUITES[name]
    trials = default_trials if trials is None else int(trials)
    tol = default_tol if tol is None else float(tol)
    ctx = setup(seed)
    seeds = np.random.SeedSequence(seed).spawn(trials)

    started = time.perf_counter()
    records = []
    for i in range(trials):
        rec = trial(ctx, i, np.random.default_rng(seeds[i]), tol)
        rec = {k: _plain(v) if not isinstance(v, (list, str)) else v
               for k, v in rec.items()}
        rec["trial"] = i
        records.append(rec)
    elapsed = time.perf_counter() - started
    return VerificationReport(name, trials, seed, tol, records, elapsed)


# -- bound saturation ----------------------------------------------------------


@dataclass
class MaximizeResult:
    state: State
    gap: float
    bound: float
    converged: bool
    restarts_used: int
    evaluations: int

    @property
    def shortfall(self) -> float:
        return self.bound - self.gap


def _entangled_vector(p: int, q: int) -> np.ndarray:
    r = min(p, q)
    v = np.zeros(p * q, dtype=complex)
    for i in range(r):
        v[i * q + i] = 1.0
    return v / math.sqrt(r)


def maximize_gap(inc: Inclusion, restarts: int = 200, seed: int = 0,
                 stop_within: float = 1e-6, maxiter: int | None = None) -> MaximizeResult:
    """Search for sup over states of S_tau(phi|sub) - S_tau(phi).

    Derivative-free: densities are parametrized per ambient block as G G*
    for an unconstrained complex G, normalized to unit mass, and refined by
    Nelder-Mead from seeded and random starts. The first starts are the
    maximally entangled vector for bipartite inclusions and basis pure
    states; the search stops early once the index bound is approached
    within stop_within.
    """
    # scipy loads only here: no verify suite searches, and importing vne stays light
    from scipy.optimize import minimize

    alg, tau = inc.ambient, inc.tau
    bound = math.log(inc.index_report().pp_positive)
    sizes = [n for n, _ in alg.blocks]
    nparam = 2 * sum(n * n for n in sizes)
    evals = 0

    def build(xvec: np.ndarray) -> State | None:
        comps = []
        pos = 0
        for n in sizes:
            re = xvec[pos: pos + n * n].reshape(n, n)
            im = xvec[pos + n * n: pos + 2 * n * n].reshape(n, n)
            g = re + 1j * im
            comps.append(g @ g.conj().T + 1e-14 * np.eye(n))
            pos += 2 * n * n
        raw = alg.embed(comps)
        mass = float(np.real(tau.value(raw)))
        if not mass > 1e-12:
            return None
        return State(alg, tau, raw / mass)

    def objective(xvec: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        phi = build(xvec)
        if phi is None:
            return 1e6
        return -(s_tau(inc.restrict_state(phi)) - s_tau(phi))

    def pack(mat: np.ndarray) -> np.ndarray:
        # PSD member -> parameters via its square root per block
        out = np.zeros(nparam)
        pos = 0
        for k, n in enumerate(sizes):
            c = alg.block_component(mat, k)
            w, v = np.linalg.eigh(0.5 * (c + dagger(c)))
            g = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
            out[pos: pos + n * n] = g.real.ravel()
            out[pos + n * n: pos + 2 * n * n] = g.imag.ravel()
            pos += 2 * n * n
        return out

    rng = np.random.default_rng(seed)
    starts = []
    if inc.bipartite is not None and len(alg.blocks) == 1:
        v = _entangled_vector(*inc.bipartite)
        starts.append(pack(np.outer(v, v.conj())))
    for k in range(len(sizes)):
        starts.append(pack(alg.minimal_projection(k)))
    starts.append(pack(alg.identity()))

    best_val = -math.inf
    best_state = maximally_mixed(alg, tau)
    used = 0
    itcap = maxiter if maxiter is not None else 200 * nparam
    for r in range(restarts):
        used = r + 1
        x0 = starts[r] if r < len(starts) else rng.normal(size=nparam)
        f0 = -objective(x0)
        if f0 > best_val:
            best_val = f0
            cand = build(x0)
            if cand is not None:
                best_state = cand
        if bound - best_val <= stop_within:
            break
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxiter": itcap, "xatol": 1e-7, "fatol": 1e-10})
        if -res.fun > best_val:
            best_val = -res.fun
            cand = build(res.x)
            if cand is not None:
                best_state = cand
        if bound - best_val <= stop_within:
            break
    converged = bound - best_val <= max(stop_within, 1e-4)
    return MaximizeResult(best_state, best_val, bound, converged, used, evals)
