"""Randomized verification suites and the state saturating the entropy gap bound.

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
from .linalg import (INDEX_SEARCH_TOL, KOSAKI_TOL, ROUTE_TOL, SIGN_TOL, dagger, herm_eig, kron,
                     partial_trace)
from .relent import (
    KosakiGrid,
    kosaki_eval,
    petz_decompose,
    rel_entropy_closed,
    reverse_entropy,
)
from .states import State, rescale_trace, restrict, s_tau, s_vn, tensor_state

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


def _components(kind: str, algebra: MultiMatrixAlgebra, rng) -> list:
    """The per-block components of one hilbert-schmidt or purified-haar draw."""
    comps = []
    if kind == "hilbert-schmidt":
        for n, _ in algebra.blocks:
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            comps.append(g @ g.conj().T)
    elif kind == "purified-haar":
        masses = rng.dirichlet(np.ones(len(algebra.blocks)))
        for (n, _), mass in zip(algebra.blocks, masses):
            v = _haar_vector(rng, n * n)
            red = partial_trace(np.outer(v, v.conj()), (n, n), side="right")
            comps.append(mass * red)
    else:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    return comps


def random_state(ens: Ensemble, algebra: MultiMatrixAlgebra | None = None,
                 tau: TraceWeight | None = None, rng=None) -> State:
    """One draw from the ensemble, normalized to a state against tau.

    rng may also be a sequence of generators; the result is then a stack of
    states whose member i is the draw that rng[i] alone would give.
    """
    if ens.dim < 1:
        raise ValueError(f"ensemble dimension must be positive, got {ens.dim}")
    if algebra is None:
        algebra = full_matrix_algebra(ens.dim)
    if tau is None:
        tau = normalized_trace(algebra)
    if rng is None:
        rng = np.random.default_rng(ens.seed)
    single = isinstance(rng, np.random.Generator)
    gens = [rng] if single else list(rng)
    if ens.kind == "spectrum-fixed":
        if ens.spectrum is None:
            raise ValueError("spectrum-fixed ensemble needs a spectrum")
        sizes = [n for n, _ in algebra.blocks]
        if len(ens.spectrum) != sum(sizes):
            raise ValueError(
                f"spectrum length {len(ens.spectrum)} does not match "
                f"total block size {sum(sizes)}")
        u = np.stack([algebra.random_unitary(g) for g in gens])
        flat = list(ens.spectrum)
        comps = []
        pos = 0
        for n, _ in algebra.blocks:
            comps.append(np.diag(np.asarray(flat[pos:pos + n], dtype=complex)))
            pos += n
        raw = u @ algebra.embed(comps) @ dagger(u)
    else:
        draws = [_components(ens.kind, algebra, g) for g in gens]
        raw = algebra.embed([np.stack(block) for block in zip(*draws)])
    if single:
        raw = raw[0]
    if ens.floor > 0.0:
        raw = raw + ens.floor * algebra.identity()
    raw = raw / np.asarray(np.real(tau.value(raw)))[..., None, None]
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


def _extreme(pick, values: list, empty: float) -> float:
    """max or min of values; NaN if any is NaN, which max and min drop after a number."""
    return math.nan if any(math.isnan(v) for v in values) else pick(values, default=empty)


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
        return _extreme(max, [r["violation"] for r in self.records], 0.0)

    @property
    def min_slack(self) -> float:
        return _extreme(min, [r["slack"] for r in self.records], math.inf)

    @property
    def max_slack(self) -> float:
        return _extreme(max, [r["slack"] for r in self.records], -math.inf)

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
# A suite is (default trials, default tolerance, setup, trials). setup() builds
# shared read-only context once; trials(ctx, idx, rngs) runs the trials
# numbered idx, trial i with its own generator rngs[i - idx[0]], and returns
# their records in order. A record holds at least "slack" (signed distance to
# the sharp statement) and "violation" (how far past the statement the trial
# landed, 0 when inside). The cheap suites and xu-identity draw a chunk's
# states as one stack and evaluate each step once per chunk; their per-trial
# arithmetic on the resulting floats is plain Python, as it was per trial.

CHUNK = 256  # trials per stack: larger chunks raise peak memory, smaller ones cost calls


def _identity_record(residual: float, **extra) -> dict:
    rec = {"slack": -abs(residual), "violation": abs(residual)}
    rec.update(extra)
    return rec


def _bound_record(slack: float, violation: float | None = None, **extra) -> dict:
    rec = {"slack": slack, "violation": max(0.0, -slack) if violation is None else violation}
    rec.update(extra)
    return rec


def _stacked(group):
    """trials() of a suite with one context: the chunk runs as one stack, group(ctx, rngs)."""
    def trials(ctx, idx, rngs):
        return group(ctx, rngs)
    return trials


def _cycled(group):
    """trials() of a suite whose trial i uses entry i % len(ctx) of its context:
    each entry's share of the chunk runs as one stack, group(entry, rngs)."""
    def trials(ctx, idx, rngs):
        out = [None] * len(rngs)
        for j, entry in enumerate(ctx):
            pos = [p for p, i in enumerate(idx) if i % len(ctx) == j]
            if pos:
                for p, rec in zip(pos, group(entry, [rngs[p] for p in pos])):
                    out[p] = rec
        return out
    return trials


def _looped(trial):
    """trials() of a suite that runs trial(ctx, i, rng) once per trial."""
    def trials(ctx, idx, rngs):
        return [trial(ctx, i, rng) for i, rng in zip(idx, rngs)]
    return trials


def _setup_entropy_dims(dims):
    def setup():
        return [full_matrix_algebra(n) for n in dims]
    return setup


def _entropy_bounds(alg, rngs):
    n = alg.dim
    phi = random_state(Ensemble(dim=n), alg, normalized_trace(alg), rngs)
    return [_bound_record(min(s + math.log(n), -s), dim=n, entropy=s)
            for s in s_tau(phi).tolist()]


def _vn_shift(alg, rngs):
    phi = random_state(Ensemble(dim=alg.dim), alg, normalized_trace(alg), rngs)
    shift = math.log(alg.dim)
    return [_identity_record(s - (v - shift), dim=alg.dim)
            for s, v in zip(s_tau(phi).tolist(), s_vn(phi).tolist())]


def _setup_additivity():
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3)]
    out = []
    for p, q in shapes:
        a, b = full_matrix_algebra(p), full_matrix_algebra(q)
        out.append((a, b, tensor_algebra(a, b)))
    return out


def _additivity(entry, rngs):
    a, b, prod = entry
    phi = random_state(Ensemble(dim=a.dim), a, normalized_trace(a), rngs)
    psi = random_state(Ensemble(dim=b.dim), b, normalized_trace(b), rngs)
    joint = tensor_state(phi, psi, product_algebra=prod)
    resid = s_tau(joint) - s_tau(phi) - s_tau(psi)
    return [_identity_record(r, dims=f"{a.dim}x{b.dim}") for r in resid.tolist()]


def _setup_subadditivity():
    a, b = full_matrix_algebra(2), full_matrix_algebra(2)
    prod = tensor_algebra(a, b)
    tau = TraceWeight(prod, (0.25,))
    left = tensor_left_subalgebra(2, 2)
    right = tensor_right_subalgebra(2, 2)
    return {"prod": prod, "tau": tau, "left": left, "right": right,
            "m2": a, "tau2": normalized_trace(a)}


def _subadditivity(ctx, rngs):
    phi = _faithful(rngs, ctx["prod"], ctx["tau"])
    p1 = _faithful(rngs, ctx["m2"], ctx["tau2"])
    p2 = _faithful(rngs, ctx["m2"], ctx["tau2"])
    joint = State(ctx["prod"], ctx["tau"], kron(p1.rho, p2.rho))
    lhs = rel_entropy_closed(phi, joint)
    terms = []
    for sub, marginal in ((ctx["left"], p1), (ctx["right"], p2)):
        phi_sub = restrict(phi, sub)
        lifted = State(sub, phi_sub.tau, sub.embed([marginal.rho]))
        terms.append(rel_entropy_closed(phi_sub, lifted).tolist())
    rhs = [sum(pair) for pair in zip(*terms)]
    return [_bound_record(l - r, lhs=l, rhs=r) for l, r in zip(lhs.tolist(), rhs)]


def _setup_restriction_monotone():
    a = full_matrix_algebra(4)
    tau = normalized_trace(a)
    subs = [tensor_left_subalgebra(2, 2), diagonal_subalgebra(4),
            scalar_subalgebra(4), tensor_right_subalgebra(2, 2)]
    return [(a, tau, sub) for sub in subs]


def _restriction_monotone(entry, rngs):
    alg, tau, sub = entry
    phi = _faithful(rngs, alg, tau)
    psi = _faithful(rngs, alg, tau)
    full = rel_entropy_closed(phi, psi)
    down = rel_entropy_closed(restrict(phi, sub), restrict(psi, sub))
    return [_bound_record(f - d, full=f, restricted=d, sub=f"{sub.blocks}")
            for f, d in zip(full.tolist(), down.tolist())]


_SCALES = (0.1, 1.0, 7.0)


def _setup_scaling():
    return [full_matrix_algebra(n) for n in (2, 3, 4)]


def _worst_shift(base, moved, sign: float) -> list:
    """Per trial, max over lam of |moved_lam - base + sign * log lam|, from 0."""
    out = []
    for b, vals in zip(base, zip(*moved)):
        worst = 0.0
        for lam, v in zip(_SCALES, vals):
            worst = max(worst, abs(v - b + sign * math.log(lam)))
        out.append(worst)
    return out


def _relent_scaling(alg, rngs):
    tau = normalized_trace(alg)
    phi = _faithful(rngs, alg, tau)
    psi = _faithful(rngs, alg, tau)
    base = rel_entropy_closed(phi, psi).tolist()
    moved = [rel_entropy_closed(phi, psi.scaled(lam)).tolist() for lam in _SCALES]
    return [_identity_record(w, dim=alg.dim) for w in _worst_shift(base, moved, 1.0)]


def _trace_rescaling(alg, rngs):
    tau = normalized_trace(alg)
    phi = _faithful(rngs, alg, tau)
    base = s_tau(phi).tolist()
    moved = [s_tau(rescale_trace(phi, lam)).tolist() for lam in _SCALES]
    return [_identity_record(w, dim=alg.dim) for w in _worst_shift(base, moved, -1.0)]


def _setup_m2_in_m4():
    return {"inc": tensor_pair_inclusion(2, 2)}


def _petz(ctx, rngs):
    inc = ctx["inc"]
    phi = _faithful(rngs, inc.ambient, inc.tau)
    psi = _faithful(rngs, inc.ambient, inc.tau)
    pd = petz_decompose(phi, psi, inc)
    return [_identity_record(r, lhs=l, restriction=b, expectation=e)
            for r, l, b, e in zip(pd.residual.tolist(), pd.lhs.tolist(),
                                  pd.restriction_term.tolist(), pd.expectation_term.tolist())]


def _setup_expectation_bound():
    incs = [tensor_pair_inclusion(2, 2), scalar_inclusion(2), scalar_inclusion(3)]
    return [(inc, math.log(inc.index_report().pp_positive)) for inc in incs]


def _expectation_bound(entry, rngs):
    inc, bound = entry
    phi = _faithful(rngs, inc.ambient, inc.tau)
    vals = rel_entropy_closed(phi, inc.compress_state(phi))
    return [_bound_record(bound - v, value=v, bound=bound) for v in vals.tolist()]


def _gap_reports(inc, rngs):
    """The entropy gap reports of a chunk: (slack, violation, gap, route residual) per trial."""
    phi = _faithful(rngs, inc.ambient, inc.tau, floor=0.0)
    rep = entropy_gap_bound(inc, phi)
    return [(slack, max(0.0, -slack, rr - ROUTE_TOL), gap, rr) for slack, gap, rr
            in zip(rep.slack.tolist(), rep.gap.tolist(), rep.route_residual.tolist())]


def _gap_bound(ctx, rngs):
    return [_bound_record(slack, violation=v, gap=gap, route_residual=rr)
            for slack, v, gap, rr in _gap_reports(ctx["inc"], rngs)]


def _setup_gap_unnormalized():
    a = full_matrix_algebra(4)
    tr = ambient_trace(a)
    inc = trace_expectation(a, tensor_left_subalgebra(2, 2), tr, bipartite=(2, 2))
    return {"inc": inc}


def _gap_unnormalized(ctx, rngs):
    return [_bound_record(slack, violation=v, gap=gap)
            for slack, v, gap, _ in _gap_reports(ctx["inc"], rngs)]


def _reverse_bound(ctx, rngs):
    # Two-sided: restriction cannot raise S(tau||.), and the operator-monotone
    # route through eps(rho) >= rho / index caps how far it can drop.
    inc = ctx["inc"]
    phi = _faithful(rngs, inc.ambient, inc.tau)
    ups = reverse_entropy(inc.tau, phi).tolist()
    downs = reverse_entropy(inc.sub_trace, inc.restrict_state(phi)).tolist()
    bound = math.log(inc.index_report().pp_positive)
    out = []
    for up, down in zip(ups, downs):
        slack = up - down
        index_margin = bound - (down - up)
        violation = max(0.0, -slack, -index_margin, -up - SIGN_TOL, -down - SIGN_TOL)
        out.append(_bound_record(slack, violation=violation, full=up, restricted=down,
                                 index_margin=index_margin))
    return out


def _xu(ctx, rngs):
    inc = ctx["inc"]
    xr = xu_identity(inc, _faithful(rngs, inc.ambient, inc.tau))
    return [_identity_record(r, term_sub=s, term_commutant=c, log_index=xr.log_index)
            for r, s, c in zip(xr.residual.tolist(), xr.term_sub.tolist(),
                               xr.term_commutant.tolist())]


def _setup_dual_pairing():
    return [scalar_inclusion(2), scalar_inclusion(3), tensor_pair_inclusion(2, 2)]


def _trial_dual_pairing(ctx, idx, rng):
    # re-derives the dual side with a fresh seed each trial
    inc = ctx[idx % len(ctx)]
    du = dual_expectation(inc, seed=int(rng.integers(1, 2 ** 31)))
    return _identity_record(du.pairing_residual, index=du.scalar_index)


def _setup_subspace_props():
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


def _trial_subspace_props(ctx, idx, rng):
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
    slack_d = min(refined - vals[-1], closed - refined + KOSAKI_TOL)
    slack = min(slack_a, slack_c, slack_d)
    return _bound_record(slack, chain=[float(v) for v in vals],
                         closed=closed, refined=refined)


def _setup_tower():
    pairs, tau, top = standard_binary_tower()
    return {"pairs": pairs, "tau": tau, "top": top}


def _trial_tower(ctx, idx, rng):
    phi = _faithful(rng, ctx["top"], ctx["tau"], floor=0.02)
    rep = tower_gap_formula(ctx["pairs"], ctx["tau"], phi, starts=12, seed=idx + 1)
    worst_idx = max(l.index_residual / l.index_ratio for l in rep.levels)
    violation = max(0.0, rep.max_formula_residual - ROUTE_TOL,
                    rep.max_compat_residual - ROUTE_TOL, worst_idx - INDEX_SEARCH_TOL)
    return _bound_record(-violation, violation=violation,
                         gaps=[float(l.gap) for l in rep.levels],
                         formula_residual=rep.max_formula_residual,
                         index_residual=worst_idx)


# name -> (default trials, default tolerance, setup, trials)
_SUITES = {
    "entropy-bounds": (500, 1e-9, _setup_entropy_dims((2, 3, 4)), _cycled(_entropy_bounds)),
    "entropy-vn-shift": (500, 1e-9, _setup_entropy_dims((2, 3, 4, 5, 6)), _cycled(_vn_shift)),
    "entropy-additivity": (200, 1e-10, _setup_additivity, _cycled(_additivity)),
    "relent-subadditivity": (200, 1e-9, _setup_subadditivity, _stacked(_subadditivity)),
    "relent-restriction-monotone": (200, 1e-9, _setup_restriction_monotone,
                                    _cycled(_restriction_monotone)),
    "relent-scaling": (200, 1e-10, _setup_scaling, _cycled(_relent_scaling)),
    "trace-rescaling": (200, 1e-10, _setup_scaling, _cycled(_trace_rescaling)),
    "petz-identity": (500, 1e-8, _setup_m2_in_m4, _stacked(_petz)),
    "expectation-entropy-bound": (300, 1e-8, _setup_expectation_bound,
                                  _cycled(_expectation_bound)),
    "entropy-gap-bound": (1000, 1e-8, _setup_m2_in_m4, _stacked(_gap_bound)),
    "gap-bound-unnormalized": (1000, 1e-8, _setup_gap_unnormalized,
                               _stacked(_gap_unnormalized)),
    "reverse-entropy-bound": (500, 1e-8, _setup_m2_in_m4, _stacked(_reverse_bound)),
    "xu-identity": (200, 1e-6, _setup_m2_in_m4, _stacked(_xu)),
    "dual-expectation-pairing": (9, 1e-6, _setup_dual_pairing, _looped(_trial_dual_pairing)),
    "subspace-relent-properties": (25, 1e-9, _setup_subspace_props,
                                   _looped(_trial_subspace_props)),
    "tower-identities": (5, 1e-9, _setup_tower, _looped(_trial_tower)),
}


def suite_names():
    return sorted(_SUITES)


def run_suite(name: str, trials: int | None = None, seed: int = 0,
              tol: float | None = None) -> VerificationReport:
    """Run one named suite; unknown names raise KeyError with the catalog.

    Trial i draws from the i-th generator spawned from the seed, whatever
    the chunk it runs in.
    """
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(suite_names())}")
    default_trials, default_tol, setup, run = _SUITES[name]
    trials = default_trials if trials is None else int(trials)
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    tol = default_tol if tol is None else float(tol)
    ctx = setup()
    seeds = np.random.SeedSequence(seed).spawn(trials)

    started = time.perf_counter()
    records = []
    for first in range(0, trials, CHUNK):
        idx = range(first, min(first + CHUNK, trials))
        rngs = [np.random.default_rng(seeds[i]) for i in idx]
        for i, rec in zip(idx, run(ctx, idx, rngs)):
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

    @property
    def shortfall(self) -> float:
        return self.bound - self.gap


def maximize_gap(inc: Inclusion) -> MaximizeResult:
    """The state attaining sup over states of S_tau(phi|sub) - S_tau(phi) = log pp_positive.

    The gap is S(phi || phi o eps). It is at most log pp_positive, because
    eps(x) >= x / pp_positive for x >= 0 and log is operator monotone. It is
    convex in phi (relative entropy is jointly convex and phi o eps is linear
    in phi), so the supremum sits at a pure state of one ambient block, and
    Pimsner-Popa (1986, sec. 6) give that state in closed form. In the block k
    attaining the index, C^{n_k} = (+)_l C^{n_l} (x) C^{Lambda_kl} under the
    subalgebra, and the maximizer is the vector state of
    u = (+)_l sqrt(p_l / r_l) sum_{i<r_l} e_i (x) f_i: maximally entangled of
    Schmidt rank r_l = min(Lambda_kl, n_l) in each sub block, weighted by
    p_l proportional to r_l s_l for the sub trace weights s. Here
    e_i (x) f_i = c_i0 g_i, for the block-k components c_ij of the sub's
    matrix units and an orthonormal basis g of the range of the projection c_00.

    converged holds when the gap meets the ceiling within ROUTE_TOL relative and
    its two routes (entropy difference and relative entropy) agree within ROUTE_TOL.
    """
    alg, k = inc.ambient, inc.index_report().witness_block
    s = inc.sub_trace.weights
    u = np.zeros(alg.blocks[k][0], dtype=complex)
    for l, (n_l, _) in enumerate(inc.sub.blocks):
        c = [alg.block_component(inc.sub.matrix_unit(l, i, 0), k) for i in range(n_l)]
        es = herm_eig(c[0])
        g = es.eigenvectors[:, es.eigenvalues > 0.5]  # Lambda_kl columns
        # sqrt(p_l / r_l) = sqrt(s_l) up to one factor for all l; the state is normalized below
        for i in range(min(g.shape[1], n_l)):
            u += math.sqrt(s[l]) * (c[i] @ g[:, i])
    comps = [np.zeros((n, n), dtype=complex) for n, _ in alg.blocks]
    comps[k] = np.outer(u, u.conj())
    raw = alg.embed(comps)
    phi = State(alg, inc.tau, raw / float(np.real(inc.tau.value(raw))))
    rep = entropy_gap_bound(inc, phi)
    converged = (abs(rep.slack) <= ROUTE_TOL * max(1.0, abs(rep.bound))
                 and rep.route_residual <= ROUTE_TOL)
    return MaximizeResult(phi, rep.gap, rep.bound, converged)
