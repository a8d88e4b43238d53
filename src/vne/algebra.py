"""Multi-matrix von Neumann algebras acting on a finite-dimensional space.

An algebra is its block structure: isometries V_k identifying it with a
direct sum of M_{n_k} tensor 1_{m_k} summands.  Projections, components and
membership go through one change of coordinates, the unitary
W = [V_1 ... V_K]; no spanning set is stored.  Faithful traces are
per-block weight vectors.  Coordinates, components, membership and traces
take one ambient matrix (D, D) or a stack (..., D, D) alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (CERT_TOL, CLOSURE_ROUNDS, CLUSTER_TOL, COUPLING_TOL, FRAME_TOL,
                     NORMALIZED_TOL, RANK_TOL, SPAN_TOL, any_member, dagger, first_failure,
                     frob, frob_each, herm_eig, member_note, unwrap)


def _orthonormal_rows(mat):
    """Orthonormal basis of the row space, via SVD."""
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return np.zeros((0, mat.shape[1]), dtype=complex)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * max(1.0, float(s[0]) if s.size else 1.0)))
    return vh[:rank]


@dataclass(eq=False)
class MultiMatrixAlgebra:
    """A *-closed unital algebra of D x D matrices, given by its blocks.

    blocks lists (n_k, m_k): summand k is a full n_k x n_k matrix algebra
    represented with multiplicity m_k.  isometries[k] is the D x (n_k m_k)
    isometry under which members compress to x_k tensor 1_{m_k}.  The algebra
    is sum_k V_k (M_{n_k} (x) 1_{m_k}) V_k*; no spanning set is stored.
    """

    dim: int
    blocks: tuple
    isometries: list

    # -- block coordinates --------------------------------------------------

    @cached_property
    def _frame(self):
        """(W, W*) for the D x D unitary W = [V_1 ... V_K]."""
        w = np.concatenate(self.isometries, axis=1)
        return w, dagger(w)

    @cached_property
    def _slices(self):
        out, offset = [], 0
        for n, m in self.blocks:
            out.append(slice(offset, offset + n * m))
            offset += n * m
        return out

    def _coordinates(self, x):
        """y = W* x W, in which members are block diagonal with blocks c_k (x) 1_{m_k}."""
        w, wh = self._frame
        return wh @ np.asarray(x, dtype=complex) @ w

    def _reduce(self, y, k):
        """The n_k x n_k component of a block-k coordinate slice, averaged over multiplicity."""
        n, m = self.blocks[k]
        if m == 1:
            return y
        return np.trace(y.reshape(y.shape[:-2] + (n, m, n, m)), axis1=-3, axis2=-1) / m

    def _diagonal(self, y):
        return [self._reduce(y[..., s, s], k) for k, s in enumerate(self._slices)]

    def _lift(self, comps):
        """Block coordinates of the member with components comps: (+)_k c_k (x) 1_{m_k}."""
        if len(comps) != len(self.blocks):
            raise ValueError(f"expected {len(self.blocks)} block components, got {len(comps)}")
        y = None
        for (n, m), s, c in zip(self.blocks, self._slices, comps):
            c = np.asarray(c)
            if c.shape[-2:] != (n, n):
                raise ValueError(f"block component of shape {c.shape}, expected {(n, n)}")
            if y is None:  # the first component sets the stack shape
                y = np.zeros(c.shape[:-2] + (self.dim, self.dim), dtype=complex)
            if m == 1:
                y[..., s, s] = c
            else:
                y[..., s, s] = (c[..., :, None, :, None] * np.eye(m)[:, None, :]).reshape(
                    c.shape[:-2] + (n * m, n * m))
        return y

    # -- linear structure -------------------------------------------------

    @property
    def dim_linear(self) -> int:
        return int(sum(n * n for n, _ in self.blocks))

    def identity(self):
        return np.eye(self.dim, dtype=complex)

    def project(self, x):
        """Hilbert-Schmidt orthogonal projection of an ambient matrix onto the algebra."""
        return self.embed(self.block_components(x))

    def _residual(self, x):
        x = np.asarray(x, dtype=complex)
        y = self._coordinates(x)
        return frob_each(y - self._lift(self._diagonal(y))) / np.maximum(1.0, frob_each(x))

    def membership_residual(self, x):
        """Relative distance of x (or of each member of a stack) from the algebra."""
        return unwrap(self._residual(x))

    def contains(self, x):
        return self.membership_residual(x) <= SPAN_TOL

    def require_member(self, x, what: str = "matrix"):
        r = self._residual(x)
        over = r > SPAN_TOL
        if any_member(over):
            at = first_failure(over)
            raise ValueError(f"{what} lies outside the algebra span "
                             f"(residual {float(r[at]):.3e}){member_note(at)}")

    def same_span(self, other) -> bool:
        if self.dim != other.dim or self.dim_linear != other.dim_linear:
            return False
        return all(self.membership_residual(u) <= SPAN_TOL for u in other.generating_units())

    # -- block structure --------------------------------------------------

    def block_component(self, x, k):
        """The n_k x n_k component of a member, averaged over multiplicity."""
        v = self.isometries[k]
        return self._reduce(dagger(v) @ np.asarray(x, dtype=complex) @ v, k)

    def block_components(self, x):
        return self._diagonal(self._coordinates(x))

    def embed(self, comps):
        """Assemble an ambient member from per-block n_k x n_k components."""
        w, wh = self._frame
        return w @ self._lift(comps) @ wh

    def central_projection(self, k):
        v = self.isometries[k]
        return v @ dagger(v)

    def minimal_projection(self, k):
        """Rank-m_k ambient projection: the (1,1) matrix unit of block k."""
        return self.matrix_unit(k, 0, 0)

    def matrix_unit(self, k, i, j):
        """V_k (e_ij (x) 1_{m_k}) V_k*; the columns of V_k are ordered (i, alpha)."""
        m = self.blocks[k][1]
        v = self.isometries[k]
        return v[:, i * m:(i + 1) * m] @ dagger(v[:, j * m:(j + 1) * m])

    def generating_units(self):
        """e_00 and e_{i,i+1} of every block: they generate the algebra as a *-algebra."""
        return [self.matrix_unit(k, i, j) for k, (n, _) in enumerate(self.blocks)
                for i, j in [(0, 0)] + [(a, a + 1) for a in range(n - 1)]]

    def canonical_basis(self):
        """Matrix-unit basis derived from the block isometries."""
        out = []
        for k, (n, _) in enumerate(self.blocks):
            for i in range(n):
                for j in range(n):
                    out.append(self.matrix_unit(k, i, j))
        return np.stack(out)

    # -- random elements ---------------------------------------------------

    def random_hermitian(self, rng):
        comps = []
        for n, _ in self.blocks:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            comps.append(0.5 * (g + dagger(g)))
        return self.embed(comps)

    def random_unitary(self, rng):
        comps = []
        for n, _ in self.blocks:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, r = np.linalg.qr(g)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            comps.append(q)
        return self.embed(comps)

    # -- structural validation --------------------------------------------

    def validate(self):
        """Certify the block data; raises on violation.

        The blocks partition the ambient space and the concatenated
        isometries W satisfy W*W = 1, so sum_k V_k (M_{n_k} (x) 1) V_k* is a
        unital *-algebra of dimension sum_k n_k^2.
        """
        if sum(n * m for n, m in self.blocks) != self.dim:
            raise ValueError("block dimensions do not partition the ambient space")
        w = np.concatenate(self.isometries, axis=1)
        if frob(dagger(w) @ w - np.eye(self.dim)) > FRAME_TOL:
            raise ValueError("block isometries are not jointly orthonormal")
        return self


# -- constructors ----------------------------------------------------------


def algebra_from_blocks(blocks) -> MultiMatrixAlgebra:
    """Canonical block-diagonal model: ambient = direct sum of C^{n_k} (x) C^{m_k}."""
    blocks = tuple((int(n), int(m)) for n, m in blocks)
    if not blocks or min(min(b) for b in blocks) < 1:
        raise ValueError(f"blocks must be a nonempty list of positive (n, m), got {blocks}")
    dim = sum(n * m for n, m in blocks)
    eye = np.eye(dim, dtype=complex)
    isometries = []
    offset = 0
    for n, m in blocks:
        isometries.append(eye[:, offset:offset + n * m].copy())
        offset += n * m
    return MultiMatrixAlgebra(dim=dim, blocks=blocks, isometries=isometries)


def full_matrix_algebra(n: int) -> MultiMatrixAlgebra:
    """M_n acting on C^n."""
    return algebra_from_blocks([(n, 1)])


def scalar_subalgebra(dim: int) -> MultiMatrixAlgebra:
    """C * identity inside M_dim."""
    return algebra_from_blocks([(1, dim)])


def diagonal_subalgebra(dim: int) -> MultiMatrixAlgebra:
    """The diagonal masa inside M_dim."""
    return algebra_from_blocks([(1, 1)] * dim)


def tensor_left_subalgebra(p: int, q: int) -> MultiMatrixAlgebra:
    """M_p tensor 1_q inside M_{pq}."""
    return algebra_from_blocks([(p, q)])


def tensor_right_subalgebra(p: int, q: int) -> MultiMatrixAlgebra:
    """1_p tensor M_q inside M_{pq}."""
    # column (i, j) of the isometry is e_j (x) f_i: the swap of C^q (x) C^p onto C^p (x) C^q
    swap = np.eye(p * q, dtype=complex)[:, np.arange(p * q).reshape(p, q).T.ravel()]
    return MultiMatrixAlgebra(dim=p * q, blocks=((q, p),), isometries=[swap])


def tensor_algebra(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra) -> MultiMatrixAlgebra:
    """Tensor product algebra on the Kronecker-ordered ambient space."""
    dim = a.dim * b.dim
    blocks = []
    isometries = []
    for (na, ma), va in zip(a.blocks, a.isometries):
        for (nb, mb), vb in zip(b.blocks, b.isometries):
            blocks.append((na * nb, ma * mb))
            # reorder the columns (na, ma, nb, mb) -> (na, nb, ma, mb)
            v = np.kron(va, vb).reshape(dim, na, ma, nb, mb).transpose(0, 1, 3, 2, 4)
            isometries.append(v.reshape(dim, -1))
    return MultiMatrixAlgebra(dim=dim, blocks=tuple(blocks), isometries=isometries)


# -- trace weights ----------------------------------------------------------


@dataclass(eq=False)
class TraceWeight:
    """Faithful trace on a multi-matrix algebra: positive weight per block.

    tau(x) = sum_k weight_k * Tr(x_k) over block components x_k, which is
    Tr(T x) for the ambient density T = sum_k (weight_k / m_k) P_k built
    from the central projections P_k.
    """

    algebra: MultiMatrixAlgebra
    weights: tuple
    ambient_density: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.weights = tuple(float(w) for w in self.weights)
        if len(self.weights) != len(self.algebra.blocks):
            raise ValueError("one weight per block required")
        if not all(np.isfinite(w) and w > 0 for w in self.weights):
            raise ValueError(f"trace weights must be positive and finite, got {self.weights}")
        t = sum((w / m) * self.algebra.central_projection(k)
                for k, (w, (_, m)) in enumerate(zip(self.weights, self.algebra.blocks)))
        # exactly Hermitian, so that value() may pair through np.vdot
        self.ambient_density = 0.5 * (t + dagger(t))

    @property
    def total(self) -> float:
        """tau(1) = sum_k n_k * weight_k."""
        return float(sum(w * n for w, (n, _) in zip(self.weights, self.algebra.blocks)))

    @cached_property
    def _pairing(self):
        """conj(T) as a column, so that a row-major x pairs as Tr(T x) = vdot(T, x)."""
        return np.conj(self.ambient_density).reshape(-1, 1)

    def value(self, x):
        """tau(x) = Tr(T x), for members and non-members alike; one per stack member.

        Each member pairs as a (1, D^2) @ (D^2, 1) product, which rounds as np.vdot.
        """
        x = np.asarray(x, dtype=complex)
        return unwrap((x.reshape(x.shape[:-2] + (1, -1)) @ self._pairing)[..., 0, 0])

    def scaled(self, lam: float) -> "TraceWeight":
        if not lam > 0:
            raise ValueError(f"trace rescaling requires lam > 0, got {lam!r}")
        return TraceWeight(self.algebra, tuple(lam * w for w in self.weights))

    def normalized(self) -> "TraceWeight":
        return self.scaled(1.0 / self.total)

    @property
    def is_normalized(self) -> bool:
        return abs(self.total - 1.0) <= NORMALIZED_TOL

    def restricted_to(self, sub: MultiMatrixAlgebra) -> "TraceWeight":
        """Restriction to a subalgebra: weight = trace of a minimal projection."""
        ws = []
        for l in range(len(sub.blocks)):
            ws.append(float(np.real(self.value(sub.minimal_projection(l)))))
        return TraceWeight(sub, tuple(ws))

    def density(self, t) -> np.ndarray:
        """The member rho with tau(rho x) = Tr(t x) for every member x.

        Block k of rho is m_k * block_component(t, k) / weight_k.
        """
        alg = self.algebra
        return alg.embed([m * c / w for c, w, (_, m)
                          in zip(alg.block_components(t), self.weights, alg.blocks)])


def normalized_trace(algebra: MultiMatrixAlgebra) -> TraceWeight:
    """The unique normalized trace proportional to the ambient trace."""
    return ambient_trace(algebra).normalized()


def ambient_trace(algebra: MultiMatrixAlgebra) -> TraceWeight:
    """Restriction of the ambient matrix trace: weight_k = m_k."""
    return TraceWeight(algebra, tuple(float(m) for _, m in algebra.blocks))


# -- commutants and block decomposition -------------------------------------


def commutant_of(alg: MultiMatrixAlgebra) -> MultiMatrixAlgebra:
    """The commutant sum_k V_k (1_{n_k} (x) M_{m_k}) V_k* of a block algebra.

    It has the same isometries with the columns of V_k reordered from
    (i, alpha) to (alpha, i), and blocks (m_k, n_k) (Jones 1983, Index for
    subfactors): block k of the result is block k of alg, transposed.
    """
    d = alg.dim
    isometries = [v.reshape(d, n, m).transpose(0, 2, 1).reshape(d, n * m)
                  for v, (n, m) in zip(alg.isometries, alg.blocks)]
    return MultiMatrixAlgebra(dim=d, blocks=tuple((m, n) for n, m in alg.blocks),
                              isometries=isometries)


def commutant(generators, ambient_dim: int, seed: int = 0) -> MultiMatrixAlgebra:
    """The commutant of a set of generators inside M_ambient_dim.

    The commutant of the *-algebra they generate, as commutant_of gives it.
    Certified: every generating unit of the result commutes with every
    generator and its adjoint, which makes the whole result commute with them.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    alg = commutant_of(generated_algebra(gens, ambient_dim, seed=seed))
    units = alg.generating_units()
    worst = max((frob(h @ u - u @ h) for g in gens for h in (g, dagger(g)) for u in units),
                default=0.0)
    if worst > CERT_TOL * max(1.0, max((frob(g) for g in gens), default=1.0)):
        raise ArithmeticError(f"commutant residual {worst:.3e} exceeds {CERT_TOL:.0e}")
    return alg


def _cluster(values, tol):
    """Group sorted real values at gaps exceeding tol; returns index arrays."""
    order = np.argsort(values)
    sv = values[order]
    groups = []
    current = [order[0]]
    for pos in range(1, len(order)):
        if sv[pos] - sv[pos - 1] > tol:
            groups.append(current)
            current = []
        current.append(order[pos])
    groups.append(current)
    return [np.array(g, dtype=int) for g in groups]


def wedderburn_decompose(span, seed: int = 0) -> MultiMatrixAlgebra:
    """Block decomposition of a numerically closed *-algebra span.

    Randomized, deterministic for a fixed seed.  The eigenspaces of a generic
    Hermitian member are the ranges of the minimal projections; a generic
    member b couples two of them (E_i* b E_j != 0) exactly when they lie in
    the same summand, and the polar parts of those couplings give the matrix
    units.  The result is certified against the input: every span element is
    rebuilt from its block components and the span has rank sum_k n_k^2, so
    a span that is not a *-algebra raises ValueError.
    """
    span = np.stack([np.asarray(b, dtype=complex) for b in span])
    d = span.shape[1]
    onb = _orthonormal_rows(span.reshape(len(span), -1))

    def residual(x):
        r = np.ravel(x)
        return frob(r - (np.conj(onb) @ r) @ onb) / max(1.0, frob(x))

    if residual(np.eye(d)) > SPAN_TOL:
        raise ValueError("span does not contain the identity")
    worst = max(residual(dagger(b)) for b in span)
    if worst > SPAN_TOL:
        raise ValueError(f"span is not adjoint-closed (residual {worst:.3e})")

    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((2, len(span))) + 1j * rng.standard_normal((2, len(span)))
    a, b = np.tensordot(coeffs, span, axes=1)
    es = herm_eig(0.5 * (a + dagger(a)))
    spread = max(1.0, float(es.eigenvalues[-1] - es.eigenvalues[0]))
    frames = [es.eigenvectors[:, g] for g in _cluster(es.eigenvalues, CLUSTER_TOL * spread)]
    cut = COUPLING_TOL * frob(b)

    blocks = []
    isometries = []
    left = list(range(len(frames)))
    while left:
        e0 = frames[left[0]]
        summand = [left[0]] + [j for j in left[1:] if frob(dagger(e0) @ b @ frames[j]) > cut]
        sizes = [frames[j].shape[1] for j in summand]
        if len(set(sizes)) != 1:
            raise ValueError(f"span is not a *-algebra: coupled eigenspaces of a generic "
                             f"member have dimensions {sizes}")
        # columns ordered (i, alpha): basis in which members act as x (x) 1_m
        cols = [e0]
        for j in summand[1:]:
            u, _, vh = np.linalg.svd(dagger(e0) @ b @ frames[j])
            cols.append(frames[j] @ dagger(u @ vh))
        blocks.append((len(summand), sizes[0]))
        isometries.append(np.concatenate(cols, axis=1))
        left = [j for j in left if j not in summand]

    order = sorted(range(len(blocks)), key=lambda k: (blocks[k][0], blocks[k][1], k))
    blocks = tuple(blocks[k] for k in order)
    isometries = [isometries[k] for k in order]
    alg = MultiMatrixAlgebra(dim=d, blocks=blocks, isometries=isometries).validate()
    worst = max(alg.membership_residual(x) for x in span)
    if worst > SPAN_TOL:
        raise ValueError(f"span leaves the block algebra (reconstruction residual {worst:.3e})")
    if onb.shape[0] != alg.dim_linear:
        raise ValueError(f"span has rank {onb.shape[0]} but the blocks need {alg.dim_linear}")
    return alg


def generated_algebra(generators, ambient_dim: int, seed: int = 0) -> MultiMatrixAlgebra:
    """Close a generating set under adjoints and products, then decompose."""
    d = ambient_dim
    gens = [np.asarray(g, dtype=complex) for g in generators]
    # the generated algebra does not depend on scale; unit-sized entries keep
    # the SVDs below from overflowing
    gens = [g / max(np.abs(g.real).max(), np.abs(g.imag).max()) if np.any(g) else g
            for g in gens]
    mats = [np.eye(d, dtype=complex)] + gens + [dagger(g) for g in gens]
    onb = _orthonormal_rows(np.stack(mats).reshape(len(mats), -1))
    for _ in range(CLOSURE_ROUNDS):
        cur = onb.reshape(-1, d, d)
        prods = np.stack([a @ b for a in cur for b in cur])
        new = _orthonormal_rows(np.concatenate([onb, prods.reshape(len(prods), -1)]))
        if new.shape[0] == onb.shape[0]:
            break
        onb = new
    else:
        raise ArithmeticError("generated span failed to stabilize")
    return wedderburn_decompose(onb.reshape(-1, d, d), seed=seed)
