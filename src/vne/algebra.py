"""Multi-matrix von Neumann algebras acting on a finite-dimensional space.

An algebra is stored as a spanning basis of ambient D x D matrices together
with its block structure: unitary isometries V_k identifying the algebra
with a direct sum of M_{n_k} tensor 1_{m_k} summands.  Faithful traces are
per-block weight vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import dagger, frob, herm_eig

SPAN_TOL = 1e-9


def _null_columns(a: np.ndarray, rcond: float = 1e-10) -> np.ndarray:
    """Orthonormal columns spanning the kernel of a, via an economy SVD.

    The stacked commutation systems below are very tall; a full-matrices
    SVD would materialize the m x m left factor for nothing.
    """
    m, n = a.shape
    if m < n:
        a = np.concatenate([a, np.zeros((n - m, n), dtype=a.dtype)], axis=0)
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    tol = rcond * max(float(s[0]) if s.size else 0.0, 1.0)
    return vh[s <= tol].conj().T


def vec(x):
    """Row-major vectorization; vec(a x b) = (a kron b^T) vec(x)."""
    return np.asarray(x, dtype=complex).ravel()


def unvec(v, d):
    return np.asarray(v, dtype=complex).reshape(d, d)


def _orthonormal_rows(mat, tol=1e-10):
    """Orthonormal basis of the row space, via SVD."""
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return np.zeros((0, mat.shape[1]), dtype=complex)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, float(s[0]) if s.size else 1.0)))
    return vh[:rank]


@dataclass(eq=False)
class MultiMatrixAlgebra:
    """A *-closed unital algebra of D x D matrices with known block structure.

    blocks lists (n_k, m_k): summand k is a full n_k x n_k matrix algebra
    represented with multiplicity m_k.  isometries[k] is the D x (n_k m_k)
    isometry under which members compress to x_k tensor 1_{m_k}.
    """

    dim: int
    blocks: tuple
    basis: np.ndarray
    isometries: list
    _onb: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self._onb is None:
            rows = np.stack([vec(b) for b in self.basis])
            self._onb = _orthonormal_rows(rows)

    # -- linear structure -------------------------------------------------

    @property
    def dim_linear(self) -> int:
        return int(sum(n * n for n, _ in self.blocks))

    def identity(self):
        return np.eye(self.dim, dtype=complex)

    def project(self, x):
        """Orthogonal projection of an ambient matrix onto the span."""
        return _span_project(self._onb, x, self.dim)

    def membership_residual(self, x) -> float:
        return frob(x - self.project(x)) / max(1.0, frob(x))

    def contains(self, x, tol: float = SPAN_TOL) -> bool:
        return self.membership_residual(x) <= tol

    def require_member(self, x, what: str = "matrix", tol: float = SPAN_TOL):
        r = self.membership_residual(x)
        if r > tol:
            raise ValueError(f"{what} lies outside the algebra span (residual {r:.3e})")

    def same_span(self, other, tol: float = 1e-8) -> bool:
        if self.dim != other.dim or self._onb.shape != other._onb.shape:
            return False
        p = dagger(self._onb) @ self._onb
        q = dagger(other._onb) @ other._onb
        return frob(p - q) <= tol

    # -- block structure --------------------------------------------------

    def block_component(self, x, k):
        """The n_k x n_k component of a member, averaged over multiplicity."""
        n, m = self.blocks[k]
        v = self.isometries[k]
        y = (dagger(v) @ np.asarray(x, dtype=complex) @ v).reshape(n, m, n, m)
        return np.trace(y, axis1=1, axis2=3) / m

    def block_components(self, x):
        return [self.block_component(x, k) for k in range(len(self.blocks))]

    def embed(self, comps):
        """Assemble an ambient member from per-block n_k x n_k components."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k, (n, m) in enumerate(self.blocks):
            v = self.isometries[k]
            out += v @ np.kron(np.asarray(comps[k], dtype=complex), np.eye(m)) @ dagger(v)
        return out

    def central_projection(self, k):
        v = self.isometries[k]
        return v @ dagger(v)

    def minimal_projection(self, k):
        """Rank-m_k ambient projection: the (1,1) matrix unit of block k."""
        return self.matrix_unit(k, 0, 0)

    def matrix_unit(self, k, i, j):
        n, m = self.blocks[k]
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0
        v = self.isometries[k]
        return v @ np.kron(e, np.eye(m)) @ dagger(v)

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

    def validate(self, tol: float = SPAN_TOL):
        """Certify that the span is the algebra its blocks describe; raises on violation.

        The blocks partition the ambient space, the concatenated isometries W
        satisfy W*W = 1, every basis element is rebuilt from its block
        components and the span has rank sum_k n_k^2.  Together these give
        span = sum_k V_k (M_{n_k} (x) 1) V_k*, which contains 1 and is closed
        under adjoints and products.
        """
        if sum(n * m for n, m in self.blocks) != self.dim:
            raise ValueError("block dimensions do not partition the ambient space")
        w = np.concatenate(self.isometries, axis=1)
        if frob(dagger(w) @ w - np.eye(self.dim)) > 1e-8:
            raise ValueError("block isometries are not jointly orthonormal")
        worst = max(frob(self.embed(self.block_components(b)) - b) / max(1.0, frob(b))
                    for b in self.basis)
        if worst > tol:
            raise ValueError(f"span leaves the block algebra (reconstruction residual {worst:.3e})")
        if self._onb.shape[0] != self.dim_linear:
            raise ValueError(f"span has rank {self._onb.shape[0]} but the blocks "
                             f"need {self.dim_linear}")
        return self


# -- constructors ----------------------------------------------------------


def algebra_from_blocks(blocks) -> MultiMatrixAlgebra:
    """Canonical block-diagonal model: ambient = direct sum of C^{n_k} (x) C^{m_k}."""
    blocks = tuple((int(n), int(m)) for n, m in blocks)
    dim = sum(n * m for n, m in blocks)
    isometries = []
    basis = []
    offset = 0
    for n, m in blocks:
        v = np.zeros((dim, n * m), dtype=complex)
        v[offset:offset + n * m, :] = np.eye(n * m)
        isometries.append(v)
        offset += n * m
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1.0
                basis.append(v @ np.kron(e, np.eye(m)) @ dagger(v))
    return MultiMatrixAlgebra(dim=dim, blocks=blocks, basis=np.stack(basis), isometries=isometries)


def full_matrix_algebra(n: int) -> MultiMatrixAlgebra:
    """M_n acting on C^n."""
    return algebra_from_blocks([(n, 1)])


def scalar_subalgebra(dim: int) -> MultiMatrixAlgebra:
    """C * identity inside M_dim."""
    return MultiMatrixAlgebra(
        dim=dim, blocks=((1, dim),),
        basis=np.eye(dim, dtype=complex)[None, :, :],
        isometries=[np.eye(dim, dtype=complex)])


def diagonal_subalgebra(dim: int) -> MultiMatrixAlgebra:
    """The diagonal masa inside M_dim."""
    basis = np.stack([np.diag(np.eye(dim, dtype=complex)[i]) for i in range(dim)])
    isometries = [np.eye(dim, dtype=complex)[:, [i]] for i in range(dim)]
    return MultiMatrixAlgebra(dim=dim, blocks=tuple((1, 1) for _ in range(dim)),
                              basis=basis, isometries=isometries)


def _tensor_swap(p: int, q: int):
    """Permutation matrix sending e_i (x) f_j in C^q (x) C^p to f_j (x) e_i."""
    s = np.zeros((p * q, p * q), dtype=complex)
    for i in range(q):
        for j in range(p):
            s[j * q + i, i * p + j] = 1.0
    return s


def tensor_left_subalgebra(p: int, q: int) -> MultiMatrixAlgebra:
    """M_p tensor 1_q inside M_{pq}."""
    iso = np.eye(p * q, dtype=complex)
    basis = []
    for i in range(p):
        for j in range(p):
            e = np.zeros((p, p), dtype=complex)
            e[i, j] = 1.0
            basis.append(np.kron(e, np.eye(q)))
    return MultiMatrixAlgebra(dim=p * q, blocks=((p, q),), basis=np.stack(basis), isometries=[iso])


def tensor_right_subalgebra(p: int, q: int) -> MultiMatrixAlgebra:
    """1_p tensor M_q inside M_{pq}."""
    basis = []
    for i in range(q):
        for j in range(q):
            e = np.zeros((q, q), dtype=complex)
            e[i, j] = 1.0
            basis.append(np.kron(np.eye(p), e))
    return MultiMatrixAlgebra(dim=p * q, blocks=((q, p),), basis=np.stack(basis),
                              isometries=[_tensor_swap(p, q)])


def tensor_algebra(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra) -> MultiMatrixAlgebra:
    """Tensor product algebra on the Kronecker-ordered ambient space."""
    dim = a.dim * b.dim
    blocks = []
    isometries = []
    for (na, ma), va in zip(a.blocks, a.isometries):
        for (nb, mb), vb in zip(b.blocks, b.isometries):
            blocks.append((na * nb, ma * mb))
            v = np.kron(va, vb)
            # reorder (na, ma, nb, mb) -> (na, nb, ma, mb) on the small side
            perm = np.zeros((na * ma * nb * mb, na * nb * ma * mb), dtype=complex)
            idx = 0
            for i in range(na):
                for x in range(ma):
                    for j in range(nb):
                        for y in range(mb):
                            col = ((i * nb + j) * ma + x) * mb + y
                            perm[idx, col] = 1.0
                            idx += 1
            isometries.append(v @ perm)
    basis = np.stack([np.kron(x, y) for x in a.basis for y in b.basis])
    return MultiMatrixAlgebra(dim=dim, blocks=tuple(blocks), basis=basis, isometries=isometries)


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
        if any(w <= 0 for w in self.weights):
            raise ValueError(f"trace weights must be positive, got {self.weights}")
        t = sum((w / m) * self.algebra.central_projection(k)
                for k, (w, (_, m)) in enumerate(zip(self.weights, self.algebra.blocks)))
        # exactly Hermitian, so that value() may pair through np.vdot
        self.ambient_density = 0.5 * (t + dagger(t))

    @property
    def total(self) -> float:
        """tau(1) = sum_k n_k * weight_k."""
        return float(sum(w * n for w, (n, _) in zip(self.weights, self.algebra.blocks)))

    def value(self, x) -> complex:
        """tau(x) = Tr(T x), for members and non-members alike."""
        return complex(np.vdot(self.ambient_density, np.asarray(x, dtype=complex)))

    def scaled(self, lam: float) -> "TraceWeight":
        if not lam > 0:
            raise ValueError(f"trace rescaling requires lam > 0, got {lam!r}")
        return TraceWeight(self.algebra, tuple(lam * w for w in self.weights))

    def normalized(self) -> "TraceWeight":
        return self.scaled(1.0 / self.total)

    @property
    def is_normalized(self) -> bool:
        return abs(self.total - 1.0) <= 1e-12

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
        return alg.embed([m * alg.block_component(t, k) / w
                          for k, (w, (_, m)) in enumerate(zip(self.weights, alg.blocks))])


def normalized_trace(algebra: MultiMatrixAlgebra) -> TraceWeight:
    """The unique normalized trace proportional to the ambient trace."""
    return ambient_trace(algebra).normalized()


def ambient_trace(algebra: MultiMatrixAlgebra) -> TraceWeight:
    """Restriction of the ambient matrix trace: weight_k = m_k."""
    return TraceWeight(algebra, tuple(float(m) for _, m in algebra.blocks))


# -- commutants and block decomposition -------------------------------------


def commutant(generators, ambient_dim: int, seed: int = 0) -> MultiMatrixAlgebra:
    """The commutant of a self-adjoint generating set inside M_ambient_dim.

    Computed as the joint nullspace of x -> g x - x g over the generators and
    their adjoints, then structured by wedderburn_decompose.
    """
    d = ambient_dim
    gens = [np.asarray(g, dtype=complex) for g in generators]
    rows = []
    eye = np.eye(d, dtype=complex)
    for g in gens:
        for gg in (g, dagger(g)):
            rows.append(np.kron(gg, eye) - np.kron(eye, gg.T))
    stacked = np.concatenate(rows, axis=0)
    ns = _null_columns(stacked)
    if ns.shape[1] == 0:
        raise ValueError("commutant computation produced an empty span")
    span = np.stack([unvec(ns[:, j], d) for j in range(ns.shape[1])])
    alg = wedderburn_decompose(span, seed=seed)
    worst = max(frob(g @ b - b @ g) for g in gens for b in alg.basis)
    if worst > 1e-10 * max(1.0, max(frob(g) for g in gens)):
        raise ArithmeticError(f"commutant residual {worst:.3e} exceeds 1e-10")
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


def _span_project(onb, x, d):
    coords = np.conj(onb) @ vec(x)
    return unvec(coords @ onb, d)


def wedderburn_decompose(span, seed: int = 0, tol: float = SPAN_TOL) -> MultiMatrixAlgebra:
    """Block decomposition of a numerically closed *-algebra span.

    Randomized, deterministic for a fixed seed.  The eigenspaces of a generic
    Hermitian member are the ranges of the minimal projections; a generic
    member b couples two of them (E_i* b E_j != 0) exactly when they lie in
    the same summand, and the polar parts of those couplings give the matrix
    units.  validate() then certifies the result, so a span that is not a
    *-algebra raises ValueError.
    """
    span = np.stack([np.asarray(b, dtype=complex) for b in span])
    d = span.shape[1]
    onb = _orthonormal_rows(span.reshape(len(span), -1))

    def residual(x):
        return frob(x - _span_project(onb, x, d)) / max(1.0, frob(x))

    if residual(np.eye(d)) > tol:
        raise ValueError("span does not contain the identity")
    worst = max(residual(dagger(b)) for b in span)
    if worst > tol:
        raise ValueError(f"span is not adjoint-closed (residual {worst:.3e})")

    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((2, len(span))) + 1j * rng.standard_normal((2, len(span)))
    a, b = np.tensordot(coeffs, span, axes=1)
    es = herm_eig(0.5 * (a + dagger(a)), tol=1e-8)
    spread = max(1.0, float(es.eigenvalues[-1] - es.eigenvalues[0]))
    frames = [es.eigenvectors[:, g] for g in _cluster(es.eigenvalues, 1e-6 * spread)]
    cut = 1e-8 * frob(b)

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
    alg = MultiMatrixAlgebra(dim=d, blocks=blocks, basis=span, isometries=isometries, _onb=onb)
    alg.validate(tol)
    alg.basis = alg.canonical_basis()
    return alg


def generated_algebra(generators, ambient_dim: int, seed: int = 0, max_rounds: int = 12) -> MultiMatrixAlgebra:
    """Close a generating set under adjoints and products, then decompose."""
    d = ambient_dim
    gens = [np.asarray(g, dtype=complex) for g in generators]
    # the generated algebra does not depend on scale; unit-sized entries keep
    # the SVDs below from overflowing
    gens = [g / max(np.abs(g.real).max(), np.abs(g.imag).max()) if np.any(g) else g
            for g in gens]
    mats = [np.eye(d, dtype=complex)] + gens + [dagger(g) for g in gens]
    onb = _orthonormal_rows(np.stack([vec(x) for x in mats]))
    for _ in range(max_rounds):
        cur = [unvec(row, d) for row in onb]
        prods = [a @ b for a in cur for b in cur]
        new = _orthonormal_rows(np.concatenate([onb, np.stack([vec(p) for p in prods])]))
        if new.shape[0] == onb.shape[0]:
            break
        onb = new
    else:
        raise ArithmeticError("generated span failed to stabilize")
    span = np.stack([unvec(row, d) for row in onb])
    return wedderburn_decompose(span, seed=seed)
