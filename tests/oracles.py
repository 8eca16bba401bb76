"""Reference implementations that the library's fast paths are tested against."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from wlmg.discretize import (BoundaryCondition, GridSpec, _edge_samples, _sample,
                             _stencil_bands, algebra_for_bc, coefficient_samples,
                             laplace_symbol, make_coefficient)
from wlmg.structured import (AlgebraKind, StructuredOperator, _check_band, algebra_grid,
                             dia_from_bands)
from wlmg.transfer import P_SYMBOL, coarse_size


def csr_from_bands(bands: dict, n: int) -> sp.csr_array:
    """The n-by-n CSR matrix of the nonzero entries of ``{offset: band}``,
    ``band[i] = A[i, i + offset]``, gathered by numpy alone.

    The offsets are read in ascending order, so each row's columns come out
    sorted; indices are int32 where they fit.  ``bands`` is emptied.
    """
    offsets = sorted(bands)
    if not offsets:
        return sp.csr_array((n, n))
    index = np.int32 if n * len(offsets) <= np.iinfo(np.int32).max else np.int64
    mask = np.stack([bands[o] != 0.0 for o in offsets], axis=1)             # (n, bands)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    values = np.stack([bands.pop(o) for o in offsets], axis=1)
    data = values[mask]
    del values
    indices = (np.arange(n, dtype=index)[:, None] + np.asarray(offsets, dtype=index))[mask]
    return sp.csr_array((data, indices, indptr), shape=(n, n))


def dense_matrix(kind: AlgebraKind, f, n: int) -> np.ndarray:
    """Dense n-by-n algebra matrix of a 1-D symbol."""
    m = _check_band(kind, f, n)
    t = f.coeffs
    i = np.arange(n)
    I, J = np.meshgrid(i, i, indexing="ij")

    def tt(S):
        S = np.asarray(S)
        out = np.zeros(S.shape)
        mask = S < len(t)
        out[mask] = t[S[mask]]
        return out

    if kind is AlgebraKind.TAU:
        return tt(np.abs(I - J)) - tt(I + J + 2) - tt(2 * n - I - J)
    if kind is AlgebraKind.CIRCULANT:
        D = (I - J) % n
        M = tt(D)
        wrap = D != 0
        M[wrap] += tt(n - D)[wrap]
        return M
    # DCT-III: banded entry formula (exact) when the band is narrow, else
    # eigen-reconstruction with the orthonormal basis
    if 2 * m < n:
        return tt(np.abs(I - J)) + tt(I + J + 1) + tt(2 * n - 1 - I - J)
    Q = dct3_basis(n)
    lam = f.eval(algebra_grid(kind, n))
    return (Q * lam) @ Q.T


def dct3_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-III eigenvector matrix, columns indexed by frequency."""
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    Q = np.sqrt(2.0 / n) * np.cos((2 * i + 1) * j * np.pi / (2 * n))
    Q[:, 0] /= np.sqrt(2.0)
    return Q


def materialize_dense(op: StructuredOperator) -> np.ndarray:
    """A ``StructuredOperator`` as a dense matrix, rank-one term included:
    the sum of its terms' ``dense_matrix`` (their Kronecker products in
    2-D); guarded against large N."""
    if op.n_total > 4096:
        raise ValueError("dense materialization capped at N <= 4096")
    M = np.zeros((op.n_total, op.n_total))
    if op.dim == 1:
        for (g,) in op.symbol.terms:
            M += dense_matrix(op.kind, g, op.sizes[0])
    else:
        for g1, g2 in op.symbol.terms:
            M += np.kron(dense_matrix(op.kind, g1, op.sizes[0]),
                         dense_matrix(op.kind, g2, op.sizes[1]))
    if op.rank_one is not None:
        M = M + op.rank_one / op.n_total
    return M


def full_dense(problem) -> np.ndarray:
    """A split problem's operator ``a_min * S + R`` as a dense matrix."""
    R = csr_from_bands(dict(problem.correction), problem.grid.n_total)
    return problem.a_min * materialize_dense(problem.structured) + R.toarray()


def dense_operator(lev) -> np.ndarray:
    """A level matrix, rank-one term included, as a dense matrix."""
    M = lev.combined.toarray()
    if lev.gamma is not None:
        M = M + lev.gamma / lev.n
    return M


def edge_groups(grid: GridSpec, coeff):
    """Conservative-stencil edges per sweep direction.

    Returns a list of ``(u, v, c)`` arrays of flat endpoint indices and the
    midpoint coefficient sample of each edge; ``-1`` marks a Dirichlet
    boundary endpoint (the edge then contributes to the diagonal only).
    """
    coeff = make_coefficient(coeff, grid.dim)
    nodes = [grid.nodes(r) for r in range(grid.dim)]
    flat = np.arange(grid.n_total).reshape(grid.sizes)
    groups = []
    for r in range(grid.dim):
        n = grid.sizes[r]
        h = grid.spacing(r)
        x = nodes[r]
        if grid.bc is BoundaryCondition.DIRICHLET:
            mids = np.concatenate([[x[0] - h / 2], x + h / 2])
            left = np.arange(-1, n)
            right = np.concatenate([np.arange(n), [-1]])
        elif grid.bc is BoundaryCondition.PERIODIC:
            mids = x + h / 2
            left = np.arange(n)
            right = (np.arange(n) + 1) % n
        else:  # reflective: zero flux through the boundary, no boundary edges
            mids = x[:-1] + h / 2
            left = np.arange(n - 1)
            right = np.arange(1, n)

        if grid.dim == 1:
            groups.append((left, right, _sample(coeff, mids)))
            continue

        other = 1 - r
        y = nodes[other]
        E, O = np.meshgrid(mids, y, indexing="ij")   # (n_edges, n_other)
        c = _sample(coeff, E, O) if r == 0 else _sample(coeff, O, E)

        def endpoints(idx):
            g = np.take(flat, np.maximum(idx, 0), axis=r)
            if r == 1:
                g = g.T
            g = np.ascontiguousarray(g)
            g[idx < 0, :] = -1
            return g.ravel()

        groups.append((endpoints(left), endpoints(right), c.ravel()))
    return groups


def assemble_coo(grid: GridSpec, coeff) -> sp.csr_array:
    """Stiffness matrix from COO triples, four per interior edge and one per
    boundary edge, with duplicates summed by the CSR conversion."""
    rows, cols, vals = [], [], []
    for u, v, c in edge_groups(grid, coeff):
        both = (u >= 0) & (v >= 0)
        ub, vb, cb = u[both], v[both], c[both]
        rows += [ub, vb, ub, vb]
        cols += [ub, vb, vb, ub]
        vals += [cb, cb, -cb, -cb]
        bd = (u >= 0) & (v < 0)
        rows.append(u[bd]); cols.append(u[bd]); vals.append(c[bd])
        bd = (v >= 0) & (u < 0)
        rows.append(v[bd]); cols.append(v[bd]); vals.append(c[bd])
    N = grid.n_total
    A = sp.coo_array((np.concatenate(vals),
                      (np.concatenate(rows), np.concatenate(cols))),
                     shape=(N, N)).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def assemble_bands(grid: GridSpec, coeff) -> sp.csr_array:
    """Stiffness matrix as ``csr_from_bands`` reads it off the stencil's
    bands, one numpy gather per array: the nonzero entries, int32 indices
    where they fit."""
    samples = _edge_samples(grid, make_coefficient(coeff, grid.dim))
    return csr_from_bands(_stencil_bands(grid, samples), grid.n_total)


def sparse_matrix_coo(kind: AlgebraKind, f, n: int) -> sp.csr_array:
    """The banded algebra matrix of a 1-D symbol from COO triples, one
    diagonal at a time: band-formula entries where nonzero, circulant
    wrap-around entries always, duplicates summed by the CSR conversion."""
    m = _check_band(kind, f, n)
    t = f.coeffs
    band = np.concatenate([t, np.zeros(2 * n + 2)])   # band[s] = t_s, 0 past m
    rows, cols, vals = [], [], []
    for k in range(-m, m + 1):       # one diagonal, j = i + k, at a time
        i = np.arange(max(0, -k), n - max(0, k))
        j = i + k
        v = np.full(i.size, t[abs(k)])
        if kind is AlgebraKind.TAU:
            v -= band[i + j + 2] + band[2 * n - i - j]
        elif kind is AlgebraKind.DCT3:
            v += band[i + j + 1] + band[2 * n - 1 - i - j]
        keep = v != 0.0
        rows.append(i[keep])
        cols.append(j[keep])
        vals.append(v[keep])
    if kind is AlgebraKind.CIRCULANT:
        # wrap-around entries t_k at column distance n - k
        for k in range(1, m + 1):
            i = np.arange(n - k, n)
            rows += [i, i - (n - k)]
            cols += [i - (n - k), i]
            vals += [np.full(k, t[k])] * 2
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    A = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    A.sort_indices()
    return A


def to_sparse(op) -> sp.csr_array:
    """A ``StructuredOperator``'s symbol part, rank-one term excluded, as the
    CSR of its nonzero entries: its bands stored by ``dia_from_bands`` and
    read by SciPy's ``tocsr``."""
    return dia_from_bands(op.bands(), op.n_total).tocsr()


def to_sparse_kron(op) -> sp.csr_array:
    """A ``StructuredOperator``'s symbol part as the CSR sum of its terms,
    each the Kronecker product of its factors' ``sparse_matrix_coo``."""
    mats = []
    for term in op.symbol.terms:
        parts = [sparse_matrix_coo(op.kind, g, n) for g, n in zip(term, op.sizes)]
        M = parts[0]
        for P in parts[1:]:
            M = sp.kron(M, P, format="csr")
        mats.append(M)
    out = mats[0]
    for M in mats[1:]:
        out = out + M
    out = sp.csr_array(out)
    out.sort_indices()
    return out


def cutting_matrix(kind: AlgebraKind, n0: int) -> sp.csr_array:
    """The 0/1 cutting matrix ``T`` of shape (n0, n1), 0-based: tau keeps
    the fine rows 2j + 1, circulant 2j, DCT-III the pairs 2j, 2j + 1."""
    n1 = coarse_size(kind, n0)
    j = np.arange(n1)
    if kind is AlgebraKind.TAU:
        rows, cols = 2 * j + 1, j
    elif kind is AlgebraKind.CIRCULANT:
        rows, cols = 2 * j, j
    else:
        rows = np.empty(2 * n1, dtype=int)
        rows[0::2] = 2 * j
        rows[1::2] = 2 * j + 1
        cols = np.repeat(j, 2)
    vals = np.ones(len(rows))
    return sp.coo_array((vals, (rows, cols)), shape=(n0, n1)).tocsr()


def projector_kron(kind: AlgebraKind, fine_sizes) -> sp.csr_array:
    """The projector as the paper defines it: ``s * M(2 + 2cos) * T`` per
    dimension, the algebra matrix from ``sparse_matrix_coo``, and the
    Kronecker product of the factors in 2-D; indices sorted, int32 where
    they fit."""
    scalar = (1.0 / np.sqrt(2.0)) if kind is AlgebraKind.TAU else 1.0
    factors = [scalar * (sparse_matrix_coo(kind, P_SYMBOL, n0) @ cutting_matrix(kind, n0))
               for n0 in fine_sizes]
    M = factors[0]
    for F in factors[1:]:
        M = sp.kron(M, F, format="csr")
    M = sp.csr_array(M)
    M.sort_indices()
    if max(M.nnz, *M.shape) <= np.iinfo(np.int32).max:
        M = sp.csr_array((M.data, M.indices.astype(np.int32), M.indptr.astype(np.int32)),
                         shape=M.shape)
    return M


def split_csr(A, grid: GridSpec, coeff) -> sp.csr_array:
    """The splitting's correction as the CSR difference ``A - a_min M``, ``M``
    the algebra matrix of ``2 - 2cos`` per dimension from ``to_sparse_kron``;
    the difference stores the nonzero entries, indices sorted."""
    coeff = make_coefficient(coeff, grid.dim)
    a_min = float(coefficient_samples(grid, coeff).min())
    base = StructuredOperator(algebra_for_bc(grid.bc), grid.sizes, laplace_symbol(grid.dim))
    R = sp.csr_array(A - a_min * to_sparse_kron(base))
    R.sort_indices()
    return R


def correction_csr(problem) -> sp.csr_array:
    """A problem's correction, held by diagonals, as a CSR matrix."""
    return csr_from_bands(dict(problem.correction), problem.grid.n_total)


def bands_of(A) -> dict:
    """``{offset: band}`` of a square sparse matrix, ``band[i] = A[i, i + offset]``,
    one ``A.diagonal(offset)`` per offset that stores an entry."""
    A = sp.csr_array(A)
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    bands = {}
    for o in np.unique(A.indices - rows).tolist():
        bands[o] = np.zeros(n)
        bands[o][max(0, -o):n - max(0, o)] = A.diagonal(o)
    return bands


def galerkin_csr(R: sp.csr_array, projector) -> sp.csr_array:
    """The Galerkin correction as SciPy's CSR triple product ``p^T (R p)``,
    symmetrized against rounding as ``(G + G^T) / 2``."""
    p = projector.to_sparse()
    G = sp.csr_array(p.T @ (R @ p))
    G = sp.csr_array((G + G.T) * 0.5)
    G.sort_indices()
    return G


def dia_triangles(lev) -> tuple:
    """``tril(A)`` and ``triu(A, 1)`` of a level as views of its diagonals,
    split at the first offset above 0."""
    A = lev.operator
    split = int(np.searchsorted(A.offsets, 0, side="right"))
    return (sp.dia_array((A.data[:split], A.offsets[:split]), shape=A.shape),
            sp.dia_array((A.data[split:], A.offsets[split:]), shape=A.shape))


def gs_triangle_product(lev) -> sp.csc_array:
    """The factored Gauss-Seidel triangle as SciPy's CSC of ``tril(A)``, and
    on a rank-one level as the 2N-by-2N block matrix
    ``[[tril(A) + rho I, rho S], [-I, I - S]]`` (``rho = gamma / N``, ``S``
    the down-shift) on the unknowns ``(x, s)``, stacked by ``sp.bmat`` and
    permuted by fancy indexing to the interleaved order
    ``(x_0, s_0, x_1, s_1, ...)``, indices sorted."""
    n = lev.n
    lower = sp.csc_array(dia_triangles(lev)[0])
    if lev.gamma is None:
        return lower
    rho = lev.gamma / n
    eye, shift = sp.identity(n, format="csr"), sp.eye(n, k=-1, format="csr")
    block = sp.bmat([[lower + rho * eye, rho * shift], [-eye, eye - shift]], format="csr")
    order = np.arange(2 * n).reshape(2, n).T.ravel()
    F = sp.csc_array(block[order][:, order])
    F.sort_indices()
    return F


def scaled_triangle(lower: sp.csc_array) -> sp.csc_array:
    """``lower`` in the form SuperLU stores its LU factor: each column
    scaled by ``1 / pivot`` elementwise, as ``dpivotL`` scales, and the
    pivots put back on the diagonal, each column's first entry."""
    F = sp.csc_array(lower, copy=True)
    first = F.indptr[:-1]
    assert np.array_equal(F.indices[first], np.arange(F.shape[0]))
    pivots = F.data[first].copy()
    for j, (lo, hi) in enumerate(zip(first, F.indptr[1:])):
        F.data[lo:hi] *= 1.0 / pivots[j]
    F.data[first] = pivots
    return F


def forward_substitution(lower: sp.csc_array, b) -> np.ndarray:
    """``lower^{-1} b`` column by column, as SuperLU's ``dgstrs`` solves a
    factor of single-column supernodes: with ``L_ij = F_ij * (1 / F_jj)``,
    column ``j`` subtracts ``y_j L_ij`` from each entry below the
    diagonal, and then ``y`` is divided by the pivots.  ``lower``'s
    columns must start with their pivot."""
    F = scaled_triangle(lower)
    y = np.array(b, dtype=float)
    for j, (lo, hi) in enumerate(zip(F.indptr[:-1], F.indptr[1:])):
        rows = F.indices[lo + 1:hi]
        y[rows] -= y[j] * F.data[lo + 1:hi]
    return y / F.data[F.indptr[:-1]]


def jump_1000(*xs):
    """1 on the left half of the domain, 1000 on the right."""
    return np.where(xs[0] < 0.5, 1.0, 1000.0)


def bordered_bmat(lev) -> sp.csc_matrix:
    """The coarse matrix SuperLU factors, as SciPy's CSC of ``A``, and on a
    rank-one level the bordered ``[[A, u], [u^T, -1]]``,
    ``u = sqrt(gamma/N) e``, stacked by ``sp.bmat``."""
    A = sp.csc_matrix(lev.combined)
    if lev.gamma is None:
        return A
    u = sp.csr_matrix(np.full((lev.n, 1), np.sqrt(lev.gamma / lev.n)))
    return sp.bmat([[A, u], [u.T, sp.csr_matrix([[-1.0]])]], format="csc")


def infinity_norm(A: sp.csr_array) -> float:
    """Max absolute row sum of a sparse matrix."""
    if A.nnz == 0:
        return 0.0
    return float(abs(A).sum(axis=1).max())


def cg_step_full(lev, x, b):
    """One CG step of ``lev``'s post-smoothing slot from ``x`` by the
    textbook formulas, every product made: the new iterate
    ``x + alpha z`` and the recurrence residual ``r - alpha A z``, with
    ``r = b - A x``, ``z = D^{-1} r`` (``z = r`` without a preconditioner)
    and ``alpha = r.z / z.Az``; on a zero ``r.z`` or a non-positive
    ``z.Az``, ``x`` and ``r``."""
    r = b - lev.matvec(x)
    z = r if lev.jacobi_inv is None else lev.jacobi_inv * r
    rz = float(r @ z)
    if rz == 0.0:
        return x, r
    Az = lev.matvec(z)
    zAz = float(z @ Az)
    if zAz <= 0.0:
        return x, r
    alpha = rz / zAz
    return x + alpha * z, r - alpha * Az


def vcycle_full(H, s, x, b, r=None):
    """The V-cycle that makes every product: each coarse level starts from
    an explicit zero vector and each pre-smoother recomputes ``b - A x``,
    unless given ``r``, the recurrence residual of the last cycle's CG
    post-step.  Returns the iterate and, after a CG post-step
    (``cg_step_full``), its recurrence residual, else None."""
    lev = H.levels[s]
    if s == H.depth:
        return lev.direct_solve(b), None
    pre, post = H.smoothers[s]
    x = pre(x, b, r)
    r = b - lev.matvec(x)
    y_coarse, _ = vcycle_full(H, s + 1, np.zeros(H.levels[s + 1].n),
                              lev.projector.restrict(r))
    e = lev.projector.prolong(y_coarse)
    e += x
    if lev.config.post == "cg":
        return cg_step_full(lev, e, b)
    return post(e, b, None), None


def solve_full(H, b, tol=1e-7, max_iter=None, x0=None):
    """The outer iteration over ``vcycle_full``.  The stop test reads the
    CG post-step's recurrence residual, which also seeds the next cycle's
    pre-smoother; after any other post-smoother it computes ``b - A x``,
    which is not reused.  Returns the iterate and the residual history."""
    n = H.levels[0].n
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    bnorm = float(np.linalg.norm(b))
    residuals, r = [], None
    for _ in range(n if max_iter is None else max_iter):
        x, r = vcycle_full(H, 0, x, b, r)
        stop = b - H.levels[0].matvec(x) if r is None else r
        residuals.append(float(np.linalg.norm(stop)) / bnorm)
        if residuals[-1] < tol:
            break
    return x, residuals
