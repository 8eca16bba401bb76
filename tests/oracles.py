"""Reference implementations that the library's fast paths are tested against."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from wlmg.discretize import BoundaryCondition, GridSpec, _sample, make_coefficient
from wlmg.structured import AlgebraKind, _check_band


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


def infinity_norm(A: sp.csr_array) -> float:
    """Max absolute row sum of a sparse matrix."""
    if A.nnz == 0:
        return 0.0
    return float(abs(A).sum(axis=1).max())


def vcycle_full(H, s, x, b):
    """The V-cycle that makes every product: each coarse level starts from
    an explicit zero vector and each pre-smoother recomputes ``b - A x``."""
    lev = H.levels[s]
    if s == H.depth:
        return lev.direct_solve(b)
    pre, post = H.smoothers[s]
    x = pre(x, b, None)
    r = b - lev.matvec(x)
    y_coarse = vcycle_full(H, s + 1, np.zeros(H.levels[s + 1].n), lev.projector.restrict(r))
    e = lev.projector.prolong(y_coarse)
    e += x
    return post(e, b, None)


def solve_full(H, b, tol=1e-7, max_iter=None, x0=None):
    """The outer iteration over ``vcycle_full``; the stop test's residual is
    not reused.  Returns the iterate and the residual history."""
    n = H.levels[0].n
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    bnorm = float(np.linalg.norm(b))
    residuals = []
    for _ in range(n if max_iter is None else max_iter):
        x = vcycle_full(H, 0, x, b)
        residuals.append(float(np.linalg.norm(b - H.levels[0].matvec(x))) / bnorm)
        if residuals[-1] < tol:
            break
    return x, residuals
