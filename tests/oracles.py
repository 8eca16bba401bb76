"""Reference implementations that the library's fast paths are tested against."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from wlmg.discretize import BoundaryCondition, GridSpec, _sample, make_coefficient


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
