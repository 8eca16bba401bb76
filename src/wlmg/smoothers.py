"""Smoothing iterations: Richardson and CG steps.

Forward Gauss-Seidel, a solve with the triangle each level stores, lives
in ``mgm._Level``.

Richardson damping follows the structured-plus-correction splitting
``A = M(symbol) + R``.  Row ``i`` of ``A`` is bounded by

    d_i = sup|symbol| + sum_j |R_ij|,

so ``A <= diag(d)``.  The global factors take the largest row,

    omega_pre  = 2 / (sup|symbol| + ||R||_inf)
    omega_post = 1 / (sup|symbol| + ||R||_inf)

and the diagonal form keeps every row's own bound, ``x + c diag(d)^{-1} r``
with the same c = 2 (pre) and c = 1 (post).  Each level with a Richardson
slot (``mgm._Level``) computes ``d`` with ``splitting_diagonal`` from its own
(scaled) structured symbol and sparse correction, and keeps the one form
its configuration uses, which keeps the damped spectrum at most ``c``
level-wise.

Both steps skip the level products whose results the caller already
knows.  ``x=None`` stands for the zero iterate, whose residual is ``b``
itself: it is the start of every coarse level of a V-cycle.  ``r``, when
given, is ``b - A x``, as the outer iteration has it from its stop test;
the step then consumes it (updates it in place and may return it) instead
of recomputing it.  The result equals the one from ``x = 0`` or from
``r = None`` bit for bit: ``b - A 0`` is ``b`` exactly, and a given ``r``
is the same product the step would make.

Apart from a given ``r``, and an ``x`` handed over with ``overwrite_x``,
smoothing calls are pure: they return a new iterate and never mutate ``x``
or ``b``, so repeated calls with identical inputs are bit-identical.
Inside a call, arrays the call allocated itself are updated in place, in
the same order of operations as the textbook formulas.  ``matvec`` is any
product with ``A`` that returns a new float array; the step owns it and
forms ``b - A x`` in it.  On the solve path it is ``_Level.matvec``:
SciPy's compiled DIA kernel on the level operator stored by diagonals,
called without ``@`` through a ``structured.BoundProduct``, whose
dispatch would take about 3 us of a 12 us level-0 product at 63^2.

The CG step can also return the residual of its new iterate,
``r - alpha A z``, from the product ``A z`` it forms anyway: the V-cycle
hands it to the outer iteration's stop test, which then makes no product
of its own (``mgm.solve``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["richardson", "cg_steps", "splitting_diagonal"]


def splitting_diagonal(symbol_sup: float, R: dict, n: int) -> np.ndarray:
    """Row-wise splitting bound ``d_i = sup|symbol| + sum_j |R_ij|`` of the
    n-by-n correction ``R`` by diagonals, ``{offset: band}`` with
    ``band[i] = R[i, i + offset]``; the rows are summed in column order,
    and ``d`` is written over their sums."""
    rows, buf = np.zeros(n), np.empty(n)
    for offset in sorted(R):
        rows += np.abs(R[offset], out=buf)
    del buf
    d = np.add(symbol_sup, rows, out=rows)
    if np.any(d <= 0):
        raise ValueError("smoothing diagonal must be positive")
    return d


def _residual(matvec, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``b - A x``, formed in the array ``matvec`` returned."""
    r = matvec(x)
    np.subtract(b, r, out=r)
    return r


def richardson(matvec, x: np.ndarray | None, b: np.ndarray, omega: float,
               dinv: np.ndarray | None = None, r: np.ndarray | None = None
               ) -> np.ndarray:
    """One damped Richardson step ``x + omega (b - A x)``.

    With ``dinv`` the residual is scaled entrywise first (relaxed-Jacobi
    form ``x + omega D^{-1} (b - A x)``).  ``x=None`` is the zero iterate
    and a given ``r = b - A x`` is consumed (see the module docstring); each
    saves the product with ``A``.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if r is None:
        r = b.copy() if x is None else _residual(matvec, x, b)
    if dinv is not None:
        r *= dinv
    r *= omega
    if x is not None:
        r += x
    return r


def cg_steps(matvec, x: np.ndarray | None, b: np.ndarray,
             dinv: np.ndarray | None = None, r: np.ndarray | None = None, *,
             overwrite_x: bool = False, residual: bool = False):
    """One conjugate-gradient step from ``x``: ``x + alpha z`` with
    ``r = b - A x``, ``z = r`` and ``alpha = r.z / z.Az``.

    ``dinv`` switches to the diagonally preconditioned step, ``z = D^{-1} r``,
    which keeps the step locally scaled for strongly varying coefficients.
    Returns the iterate unchanged on a zero residual or a breakdown
    (non-positive curvature).  ``x=None`` is the zero iterate and a given
    ``r = b - A x`` is consumed (see the module docstring); each saves one
    of the two products with ``A``.  ``overwrite_x`` updates a given ``x``
    in place instead of a copy.  ``residual`` returns ``(x, r)``, with the
    residual of the new iterate read off the recurrence, ``r - alpha A z``,
    formed in the array of the product ``A z``; it is within rounding of
    ``b - A x``, because ``r`` itself is a fresh product.  On a zero
    residual or a breakdown that residual is the step's own ``r``.
    """
    if r is None:
        r = b.copy() if x is None else _residual(matvec, x, b)
    if x is None:
        x = np.zeros(b.shape)
    elif not overwrite_x:
        x = np.array(x, dtype=float)
    z = r if dinv is None else dinv * r
    rz = float(r @ z)
    if rz == 0.0:
        return (x, r) if residual else x
    Az = matvec(z)
    zAz = float(z @ Az)
    if zAz <= 0.0:
        return (x, r) if residual else x
    alpha = rz / zAz
    if residual:        # before z, which may be r, is scaled
        Az *= alpha
        np.subtract(r, Az, out=Az)
    z *= alpha
    x += z
    return (x, Az) if residual else x
