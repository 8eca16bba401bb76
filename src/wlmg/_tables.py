"""Reference iteration counts bundled with the benchmark suite.

Each benchmark table fixes a cycle type, dimension, smoother pairs, and
coefficient presets of a Dirichlet problem, and stores baseline iteration
counts per (pair, coefficient, size) cell.  ``DAGGER`` marks a cell where
convergence needs more than N(n) iterations.

Gates (used for the benchmark exit status) are one map, one gate per
(pair, coefficient) column; the gate's kind says what it gates.  A cell
kind gates each cell of its column:

* ``("tol", k)``        |ours - ref| <= k, dagger cells must match
* ``("exact",)``        ours == ref
* ``("le", bound)``     ours <= bound and converged

A column kind gates the column's counts over the sizes run:

* ``("spread", s)``     max - min over the column <= s
* ``("growth", pct)``   per-size-doubling growth <= pct percent, min >= 60
* ``("gt", bound)``     ours needs more than ``bound`` iterations at n >= 63
* ``("dagger",)``       ours must not converge within N(n) iterations at n >= 63

A column with no gate is reported, not gated.  A cell whose reference is 1
is a direct solve (the grid is the coarsest level): ``cli.evaluate_gates``
gates it exactly, whatever its column declares, and leaves it out of the
column gates.  A gate of an unknown kind is refused there with a
``ValueError``.

Realization.  Every table runs one smoother convention, named by its
``richardson_scaling``.  The Richardson damping is read off the splitting
``A = M(symbol) + R``: row ``i`` of ``A`` is bounded by
``d_i = sup|symbol| + sum_j |R_ij|``, so ``A <= diag(d)``.  Tables 1-3 (1-D)
use each row's own bound, ``x + c diag(d)^{-1} (b - A x)`` ("diagonal");
tables 4-6 (2-D) use the largest row for all rows,
``x + c (b - A x) / (sup|symbol| + ||R||_inf)`` ("global"); ``c = 2`` before
and ``c = 1`` after the coarse correction.  The two agree when ``R = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

DAGGER = "dagger"

# pair label -> smoother realization; the "richardson+gauss-seidel" pair runs
# Gauss-Seidel as the pre-smoothing iteration, and the CG step paired with
# Gauss-Seidel is preconditioned by the diagonal of A (see the benchmark
# conventions in the README)
PAIR_SMOOTHERS = {
    "richardson+richardson": {"pre": "richardson", "post": "richardson"},
    "richardson+gauss-seidel": {"pre": "gauss-seidel", "post": "richardson"},
    "richardson+cg": {"pre": "richardson", "post": "cg",
                      "cg_preconditioner": "none"},
    "gauss-seidel+cg": {"pre": "gauss-seidel", "post": "cg",
                        "cg_preconditioner": "diagonal"},
}

RR = "richardson+richardson"
RGS = "richardson+gauss-seidel"
RCG = "richardson+cg"
GSCG = "gauss-seidel+cg"


@dataclass(frozen=True)
class BenchTable:
    table_id: int
    title: str
    dim: int
    method: str
    sizes: tuple
    pairs: tuple
    coeffs: tuple
    richardson_scaling: str
    reference: dict                 # (pair, coeff, n) -> count | DAGGER
    gates: dict                     # (pair, coeff) -> gate tuple


def _ref(pairs_cols_rows):
    """Build the reference dict from {pair: {coeff: {n: count}}} nesting."""
    out = {}
    for pair, cols in pairs_cols_rows.items():
        for coeff, rows in cols.items():
            for n, v in rows.items():
                out[(pair, coeff, n)] = v
    return out


def _col(values, sizes):
    return dict(zip(sizes, values))


_T1_SIZES = (31, 63, 127, 255, 511)
TABLE_1 = BenchTable(
    table_id=1,
    title="Two-grid iterations, one-dimensional Dirichlet problem",
    dim=1, method="tgm", sizes=_T1_SIZES,
    pairs=(RR, RGS), coeffs=("a1", "a2", "a3"),
    richardson_scaling="diagonal",
    reference=_ref({
        RR: {"a1": _col((2, 2, 2, 2, 2), _T1_SIZES),
             "a2": _col((8, 6, 5, 4, 4), _T1_SIZES),
             "a3": _col((5, 4, 4, 4, 3), _T1_SIZES)},
        RGS: {c: _col((8, 8, 8, 8, 8), _T1_SIZES) for c in ("a1", "a2", "a3")},
    }),
    gates={(p, c): ("tol", 2) for p in (RR, RGS) for c in ("a1", "a2", "a3")},
)

_T2_SIZES = (15, 31, 63, 127, 255, 511)
TABLE_2 = BenchTable(
    table_id=2,
    title="V-cycle iterations, one-dimensional Dirichlet problem",
    dim=1, method="mgm", sizes=_T2_SIZES,
    pairs=(RR, RGS), coeffs=("a1", "a2", "a3"),
    richardson_scaling="diagonal",
    reference=_ref({
        RR: {"a1": _col((1, 2, 7, 8, 8, 8), _T2_SIZES),
             "a2": _col((1, 8, 7, 8, 8, 8), _T2_SIZES),
             "a3": _col((1, 5, 7, 8, 8, 8), _T2_SIZES)},
        RGS: {c: _col((1, 8, 9, 9, 9, 9), _T2_SIZES) for c in ("a1", "a2", "a3")},
    }),
    gates={(p, c): ("tol", 2) for p in (RR, RGS) for c in ("a1", "a2", "a3")},
)

_T3_SIZES = (31, 63, 127, 255, 511)
_T3_COEFFS = ("a1", "a2k:0", "a2k:1", "a2k:2", "a2k:3", "a2k:4", "a2k:5")
TABLE_3 = BenchTable(
    table_id=3,
    title="Two-grid iterations, shifted exponential coefficients",
    dim=1, method="tgm", sizes=_T3_SIZES,
    pairs=(RR, RGS), coeffs=_T3_COEFFS,
    richardson_scaling="diagonal",
    reference=_ref({
        RR: {"a1":    _col((2, 2, 2, 2, 2), _T3_SIZES),
             "a2k:0": _col((5, 4, 4, 4, 3), _T3_SIZES),
             "a2k:1": _col((4, 4, 4, 3, 3), _T3_SIZES),
             "a2k:2": _col((3, 3, 3, 3, 3), _T3_SIZES),
             "a2k:3": _col((3, 3, 3, 3, 3), _T3_SIZES),
             "a2k:4": _col((3, 3, 3, 3, 2), _T3_SIZES),
             "a2k:5": _col((2, 2, 2, 2, 2), _T3_SIZES)},
        RGS: {c: _col((8, 8, 8, 8, 8), _T3_SIZES) for c in _T3_COEFFS},
    }),
    gates={(p, c): ("tol", 2) for p in (RR, RGS) for c in _T3_COEFFS},
)

_T4_SIZES = (31, 63, 127, 255)
TABLE_4 = BenchTable(
    table_id=4,
    title="Two-grid iterations, two-dimensional Dirichlet problem",
    dim=2, method="tgm", sizes=_T4_SIZES,
    pairs=(RR, RGS), coeffs=("a1", "a2", "a3"),
    richardson_scaling="global",
    reference=_ref({
        RR: {"a1": _col((16, 16, 16, 16), _T4_SIZES),
             "a2": _col((73, 82, 86, 89), _T4_SIZES),
             "a3": _col((38, 41, 43, 44), _T4_SIZES)},
        RGS: {"a1": _col((13, 13, 13, 13), _T4_SIZES),
              "a2": _col((14, 15, 15, 15), _T4_SIZES),
              "a3": _col((14, 14, 14, 14), _T4_SIZES)},
    }),
    gates={**{(RGS, c): ("tol", 3) for c in ("a1", "a2", "a3")},
           (RR, "a1"): ("spread", 2), (RR, "a2"): ("growth", 20.0)},
)

_T5_SIZES = (15, 31, 63, 127, 255)
TABLE_5 = BenchTable(
    table_id=5,
    title="V-cycle iterations, two-dimensional Dirichlet problem",
    dim=2, method="mgm", sizes=_T5_SIZES,
    pairs=(RR, RGS), coeffs=("a1", "a2", "a3"),
    richardson_scaling="global",
    reference=_ref({
        RR: {"a1": _col((1, 16, 16, 16, 16), _T5_SIZES),
             "a2": _col((1, 73, 83, 88, 90), _T5_SIZES),
             "a3": _col((1, 38, 42, 43, 44), _T5_SIZES)},
        RGS: {"a1": _col((1, 13, 13, 13, 13), _T5_SIZES),
              "a2": _col((1, 14, 15, 15, 15), _T5_SIZES),
              "a3": _col((1, 14, 15, 15, 15), _T5_SIZES)},
    }),
    gates={**{(RGS, c): ("tol", 3) for c in ("a1", "a2", "a3")},
           (RR, "a1"): ("spread", 2), (RR, "a2"): ("growth", 20.0)},
)

_T6_SIZES = (15, 31, 63, 127, 255)
_T6_COEFFS = ("a4", "a5", "a6", "a7", "a8")
TABLE_6 = BenchTable(
    table_id=6,
    title="V-cycle iterations, two-dimensional Dirichlet problem, rough coefficients",
    dim=2, method="mgm", sizes=_T6_SIZES,
    pairs=(RGS, RCG, GSCG), coeffs=_T6_COEFFS,
    richardson_scaling="global",
    reference=_ref({
        RGS: {"a4": _col((1, 14, 15, 15, 15), _T6_SIZES),
              "a5": _col((1, 14, 15, 15, 15), _T6_SIZES),
              "a6": _col((1, 13, 13, 14, 14), _T6_SIZES),
              "a7": _col((1, 13, 13, 14, 14), _T6_SIZES),
              "a8": _col((1, 13, 13, 14, 14), _T6_SIZES)},
        RCG: {"a4": _col((1, 21, 26, 26, 27), _T6_SIZES),
              "a5": _col((1, 24, 28, 30, 31), _T6_SIZES),
              "a6": _col((1, 46, 59, 64, 60), _T6_SIZES),
              "a7": _col((1, 1472, 1990, 1783, 1973), _T6_SIZES),
              "a8": _col((1, DAGGER, DAGGER, DAGGER, DAGGER), _T6_SIZES)},
        GSCG: {"a4": _col((1, 12, 12, 12, 12), _T6_SIZES),
               "a5": _col((1, 12, 12, 12, 12), _T6_SIZES),
               "a6": _col((1, 11, 11, 11, 11), _T6_SIZES),
               "a7": _col((1, 10, 10, 10, 10), _T6_SIZES),
               "a8": _col((1, 10, 10, 10, 10), _T6_SIZES)},
    }),
    gates={**{(RGS, c): ("le", 17) for c in _T6_COEFFS},
           **{(GSCG, c): ("le", 14) for c in _T6_COEFFS},
           (RCG, "a7"): ("gt", 1000), (RCG, "a8"): ("dagger",)},
)

TABLES = {t.table_id: t for t in
          (TABLE_1, TABLE_2, TABLE_3, TABLE_4, TABLE_5, TABLE_6)}
