"""Command-line front end: single solves, benchmark tables, theory checks.

Subcommands
-----------
solve   build one problem, run the configured cycle, report the solve
bench   reproduce the bundled iteration-count tables and gate the results
verify  dense convergence-theory checks (smoothing/approximation constants)

Benchmark runs are deterministic for a fixed seed: output files contain no
timestamps and identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._tables import DAGGER, PAIR_SMOOTHERS, TABLES
from .discretize import (BoundaryCondition, DiffusionCoefficient, GridSpec, assemble,
                         build_rhs, make_coefficient, split)
from .mgm import (CG_PRECONDITIONERS, METHODS, SCALINGS, SMOOTHERS, SolverConfig,
                  build_hierarchy, solve)
from .verify import theory_report

BOUNDARY_CONDITIONS = tuple(bc.value for bc in BoundaryCondition)

_EXPR_NAMES = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "sin": np.sin, "cos": np.cos, "tanh": np.tanh, "where": np.where,
    "minimum": np.minimum, "maximum": np.maximum, "pi": np.pi, "e": np.e,
}


def _names(code: types.CodeType) -> set:
    """The names ``code`` looks up, and those of every code object nested in
    it (a lambda's, a comprehension's)."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def coefficient_from_spec(spec: str, dim: int):
    """Preset name, ``a2k:<k>``, or a positive expression in x (and y)."""
    try:
        return make_coefficient(spec, dim)
    except ValueError:
        if not any(ch in spec for ch in "+-*/( "):
            raise
    code = compile(spec, "<coefficient>", "eval")
    names = _names(code)
    allowed = set(_EXPR_NAMES) | {"x", "y"}
    for name in sorted(names):
        if name not in allowed:
            raise ValueError(f"name {name!r} not allowed in coefficient expressions")
    if "y" in names and dim != 2:
        raise ValueError("expression uses y but the problem is one-dimensional")

    def func(*coords):
        scope = {"x": coords[0]}
        if dim == 2:
            scope["y"] = coords[1]
        value = eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, **scope})
        return np.broadcast_to(value, np.shape(coords[0])).copy()

    return DiffusionCoefficient(func, name=spec)


def _build_problem(bc: str, dim: int, coeff_spec: str, n: int):
    grid = GridSpec((n,) * dim, bc)
    coeff = coefficient_from_spec(coeff_spec, dim)
    A = assemble(grid, coeff)
    return grid, split(A, grid, coeff)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def run_solve(args: argparse.Namespace) -> int:
    grid, prob = _build_problem(args.bc, args.dim, args.coeff, args.n)
    H = build_hierarchy(prob, SolverConfig(
        method=args.method, pre=args.pre, post=args.post,
        richardson_scaling=args.richardson_scaling,
        cg_preconditioner=args.cg_preconditioner))
    b = build_rhs(grid, args.rhs, seed=args.seed)
    x, rep = solve(H, b, tol=args.tol, max_iter=args.max_iter)

    print(f"bc={args.bc} dim={args.dim} coeff={args.coeff} method={args.method} "
          f"pre={args.pre} post={args.post} n={args.n}")
    print(f"iterations={rep.iterations} converged={rep.converged} "
          f"final_residual={rep.final_residual:.3e} operations={rep.operations} "
          f"wall_time={rep.wall_time:.3f}s")

    if args.output:
        lines = _solve_report_lines(args, rep)
        Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    return 0 if rep.converged else 1


def _solve_report_lines(args: argparse.Namespace, rep) -> list:
    if args.format == "csv":
        lines = ["iteration,relative_residual"]
        lines += [f"{i},{r:.16e}" for i, r in enumerate(rep.residuals, start=1)]
        lines.append(f"# iterations={rep.iterations} converged={rep.converged} "
                     f"operations={rep.operations}")
        return lines
    lines = [f"## Solve report: {args.coeff}, n={args.n}, {args.method}",
             "",
             f"- iterations: {rep.iterations}",
             f"- converged: {rep.converged}",
             f"- operations: {rep.operations}",
             "",
             "| iteration | relative residual |",
             "| --- | --- |"]
    lines += [f"| {i} | {r:.6e} |" for i, r in enumerate(rep.residuals, start=1)]
    return lines


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def bench_cell(table, pair: str, coeff: str, n: int, seed: int = 0):
    """Run one benchmark cell, on the Dirichlet grid of every table; returns
    (iterations or DAGGER, SolveReport)."""
    smoothers = PAIR_SMOOTHERS[pair]
    grid, prob = _build_problem("dirichlet", table.dim, coeff, n)
    H = build_hierarchy(prob, SolverConfig(
        method=table.method, richardson_scaling=table.richardson_scaling,
        **smoothers))
    b = build_rhs(grid, "random", seed=seed)
    ref = table.reference.get((pair, coeff, n))
    cap = grid.n_total
    if isinstance(ref, int) and ref > cap:
        cap = 2 * ref
    x, rep = solve(H, b, tol=1e-7, max_iter=cap)
    return (rep.iterations if rep.converged else DAGGER), rep


@dataclass
class BenchRow:
    table_id: int
    pair: str
    coeff: str
    n: int
    result: object           # int or DAGGER
    reference: object
    iterations_run: int
    ops_per_iter: int


def run_bench_table(table, sizes=None, seed: int = 0, progress=None) -> list:
    rows = []
    use_sizes = tuple(sizes) if sizes else table.sizes
    for pair in table.pairs:
        for n in use_sizes:
            if n not in table.sizes:
                raise ValueError(f"size {n} is not part of table {table.table_id}")
            for coeff in table.coeffs:
                if progress:
                    progress(f"table {table.table_id}: {pair} {coeff} n={n}")
                result, rep = bench_cell(table, pair, coeff, n, seed=seed)
                rows.append(BenchRow(table.table_id, pair, coeff, n, result,
                                     table.reference.get((pair, coeff, n)),
                                     rep.iterations,
                                     rep.operations // max(rep.iterations, 1)))
    return rows


CELL_GATES = ("tol", "exact", "le", "info")
COLUMN_GATES = ("spread", "growth", "gt", "dagger")


def evaluate_gates(table, rows) -> list:
    """Apply the cell and column gates; returns (ok, message) pairs.

    A row whose reference is 1 is a direct solve: it is gated exactly,
    whatever its column declares, and column gates leave it out.  A cell
    gate that is not one of ``CELL_GATES``, or a column gate not one of
    ``COLUMN_GATES``, raises a ``ValueError`` naming the table and the gate.
    """
    for family, gates, kinds in (("cell", table.cell_gates, CELL_GATES),
                                 ("column", table.column_gates, COLUMN_GATES)):
        for key, gate in gates.items():
            if gate[0] not in kinds:
                raise ValueError(f"table {table.table_id}: {family} gate {gate!r} of "
                                 f"{key} is not one of {', '.join(kinds)}")
    by_cell = {(r.pair, r.coeff, r.n): r for r in rows}
    results = []

    def cell_label(pair, coeff, n):
        return f"table {table.table_id} [{pair} / {coeff} / n={n}]"

    for r in rows:
        gate = (("exact",) if r.reference == 1
                else table.cell_gates.get((r.pair, r.coeff), ("info",)))
        kind = gate[0]
        if kind == "info" or r.reference is None:
            continue
        if kind == "exact":
            ok = r.result == r.reference
            results.append((ok, f"{cell_label(r.pair, r.coeff, r.n)} = {r.result}, "
                                f"expected exactly {r.reference}"))
        elif kind == "tol":
            if r.reference == DAGGER or r.result == DAGGER:
                ok = r.result == r.reference
                results.append((ok, f"{cell_label(r.pair, r.coeff, r.n)} = {r.result}, "
                                    f"expected {r.reference}"))
            else:
                ok = abs(r.result - r.reference) <= gate[1]
                results.append((ok, f"{cell_label(r.pair, r.coeff, r.n)} = {r.result}, "
                                    f"reference {r.reference} (tol {gate[1]})"))
        elif kind == "le":
            ok = r.result != DAGGER and r.result <= gate[1]
            results.append((ok, f"{cell_label(r.pair, r.coeff, r.n)} = {r.result}, "
                                f"bound <= {gate[1]}"))

    sizes_run = sorted({r.n for r in rows})
    for (pair, coeff), gate in table.column_gates.items():
        col = [by_cell[(pair, coeff, n)] for n in sizes_run
               if (pair, coeff, n) in by_cell]
        col = [r for r in col if r.reference != 1]      # skip direct-solve rows
        if not col:
            continue
        kind = gate[0]
        label = f"table {table.table_id} column [{pair} / {coeff}]"
        if kind == "spread":
            vals = [r.result for r in col if r.result != DAGGER]
            ok = bool(vals) and max(vals) - min(vals) <= gate[1]
            results.append((ok, f"{label} spread {max(vals) - min(vals) if vals else 'n/a'}"
                                f" <= {gate[1]}"))
        elif kind == "growth":
            vals = [(r.n, r.result) for r in col if r.result != DAGGER]
            ok = bool(vals) and all(v >= 60 for _, v in vals)
            detail = [v for _, v in vals]
            for (n1, v1), (n2, v2) in zip(vals, vals[1:]):
                if v2 > v1 * (1.0 + gate[1] / 100.0):
                    ok = False
            results.append((ok, f"{label} counts {detail}: >= 60 and growth <= {gate[1]}%"))
        elif kind in ("gt", "dagger"):
            checked = [r for r in col if r.n >= 63]
            if not checked:             # the run has no size the gate applies to
                continue
            if kind == "gt":
                ok = all((r.iterations_run if r.result == DAGGER else r.result) > gate[1]
                         for r in checked)
                results.append((ok, f"{label} needs > {gate[1]} iterations at n >= 63"))
            else:
                ok = all(r.result == DAGGER for r in checked)
                results.append((ok, f"{label} must not converge within N(n) at n >= 63"))
    return results


def _fmt_cell(value):
    return "†" if value == DAGGER else str(value)


def bench_rows_csv(rows) -> list:
    lines = ["table,pair,coeff,n,iterations,reference,diff,ops_per_iter"]
    for r in rows:
        diff = ""
        if isinstance(r.result, int) and isinstance(r.reference, int):
            diff = str(r.result - r.reference)
        ref = "" if r.reference is None else _fmt_cell(r.reference)
        lines.append(f"{r.table_id},{r.pair},{r.coeff},{r.n},"
                     f"{_fmt_cell(r.result)},{ref},{diff},{r.ops_per_iter}")
    return lines


def bench_rows_markdown(table, rows) -> list:
    lines = [f"## Table {table.table_id}: {table.title}", ""]
    sizes_run = sorted({r.n for r in rows})
    by_cell = {(r.pair, r.coeff, r.n): r for r in rows}
    size_label = "N(n)" if table.dim == 1 else "N(n) = n^2"
    for pair in table.pairs:
        lines.append(f"### {pair}")
        lines.append("")
        header = [size_label] + [f"{c} (ref)" for c in table.coeffs]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for n in sizes_run:
            label = str(n) if table.dim == 1 else f"{n}^2"
            cells = [label]
            for c in table.coeffs:
                r = by_cell.get((pair, c, n))
                if r is None:
                    cells.append("")
                else:
                    ref = "" if r.reference is None else f" ({_fmt_cell(r.reference)})"
                    cells.append(f"{_fmt_cell(r.result)}{ref}")
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    return lines


def run_bench(args: argparse.Namespace) -> int:
    outdir = Path(args.output_dir) if args.output_dir else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    ran = False
    for tid in args.table:
        table = TABLES[tid]
        sizes = [n for n in args.sizes if n in table.sizes] if args.sizes else None
        if args.sizes and not sizes:
            print(f"table {tid}: none of the requested sizes apply, skipping")
            continue
        ran = True
        rows = run_bench_table(table, sizes=sizes, seed=args.seed,
                               progress=lambda msg: print(msg, file=sys.stderr))
        gates = evaluate_gates(table, rows)
        if args.format == "csv":
            lines = bench_rows_csv(rows)
            suffix = "csv"
        else:
            lines = bench_rows_markdown(table, rows)
            suffix = "md"
        text = "\n".join(lines) + "\n"
        if outdir:
            path = outdir / f"table{tid}.{suffix}"
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}")
        else:
            print(text, end="")
        for ok, msg in gates:
            print(("PASS " if ok else "FAIL ") + msg)
            failures += 0 if ok else 1
    if not ran:
        def join(values):
            return ",".join(map(str, values))
        sizes = sorted({n for tid in args.table for n in TABLES[tid].sizes})
        tables = "table" if len(args.table) == 1 else "tables"
        raise ValueError(f"argument --sizes: {join(args.sizes)} selects no cell of "
                         f"{tables} {join(args.table)}, whose sizes are {join(sizes)}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# the default sizes of ``wlmg verify``: odd for the tau cutting of
# Dirichlet grids, even for the circulant and DCT-III cuttings
VERIFY_SIZES = {"dirichlet": (7, 15, 31), "periodic": (8, 16, 32), "reflective": (8, 16, 32)}


def run_verify(args: argparse.Namespace) -> int:
    rows = []
    ok = True
    for coeff in args.coeffs.split(","):
        for n in args.sizes or VERIFY_SIZES[args.bc]:
            rep = theory_report(args.bc, coeff, n)
            rows.append(rep)
            if not rep.chain_holds:
                ok = False
                print(f"FAIL chain: {coeff} n={n} alpha={rep.alpha_post:.3e} "
                      f"beta={rep.beta:.3e} bound={rep.bound:.6f} "
                      f"measured={rep.measured_contraction:.6f}")
    header = "bc,coeff,n,alpha_post,beta,bound,measured_contraction,theta1,theta2"
    lines = [header]
    for r in rows:
        lines.append(f"{r.bc},{r.coeff},{r.n},{r.alpha_post:.12e},{r.beta:.12e},"
                     f"{r.bound:.12e},{r.measured_contraction:.12e},"
                     f"{r.theta1:.12e},{r.theta2:.12e}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    print("theory suite: " + ("all chains hold" if ok else "violations found"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_list(text: str):
    return tuple(int(v) for v in text.split(",") if v)


def _table_ids(text: str):
    """``all`` or comma-separated table ids, as a tuple of known ids."""
    if text == "all":
        return tuple(TABLES)
    ids = tuple(int(t) for t in text.split(","))
    for t in ids:
        if t not in TABLES:
            raise argparse.ArgumentTypeError(f"unknown table id {t}")
    return ids


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlmg",
        description="Multigrid solvers and benchmarks for finite-difference "
                    "weighted Laplacians.",
        epilog="Coefficient presets: a1 (1), a2 (e^x / e^{x+y}), a3 (e^x+1 / "
               "e^{x+y}+2), a2k:<k> (e^x + 10^k), and on the square a4 "
               "(e^{x+|y-1/2|^{3/2}}), a5 (e^{x+|y-1/2|}), a6/a7/a8 (1 where "
               "x,y<1/2, else 10/100/1000).  Arbitrary positive expressions "
               "in x (and y) are accepted too.")
    sub = parser.add_subparsers(dest="command", required=True)

    sv = sub.add_parser("solve", help="solve one problem and report iterations")
    sv.add_argument("--bc", choices=BOUNDARY_CONDITIONS, default="dirichlet")
    sv.add_argument("--dim", type=int, choices=[1, 2], default=1)
    sv.add_argument("--coeff", default="a1", help="preset or expression")
    sv.add_argument("--method", choices=METHODS, default="mgm")
    sv.add_argument("--pre", choices=SMOOTHERS, default="richardson")
    sv.add_argument("--post", choices=SMOOTHERS, default="richardson")
    sv.add_argument("--richardson-scaling", choices=SCALINGS, default="global")
    sv.add_argument("--cg-preconditioner", choices=CG_PRECONDITIONERS, default="none")
    sv.add_argument("--n", type=int, required=True,
                    help="interior grid size per dimension")
    sv.add_argument("--tol", type=float, default=1e-7)
    sv.add_argument("--max-iter", type=int, default=None)
    sv.add_argument("--rhs", choices=["ones", "random"], default="ones")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--format", choices=["csv", "markdown"], default="csv")
    sv.add_argument("--output", default=None)

    bn = sub.add_parser("bench", help="reproduce the bundled iteration tables")
    bn.add_argument("--table", type=_table_ids, default="all",
                    help="table id 1-6 or 'all' (default)")
    bn.add_argument("--sizes", type=_int_list, default=(),
                    help="restrict to these sizes, e.g. 31,63")
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--format", choices=["csv", "markdown"], default="csv")
    bn.add_argument("--output-dir", default=None,
                    help="write one file per table here instead of stdout")

    vf = sub.add_parser("verify", help="dense convergence-theory checks")
    vf.add_argument("--bc", choices=BOUNDARY_CONDITIONS, default="dirichlet")
    vf.add_argument("--coeffs", default="a1,a2,a3",
                    help="comma-separated presets")
    vf.add_argument("--sizes", type=_int_list, default=(),
                    help="grid sizes (default 7,15,31 for Dirichlet, "
                         "8,16,32 for periodic and reflective)")
    vf.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    run = {"solve": run_solve, "bench": run_bench, "verify": run_verify}[args.command]
    try:
        return run(args)
    except ValueError as exc:
        parser.error(str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
