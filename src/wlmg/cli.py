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
from dataclasses import dataclass
from pathlib import Path

from ._tables import DAGGER, PAIR_SMOOTHERS, TABLES
from .discretize import (_EXPR_NAMES, _PRESETS, BoundaryCondition, GridSpec, assemble,
                         build_rhs, make_coefficient, split)
from .mgm import (CG_PRECONDITIONERS, METHODS, SCALINGS, SMOOTHERS, SolverConfig,
                  build_hierarchy, solve)
from .verify import theory_report

BOUNDARY_CONDITIONS = tuple(bc.value for bc in BoundaryCondition)

def _build_problem(bc: str, dim: int, coeff_spec: str, n: int):
    grid = GridSpec((n,) * dim, bc)
    coeff = make_coefficient(coeff_spec, dim)
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


CELL_GATES = ("tol", "exact", "le")
COLUMN_GATES = ("spread", "growth", "gt", "dagger")


def evaluate_gates(table, rows) -> list:
    """Apply the table's gates; returns (ok, message) pairs.

    A gate of a kind in ``CELL_GATES`` gates each cell of its column, one
    in ``COLUMN_GATES`` the column; a column with no gate is not gated.  A
    row whose reference is 1 is a direct solve: it is gated exactly,
    whatever its column declares, and column gates leave it out.  A gate
    of any other kind raises a ``ValueError`` naming the table and the gate.
    """
    for key, gate in table.gates.items():
        if gate[0] not in CELL_GATES + COLUMN_GATES:
            raise ValueError(f"table {table.table_id}: gate {gate!r} of {key} is not "
                             f"one of {', '.join(CELL_GATES + COLUMN_GATES)}")
    results = []
    for r in rows:
        gate = ("exact",) if r.reference == 1 else table.gates.get((r.pair, r.coeff))
        if gate is None or gate[0] not in CELL_GATES or r.reference is None:
            continue
        kind = gate[0]
        cell = f"table {table.table_id} [{r.pair} / {r.coeff} / n={r.n}] = {r.result}, "
        if kind == "le":
            ok, detail = r.result != DAGGER and r.result <= gate[1], f"bound <= {gate[1]}"
        elif kind == "exact" or DAGGER in (r.reference, r.result):
            ok = r.result == r.reference
            detail = f"expected {'exactly ' if kind == 'exact' else ''}{r.reference}"
        else:
            ok = abs(r.result - r.reference) <= gate[1]
            detail = f"reference {r.reference} (tol {gate[1]})"
        results.append((ok, cell + detail))

    columns = {}
    for r in sorted(rows, key=lambda r: r.n):
        if r.reference != 1:                            # skip direct-solve rows
            columns.setdefault((r.pair, r.coeff), []).append(r)
    for (pair, coeff), gate in table.gates.items():
        kind, col = gate[0], columns.get((pair, coeff))
        if kind not in COLUMN_GATES or not col:
            continue
        counts = [r.result for r in col if r.result != DAGGER]
        late = [r for r in col if r.n >= 63]
        label = f"table {table.table_id} column [{pair} / {coeff}]"
        if kind == "spread":
            spread = max(counts) - min(counts) if counts else "n/a"
            results.append((bool(counts) and spread <= gate[1],
                            f"{label} spread {spread} <= {gate[1]}"))
        elif kind == "growth":
            ok = bool(counts) and min(counts) >= 60 and all(
                v2 <= v1 * (1.0 + gate[1] / 100.0) for v1, v2 in zip(counts, counts[1:]))
            results.append((ok, f"{label} counts {counts}: >= 60 and growth <= {gate[1]}%"))
        elif not late:                  # the run has no size the gate applies to
            continue
        elif kind == "gt":
            ok = all((r.iterations_run if r.result == DAGGER else r.result) > gate[1]
                     for r in late)
            results.append((ok, f"{label} needs > {gate[1]} iterations at n >= 63"))
        else:
            ok = all(r.result == DAGGER for r in late)
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


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, its quotes doubled, if it holds a
    comma or a quote."""
    quoted = '"' + text.replace('"', '""') + '"'
    return quoted if any(c in text for c in ',"') else text


def run_verify(args: argparse.Namespace) -> int:
    rows = []
    ok = True
    for coeff in args.coeffs:
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
        lines.append(f"{r.bc},{_csv_field(r.coeff)},{r.n},{r.alpha_post:.12e},{r.beta:.12e},"
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


def _coefficient_list(text: str) -> list:
    """``text`` split at the commas outside parentheses, so that
    ``a1,where(x < 0.5, 1.0, 2.0)`` is two coefficients."""
    items = []
    for piece in text.split(","):
        if items and items[-1].count("(") > items[-1].count(")"):
            items[-1] += "," + piece        # the comma is inside an open parenthesis
        else:
            items.append(piece)
    return items


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
        epilog="A coefficient is a preset, a2k:<k> (a2 + 10^k) or a positive "
               "expression in x (and y on the square) that may call or read "
               f"{', '.join(_EXPR_NAMES)} but not index or slice x or y.  "
               "Presets, on the interval | on the square: " + "; ".join(
                   f"{name} = " + (f"{line} | {square}" if line else f"{square} (square only)")
                   for name, (line, square) in _PRESETS.items()) + ".")
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
    vf.add_argument("--coeffs", type=_coefficient_list, default="a1,a2,a3",
                    help="comma-separated coefficients, presets or expressions "
                         "(a comma inside parentheses does not separate)")
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
