import csv
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from wlmg import cli
from wlmg._tables import DAGGER, PAIR_SMOOTHERS, TABLES, BenchTable
from wlmg.cli import BenchRow, bench_cell, bench_rows_csv, evaluate_gates, run_bench_table
from wlmg.discretize import make_coefficient


def test_solve_subcommand_converges(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = cli.main(["solve", "--bc", "dirichlet", "--dim", "1", "--coeff", "a1",
                   "--method", "tgm", "--pre", "richardson", "--post",
                   "richardson", "--n", "31", "--richardson-scaling",
                   "diagonal", "--rhs", "random", "--output", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("iteration,relative_residual")
    assert "iterations=2" in capsys.readouterr().out


def test_solve_expected_counts_table2():
    rc = cli.main(["solve", "--dim", "1", "--coeff", "a2", "--n", "511",
                   "--method", "mgm", "--pre", "gauss-seidel", "--post",
                   "richardson", "--richardson-scaling", "diagonal",
                   "--rhs", "random"])
    assert rc == 0


def test_solve_nonconvergence_exit(capsys):
    rc = cli.main(["solve", "--dim", "1", "--coeff", "a2", "--n", "63",
                   "--method", "mgm", "--max-iter", "1", "--rhs", "random"])
    assert rc == 1


def test_invalid_preset_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--coeff", "a99", "--n", "31"])
    assert exc.value.code == 2


def test_overflowing_a2k_preset_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--coeff", "a2k:400", "--n", "15"])
    assert exc.value.code == 2
    assert "preset 'a2k:400': the shift 10^400 overflows a float" in capsys.readouterr().err


def test_coarse_level_that_overflows_usage_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--dim", "2", "--n", "63", "--coeff", "a2k:307"])
    assert exc.value.code == 2
    assert ("the coarse level of sizes (15, 15) overflows: its matrix holds an inf "
            "or a NaN") in capsys.readouterr().err


def test_coefficient_whose_stencil_overflows_usage_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--coeff", "a2k:308", "--n", "15"])
    assert exc.value.code == 2
    assert "coefficient 'a2k:308' overflows a float in the stencil" in capsys.readouterr().err


def test_expression_coefficient():
    coeff = make_coefficient("exp(x)+1", 1)
    assert coeff(np.array([0.0]))[0] == pytest.approx(2.0)
    coeff2 = make_coefficient("1 + x*y", 2)
    assert coeff2(np.array([0.5]), np.array([0.5]))[0] == pytest.approx(1.25)
    with pytest.raises(ValueError):
        make_coefficient("__import__('os')", 1)
    with pytest.raises(ValueError):
        make_coefficient("x + y", 1)
    # names looked up inside a lambda or a comprehension are checked too
    for spec in ("(lambda y: y.shape[0])(x) + 1 + x", "[y.ndim for y in (x,)][0] + x"):
        with pytest.raises(ValueError, match="not allowed in coefficient expressions"):
            make_coefficient(spec, 1)
    x = np.array([0.25, 0.75])
    assert np.array_equal(make_coefficient("exp(x) + 1", 1)(x), np.exp(x) + 1)
    coeff3 = make_coefficient("where(x < 0.5, 1.0, 100.0) + 0*y", 2)
    assert np.array_equal(coeff3(x, x), [1.0, 100.0])


@pytest.mark.parametrize("coeff", ["2", "x", "1e3"])
def test_solve_takes_a_number_or_a_bare_variable_as_coefficient(coeff, capsys):
    """A string that is no preset is an expression, however short."""
    assert cli.main(["solve", "--coeff", coeff, "--n", "7"]) == 0
    assert "converged=True" in capsys.readouterr().out


@pytest.mark.parametrize("expr", ["x[::-1]+1", "1+x[0]", "where(x < 0.5, 1.0, x[1:])"])
def test_expression_that_indexes_usage_error(expr, capsys):
    """The order of the sample points is the library's: an expression that
    indexes or slices them would compute another coefficient unseen."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--coeff", expr, "--n", "7"])
    assert exc.value.code == 2
    assert f"coefficient expression {expr!r} may not index or slice" in capsys.readouterr().err


def test_expression_of_the_wrong_shape_usage_error(capsys):
    """A value that does not broadcast to the sample points is a usage error
    naming the expression and both shapes, not numpy's bare broadcast error."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--coeff", "[1.0, 2.0]", "--n", "7"])
    assert exc.value.code == 2
    assert ("coefficient expression '[1.0, 2.0]' has a value of shape (2,), which does "
            "not broadcast to the sample points' shape (8,)") in capsys.readouterr().err


@pytest.mark.parametrize("argv, least", [
    (["--coeff", "1e-310"], "1e-310"),
    (["--coeff", "where(x<0.5,1e-310,1)", "--dim", "2", "--bc", "periodic"], "1e-310"),
    (["--coeff=-1+0*x"], "-1.0"), (["--coeff", "0*x", "--bc", "reflective"], "0.0"),
])
def test_a_degenerate_coefficient_usage_error(argv, least, capsys):
    """A least sample that is not a positive normal float is a usage error
    naming the coefficient, not SuperLU's "exactly singular" traceback."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--n", "15", *argv])
    assert exc.value.code == 2
    assert f"has the least sample {least}; it must be positive and normal" in \
        capsys.readouterr().err


def test_a_coefficient_that_begins_with_a_minus_is_a_value(tmp_path, capsys):
    """``--coeff -x+2`` and ``--coeffs -x+2`` hand the expression to
    ``make_coefficient`` as ``--coeff=-x+2`` does, not to argparse as an
    option; a negative one is then refused for its least sample."""
    assert cli.main(["solve", "--coeff", "-x+2", "--n", "15"]) == 0
    out = capsys.readouterr().out
    assert "coeff=-x+2" in out and "converged=True" in out
    assert cli.main(["solve", "--coeff=-x+2", "--n", "15"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == out.splitlines()[0]
    assert cli.main(["verify", "--coeffs", "-x+2", "--sizes", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("dirichlet,-x+2,7,") and lines[-1].endswith("all chains hold")
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--coeff", "-1+0*x", "--n", "15"])
    assert exc.value.code == 2
    assert ("coefficient '-1+0*x' has the least sample -1.0; it must be positive and normal"
            in capsys.readouterr().err)
    with pytest.raises(SystemExit) as exc:      # an option still needs its value
        cli.main(["solve", "--n", "15", "--coeff", "--bc", "periodic"])
    assert exc.value.code == 2
    assert "argument --coeff: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("coeff", ["1e-300", "3e-308"])
def test_a_tiny_normal_coefficient_solves(coeff):
    assert cli.main(["solve", "--n", "15", "--coeff", coeff]) == 0


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "7", "--rhs", "random", "--seed", "-1"],
    ["bench", "--table", "1", "--sizes", "31", "--seed", "-1"],
], ids=["solve", "bench"])
def test_a_negative_seed_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "random mode needs a non-negative integer seed, not -1" in capsys.readouterr().err


@pytest.mark.parametrize("expr, why", [
    ("x+", "does not parse"), ("1/0*x+1", "fails: division by zero"),
    ("x(1)+1", "fails: .*not callable"),
])
def test_malformed_expression_coefficient_usage_error(expr, why, capsys):
    """An expression that does not parse, or whose evaluation raises, is a
    usage error naming it (exit 2), not a traceback with the exit code of
    a solve that did not converge."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--coeff", expr, "--n", "7"])
    assert exc.value.code == 2
    named = re.escape(f"coefficient expression {expr!r} ")
    assert re.search(named + why, capsys.readouterr().err)


@pytest.mark.parametrize("expr", ["2.0**2000*x+1", "10**400*x+1"])
def test_overflowing_expression_coefficient_usage_error(expr, capsys):
    """An expression whose evaluation overflows says so, as the ``a2k``
    presets do, rather than printing the ``OverflowError``'s arguments."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--coeff", expr, "--n", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: coefficient expression {expr!r} overflows a float\n")


def test_expression_coefficient_rejects_complex_values():
    coeff = make_coefficient("exp(x)+1j", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        with pytest.raises(ValueError, match=r"^coefficient 'exp\(x\)\+1j' is complex"):
            coeff(np.array([0.0, 0.5]))


def test_bench_cell_matches_reference_spot():
    t1 = TABLES[1]
    result, rep = bench_cell(t1, "richardson+gauss-seidel", "a1", 31)
    assert isinstance(result, int)
    assert abs(result - 8) <= 2


def test_bench_determinism(tmp_path):
    t1 = TABLES[1]
    rows1 = run_bench_table(t1, sizes=(31,), seed=3)
    rows2 = run_bench_table(t1, sizes=(31,), seed=3)
    assert bench_rows_csv(rows1) == bench_rows_csv(rows2)


# bench CSVs recorded under tests/data: tables 1-3 at every size, tables 4-6
# at n = 15 and 31 where the table has them; the ops_per_iter column pins
# the nominal cost of one cycle
BENCH_DATA = Path(__file__).parent / "data"
BENCH_DATA_SIZES = {1: None, 2: None, 3: None, 4: (31,), 5: (15, 31), 6: (15, 31)}


@pytest.mark.parametrize("tid", sorted(BENCH_DATA_SIZES))
def test_bench_csv_matches_recorded_bytes(tid):
    rows = run_bench_table(TABLES[tid], sizes=BENCH_DATA_SIZES[tid])
    text = "\n".join(bench_rows_csv(rows)) + "\n"
    assert text.encode("utf-8") == (BENCH_DATA / f"bench_table{tid}.csv").read_bytes()


def test_solve_markdown_report_matches_recorded_bytes(tmp_path):
    out = tmp_path / "report.md"
    cli.main(["solve", "--dim", "2", "--coeff", "a7", "--n", "15", "--pre",
              "gauss-seidel", "--post", "cg", "--cg-preconditioner", "diagonal",
              "--rhs", "random", "--format", "markdown", "--output", str(out)])
    assert out.read_bytes() == (BENCH_DATA / "solve_report_a7_n15.md").read_bytes()


def test_bench_markdown_stdout_matches_recorded_bytes(capsys):
    rc = cli.main(["bench", "--table", "5", "--sizes", "15,31", "--format", "markdown"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (BENCH_DATA / "bench_table5_n15_31.md").read_bytes()


def test_column_gates_skip_runs_without_their_sizes():
    t6 = TABLES[6]
    pair = "richardson+cg"

    def row(coeff, n, result, iterations_run):
        return BenchRow(6, pair, coeff, n, result, t6.reference[(pair, coeff, n)],
                        iterations_run, 0)

    small = [row("a7", 15, 1, 1), row("a8", 15, 1, 1),
             row("a7", 31, 1500, 1500), row("a8", 31, DAGGER, 961)]
    messages = [msg for _, msg in evaluate_gates(t6, small)]
    assert messages and not any("column" in msg for msg in messages)

    with_63 = small + [row("a7", 63, DAGGER, 3969), row("a8", 63, 3000, 3000)]
    columns = {msg: ok for ok, msg in evaluate_gates(t6, with_63) if "column" in msg}
    assert columns == {
        f"table 6 column [{pair} / a7] needs > 1000 iterations at n >= 63": True,
        f"table 6 column [{pair} / a8] must not converge within N(n) at n >= 63": False,
    }


def gate_table(reference, gates=None):
    """A hand-made table of one pair over the cells of ``reference``,
    ``{(coeff, n): count}``."""
    return BenchTable(0, "gates", 1, "mgm", tuple(sorted({n for _, n in reference})),
                      ("p",), tuple(sorted({c for c, _ in reference})), "global",
                      {("p", c, n): v for (c, n), v in reference.items()}, gates or {})


def gate_results(table, results) -> list:
    """``evaluate_gates`` on one row per ``{(coeff, n): result}``, its ``ok``s."""
    rows = [BenchRow(0, "p", c, n, v, table.reference[("p", c, n)], 0, 0)
            for (c, n), v in results.items()]
    return [ok for ok, _ in evaluate_gates(table, rows)]


def test_le_gate_on_a_count_and_on_a_dagger():
    """``le`` passes a count up to its bound and fails one above it or a
    dagger, whatever the reference."""
    table = gate_table({("a", 15): 10, ("b", 15): DAGGER}, {("p", "a"): ("le", 17),
                                                            ("p", "b"): ("le", 17)})
    assert gate_results(table, {("a", 15): 17, ("b", 15): 3}) == [True, True]
    assert gate_results(table, {("a", 15): 18, ("b", 15): DAGGER}) == [False, False]
    assert gate_results(table, {("a", 15): DAGGER}) == [False]


def test_tol_gate_with_a_dagger_on_either_side():
    """A dagger on either side of ``tol`` asks for the same cell exactly:
    dagger against dagger passes, a count against a dagger fails both
    ways; two counts compare within the tolerance."""
    gates = {("p", c): ("tol", 2) for c in ("a", "b")}
    table = gate_table({("a", 15): DAGGER, ("b", 15): 10}, gates)
    assert gate_results(table, {("a", 15): DAGGER, ("b", 15): 12}) == [True, True]
    assert gate_results(table, {("a", 15): 10, ("b", 15): DAGGER}) == [False, False]
    assert gate_results(table, {("b", 15): 13}) == [False]


def test_growth_gate_fails_on_one_step_above_its_limit():
    """A ``growth`` column passes counts of at least 60 that grow by at most
    the limit per step, and fails on a single step above it."""
    reference = {("a", n): 60 for n in (15, 31, 63, 127)}
    table = gate_table(reference, {("p", "a"): ("growth", 20.0)})
    assert gate_results(table, dict(zip(reference, (60, 72, 86, 86)))) == [True]
    assert gate_results(table, dict(zip(reference, (60, 72, 87, 86)))) == [False]


def test_column_gate_skips_a_column_of_direct_solves():
    """Rows whose reference is 1 are direct solves, left out of the column
    gates: a column of only those gives no column result, even one that
    would fail, and each of its cells is gated exactly, whatever the
    column's cell gate; the same counts against other references are
    gated by the column."""
    cells = {("a", 15): 1, ("a", 31): 1}
    direct = gate_table(cells, {("p", "a"): ("spread", 2)})
    messages = [msg for _, msg in evaluate_gates(direct, [
        BenchRow(0, "p", "a", n, v, 1, 0, 0) for n, v in ((15, 1), (31, 50))])]
    assert messages == ["table 0 [p / a / n=15] = 1, expected exactly 1",
                        "table 0 [p / a / n=31] = 50, expected exactly 1"]
    assert gate_results(direct, {("a", 15): 1, ("a", 31): 50}) == [True, False]
    lenient = gate_table(cells, {("p", "a"): ("le", 100)})
    assert gate_results(lenient, {("a", 15): 1, ("a", 31): 50}) == [True, False]
    gated = gate_table({c: 2 for c in cells}, {("p", "a"): ("spread", 2)})
    assert gate_results(gated, {("a", 15): 1, ("a", 31): 50}) == [False]
    assert gate_results(gated, {("a", 15): 1, ("a", 31): 3}) == [True]


@pytest.mark.parametrize("gate", [("between", 1, 3), ("info",), ("ge", 10)],
                         ids=lambda gate: gate[0])
def test_a_gate_of_an_unknown_kind_is_refused(gate):
    """A gate whose kind is neither a cell nor a column kind would never
    fail the bench, so ``evaluate_gates`` refuses it, naming the table and
    the gate, even where no row reaches it."""
    table = gate_table({("a", 31): 5, ("a", 63): 5}, {("p", "a"): gate})
    named = re.escape(f"table 0: gate {gate!r}")
    with pytest.raises(ValueError, match=named):
        gate_results(table, {("a", 31): 5, ("a", 63): 5})
    with pytest.raises(ValueError, match=named):
        evaluate_gates(table, [])


@pytest.mark.parametrize("tid", sorted(TABLES))
def test_every_gate_names_a_column_of_its_table(tid):
    """A gate keyed by a (pair, coeff) the table does not run is never
    evaluated: each key names one of the table's columns."""
    table = TABLES[tid]
    assert set(table.gates) <= {(p, c) for p in table.pairs for c in table.coeffs}


def test_bench_gate_evaluation_logic():
    t1 = TABLES[1]
    rows = run_bench_table(t1, sizes=(63,))
    gates = evaluate_gates(t1, rows)
    assert gates
    assert all(ok for ok, _ in gates)


def test_bench_cli_writes_files(tmp_path):
    rc = cli.main(["bench", "--table", "1", "--sizes", "63",
                   "--format", "csv", "--output-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "table1.csv").read_text()
    assert text.splitlines()[0] == "table,pair,coeff,n,iterations,reference,diff,ops_per_iter"
    # byte-identical on rerun
    rc2 = cli.main(["bench", "--table", "1", "--sizes", "63",
                    "--format", "csv", "--output-dir", str(tmp_path)])
    assert (tmp_path / "table1.csv").read_text() == text


def test_bench_byte_identical_across_processes(tmp_path):
    import subprocess
    import sys

    args = [sys.executable, "-m", "wlmg", "bench", "--table", "1", "--sizes",
            "31", "--seed", "7", "--format", "csv"]
    outs = []
    for d in ("a", "b"):
        sub = tmp_path / d
        sub.mkdir()
        res = subprocess.run(args + ["--output-dir", str(sub)],
                             capture_output=True, text=True)
        assert res.returncode in (0, 1)
        outs.append((sub / "table1.csv").read_bytes())
    assert outs[0] == outs[1]


def test_bench_unknown_table():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--table", "9"])
    assert exc.value.code == 2


def test_bench_unknown_table_names_the_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--table", "9"])
    assert exc.value.code == 2
    assert "argument --table: unknown table id 9" in capsys.readouterr().err


@pytest.mark.parametrize("tables, sizes, message", [
    ("1", "30", "argument --sizes: 30 selects no cell of table 1, "
                "whose sizes are 31,63,127,255,511"),
    ("4,5", "1,2", "argument --sizes: 1,2 selects no cell of tables 4,5, whose sizes are "),
], ids=["one-table", "two-tables"])
def test_bench_sizes_selecting_no_cell_is_an_error(tables, sizes, message, capsys):
    """A size list that matches no size of any requested table fails (exit 2)
    naming --sizes, after the per-table skip lines."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--table", tables, "--sizes", sizes])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    skipped = [f"table {t}: none of the requested sizes apply, skipping"
               for t in tables.split(",")]
    assert captured.out.splitlines() == skipped


def test_verify_cli(tmp_path):
    out = tmp_path / "theory.csv"
    rc = cli.main(["verify", "--coeffs", "a1,a2", "--sizes", "7,15",
                   "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("bc,coeff,n,alpha_post,beta,bound,"
                       "measured_contraction,theta1,theta2")
    assert len(lines) == 5
    for line in lines[1:]:
        parts = line.split(",")
        alpha, beta, bound, measured = map(float, parts[3:7])
        assert alpha > 0 and beta >= alpha and measured <= bound + 1e-8


def test_verify_takes_expressions(tmp_path):
    """``--coeffs`` takes what ``solve --coeff`` takes, split at the commas
    outside parentheses; a coefficient holding a comma is one quoted field."""
    out = tmp_path / "theory.csv"
    rc = cli.main(["verify", "--coeffs", "a1,where(x < 0.5, 1.0, 2.0),exp(x)+1",
                   "--sizes", "7", "--output", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert [row[1] for row in rows] == ["coeff", "a1", "where(x < 0.5, 1.0, 2.0)", "exp(x)+1"]
    assert all(len(row) == 9 for row in rows)


@pytest.mark.parametrize("bc", ["dirichlet", "periodic", "reflective"])
def test_verify_default_sizes_follow_the_boundary_condition(bc, tmp_path, capsys):
    """``wlmg verify --bc <bc>`` with no ``--sizes`` runs 7,15,31 on
    Dirichlet grids and 8,16,32 on periodic and reflective ones, exits 0,
    and writes the rows recorded under tests/data, each value within
    1e-12 relative (their printed digits round by at most 5e-13)."""
    out = tmp_path / "theory.csv"
    assert cli.main(["verify", "--bc", bc, "--output", str(out)]) == 0
    assert capsys.readouterr().out.endswith("theory suite: all chains hold\n")
    assert set(cli.VERIFY_SIZES) == {"dirichlet", "periodic", "reflective"}
    got = out.read_text().splitlines()
    want = (Path(__file__).parent / "data" / f"verify_{bc}.csv").read_text().splitlines()
    assert got[0] == want[0] and len(got) == len(want) == 10
    sizes = set()
    for line, ref in zip(got[1:], want[1:]):
        row, ref = line.split(","), ref.split(",")
        assert row[:3] == ref[:3]
        sizes.add(int(row[2]))
        for value, recorded in zip(map(float, row[3:]), map(float, ref[3:])):
            assert abs(value - recorded) <= 1e-12 * abs(recorded)
    assert tuple(sorted(sizes)) == cli.VERIFY_SIZES[bc]


def test_pair_mapping_contract():
    rgs = PAIR_SMOOTHERS["richardson+gauss-seidel"]
    assert (rgs["pre"], rgs["post"]) == ("gauss-seidel", "richardson")
    rcg = PAIR_SMOOTHERS["richardson+cg"]
    assert (rcg["pre"], rcg["post"], rcg["cg_preconditioner"]) == \
        ("richardson", "cg", "none")
    gscg = PAIR_SMOOTHERS["gauss-seidel+cg"]
    assert (gscg["pre"], gscg["post"], gscg["cg_preconditioner"]) == \
        ("gauss-seidel", "cg", "diagonal")


def test_parser_choices_are_the_library_values():
    """Every option with a fixed set of values offers exactly the values the
    library accepts, in the library's order."""
    import argparse

    from wlmg.discretize import BoundaryCondition, GridSpec
    from wlmg.mgm import CG_PRECONDITIONERS, METHODS, SCALINGS, SMOOTHERS, SolverConfig

    bcs = tuple(bc.value for bc in BoundaryCondition)
    want = {("solve", "bc"): bcs, ("verify", "bc"): bcs, ("solve", "method"): METHODS,
            ("solve", "pre"): SMOOTHERS, ("solve", "post"): SMOOTHERS,
            ("solve", "richardson_scaling"): SCALINGS,
            ("solve", "cg_preconditioner"): CG_PRECONDITIONERS}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {(command, action.dest): tuple(action.choices)
           for command, parser in sub.choices.items() for action in parser._actions
           if (command, action.dest) in want}
    assert got == want
    for bc in bcs:
        GridSpec((15,), bc)
    accepted = {"method": METHODS, "pre": SMOOTHERS, "post": SMOOTHERS,
                "richardson_scaling": SCALINGS, "cg_preconditioner": CG_PRECONDITIONERS}
    for field, values in accepted.items():
        for value in values:
            SolverConfig(**{field: value})
        with pytest.raises(ValueError):
            SolverConfig(**{field: "unknown"})
