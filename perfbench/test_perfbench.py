"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import harness
import tracing
from checks import SolutionChecker
import hostspeed
from wlmg import mgm

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = {
    "dirichlet-gs": replace(harness.WORKLOADS["dirichlet-a7-511-gs"], n=31,
                            setups_per_rep=1, solves_per_rep=2),
    # a7 needs more than N = 31^2 cycles with plain CG smoothing; a6 does not
    "dirichlet-rcg": replace(harness.WORKLOADS["dirichlet-a7-63-rcg"], n=31, coeff="a6",
                             setups_per_rep=1, solves_per_rep=2),
    "reflective-gs": replace(harness.WORKLOADS["reflective-a2-128-gs"], n=32,
                             setups_per_rep=1, solves_per_rep=2),
}


def _solved(w, seed=0):
    grid = w.grid()
    problem, H = harness.setup(w, grid, w.config())
    b = harness.rhs(seed, 0, grid.n_total)
    x, report = mgm.solve(H, b, tol=harness.TOL)
    checker = SolutionChecker(grid, w.coeff, problem, harness.TOL)
    return checker, b, x, report


@pytest.mark.parametrize("key", ["dirichlet-gs", "reflective-gs"])
def test_checker_accepts_solution_and_rejects_perturbed(key):
    checker, b, x, report = _solved(SMALL[key])
    assert checker.check(b, x, report.converged) == []
    noise = np.random.default_rng(1).standard_normal(x.size)
    perturbed = x + 1e-4 * np.linalg.norm(x) / np.sqrt(x.size) * noise
    assert checker.check(b, perturbed, True)
    assert checker.check(b, x, False) == ["solver did not report convergence"]
    x_nan = x.copy()
    x_nan[3] = np.nan
    assert "iterate is not finite" in checker.check(b, x_nan, True)


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    assert e2e == list(harness.END_TO_END)
    assert layers == list(harness.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for name in e2e + layers + list(harness.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == {**harness.END_TO_END, **harness.PER_LAYER}


def test_same_seed_gives_same_inputs_and_iterations():
    w = SMALL["dirichlet-rcg"]
    one = harness.Run(w, seed=5, seconds=0, trace=False).execute()
    two = harness.Run(w, seed=5, seconds=0, trace=False).execute()
    other = harness.Run(w, seed=6, seconds=0, trace=False).execute()
    assert one.rhs_digests == two.rhs_digests
    assert one.iterations == two.iterations
    assert one.residuals == two.residuals
    assert one.rhs_digests != other.rhs_digests
    assert one.failed == 0 and one.attempted == 2 * (1 + w.solves_per_rep)


@pytest.mark.parametrize("key", sorted(SMALL))
def test_tracing_does_not_change_the_computation(key):
    w = SMALL[key]
    plain = harness.Run(w, seed=3, seconds=0, trace=False).execute()
    traced = harness.Run(w, seed=3, seconds=0, trace=True).execute()
    # each traced solve is compared with its untraced twin inside the run
    assert traced.failed == 0, traced.failures
    assert traced.iterations == plain.iterations
    assert traced.residuals == plain.residuals
    assert [d["mgm.iterations"] for d in traced.solve_layers] == plain.iterations
    assert traced.tracer.unhooked == []
    assert not hasattr(mgm.vcycle, "__wrapped__")  # hooks are restored


@pytest.mark.parametrize("key", sorted(SMALL))
def test_traced_phases_account_for_the_solve(key):
    run = harness.Run(SMALL[key], seed=0, seconds=0, trace=True).execute()
    for d in run.solve_layers:
        parts = (sum(d[k] for k in tracing.level_metric_names())
                 + d["mgm.outer_residual_s"] + d["mgm.solve_self_s"])
        assert parts == pytest.approx(d["mgm.traced_solve_s"], rel=1e-9)
        sweep = d["smoothers.gs_sweep_s"]
        assert (sweep > 0) == (key == "reflective-gs")
        deepest = run.summary["n_levels"] - 1
        assert d[f"mgm.L{deepest}.coarse_s"] > 0
        assert d["mgm.L0.pre_s"] > 0 and d["mgm.L0.post_s"] > 0
        assert d["mgm.matvec_flops"] > 0
    layers = run.per_layer()
    assert set(harness.PER_LAYER) <= set(layers)


def test_host_speed_scales_by_the_gauge_times_around_the_call(monkeypatch):
    speed = hostspeed.HostSpeed()
    # before, then after: the slowest tenth of the sixteen is dropped
    gauge_times = iter([0.002] * 8 + [0.004] * 7 + [0.5])
    monkeypatch.setattr(speed, "gauge", lambda: next(gauge_times))
    result, wall, scaled = speed.timed(lambda x, y: x + y, 1, y=2)
    assert result == 3
    assert scaled == pytest.approx(wall * hostspeed.REF_S / ((8 * 0.002 + 7 * 0.004) / 15))


def test_host_speed_samples_the_gauge_during_a_long_call():
    speed = hostspeed.HostSpeed()

    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return len(speed.gauge_s)

    n = len(speed.gauge_s)
    inside, _, _ = speed.timed(spin, 6 * hostspeed.INTERVAL_S)
    assert inside - n - hostspeed.BRACKET >= 3
    assert len(speed.gauge_s) == inside + hostspeed.BRACKET
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_hierarchy_summary_complexities():
    w = SMALL["dirichlet-gs"]
    _, H = harness.setup(w, w.grid(), w.config())
    s = harness.hierarchy_summary(H)
    nnz = [lev.combined.nnz for lev in H.levels]
    assert s["operator_complexity"] == pytest.approx(sum(nnz) / nnz[0])
    assert [lev["sizes"] for lev in s["levels"]] == [[31, 31], [15, 15]]
    assert s["grid_complexity"] == pytest.approx((31 ** 2 + 15 ** 2) / 31 ** 2)
    assert s["coarse_solver"] == "sparse" and s["gs_factor_nnz"] > 0


def test_exits_without_result_when_the_library_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"][1:] + ["--workload", spec["workloads"][0]["name"],
                                 "--seed", "1", "--seconds", "1", "--trace", "0"]
    child = subprocess.run([sys.executable] + cmd, cwd=tmp_path, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode != 0
    assert child.stdout == ""
