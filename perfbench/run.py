"""Benchmark of the wlmg solver, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dirichlet-a7-511-gs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` reports the end-to-end metrics (set-up, solve, repetition and
per-cycle time, corrected for the host's speed by ``hostspeed``, and set-up
memory); ``--trace 1`` runs the same loop with spans recorded at every layer
boundary and reports the per-layer metrics, writing the spans of its last
traced set-up and solve under ``perfbench/out/``.
``--workload all`` runs every workload, each in a fresh child process so
that each set-up memory figure is a first set-up.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The library is
imported from ``src/`` of the checkout; without it the script exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "wlmg" / "__init__.py").is_file():
        _fail(f"no wlmg sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import wlmg
    if Path(wlmg.__file__).resolve().parent != SRC / "wlmg":
        _fail(f"imported wlmg from {wlmg.__file__}, not from {SRC}")


def _fmt(v):
    return "-" if v is None else f"{v:.6g}"


def _print_report(run, env):
    import harness
    from environment import llc_note
    from hostspeed import REF_S

    w = run.w
    print(f"workload {w.name}  seed {run.seed}  seconds {run.seconds}  "
          f"trace {int(run.trace)}  repetitions {run.reps}")
    print(f"why: {w.why}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}, cpu {env['cpu']}, "
          "caches " + " ".join(f"{k}={v}" for k, v in env["caches"].items()))
    s = run.summary
    print(f"note: {llc_note(env, s['bytes_computed'])}")
    print(f"hierarchy: {s['n_levels']} levels, operator complexity "
          f"{s['operator_complexity']:.4f}, grid complexity {s['grid_complexity']:.4f}, "
          f"GS factor nnz {s['gs_factor_nnz']}, coarse solver {s['coarse_solver']}")
    for i, lev in enumerate(s["levels"]):
        print(f"  L{i}: sizes {'x'.join(map(str, lev['sizes']))}  N {lev['n']}  "
              f"nnz {lev['nnz']}  rank-one {lev['rank_one']}  gs {lev['gs']}  "
              f"gs factor nnz {lev['gs_factor_nnz']}")
    gauge = harness.percentile_summary(run.speed.gauge_s)
    print(f"host speed: gauge median {1e3 * gauge['median']:.4g} ms, quartiles "
          f"{1e3 * gauge['q1']:.4g}..{1e3 * gauge['q3']:.4g} ms over {gauge['n']} "
          f"timings; scaled times are at {1e3 * REF_S:.4g} ms")
    if not run.trace:
        print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'p_high':>18}{'n':>6}"
              f"{'wall median':>14}  unit")
        for name, unit in harness.END_TO_END.items():
            values = run.samples.get(name) or [run.setup_peak_mb]
            p = harness.percentile_summary(values)
            high = "-" if p["p_high"] is None else f"p{p['p_high']}={p['p_high_value']:.6g}"
            wall = run.wall.get(name)
            wall = _fmt(harness.percentile_summary(wall)["median"] if wall else None)
            print(f"{name:<16}{_fmt(p['median']):>12}{_fmt(p['q1']):>12}{_fmt(p['q3']):>12}"
                  f"{high:>18}{p['n']:>6}{wall:>14}  {unit}")
    print(f"failed_frac {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} solves)")
    iters = sorted(set(run.iterations))
    print(f"iterations per solve: {iters[0]}..{iters[-1]}")
    if run.checker.lu is not None:
        print(f"largest relative distance to the direct solution: "
              f"{run.checker.max_ref_error:.3e}")
    for failure in run.failures:
        print(f"FAILED {failure}")


def _run_one(args) -> dict:
    import harness
    from environment import environment
    import tracing

    run = harness.Run(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace)).execute()
    _print_report(run, environment())
    if args.trace:
        layers = run.per_layer()
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in harness.PER_LAYER.items()}
        for name, unit in harness.PER_LAYER.items():
            print(f"{name:<34}{_fmt(layers[name]):>14}  {unit}")
        if run.tracer.unhooked:
            print("unhooked (reported as 0): " + ", ".join(run.tracer.unhooked))
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.spans_to(path)
        print(f"spans: {path.relative_to(HERE.parent)}")
        solve_s = layers["mgm.traced_solve_s"]
        accounted = (sum(layers[k] for k in tracing.level_metric_names())
                     + layers["mgm.outer_residual_s"] + layers["mgm.solve_self_s"])
        print(f"phases account for {accounted / solve_s:.4f} of the traced solve")
    else:
        metrics = {name: {"value": value, "unit": harness.END_TO_END[name]}
                   for name, value in run.end_to_end().items()}
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def _run_all(args) -> dict:
    """Every workload in a child process of its own; metrics get the
    workload name as a prefix."""
    import harness

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in harness.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            _fail(f"workload {name} exited with {child.returncode}")
        one = json.loads(lines[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = value
        print()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one BLAS thread, fixed before numpy loads: the library's dense work is a
    # small coarse LU, and idle OpenBLAS threads spin on the other cores
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _import_library()
    sys.path.insert(0, str(HERE))
    import harness

    if args.workload != "all" and args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose one of {', '.join(harness.WORKLOADS)} or all")
    result = _run_all(args) if args.workload == "all" else _run_one(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
