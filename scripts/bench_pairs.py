"""Parent-versus-change comparison of the benchmark's end-to-end metrics.

Runs ``perfbench/run.py --trace 0`` of two checkouts on every workload, one
seed at a time, alternating which checkout goes first, and writes one JSON
file with, per workload and metric, the median and quartiles of each side
over the seeds, the per-seed values, the change's median over the parent's,
and the share of seed pairs in which the change was better.  The
environment record of the machine is stored beside them.

Each metric also gets two checks (``pair_checks``): whether a claimed gain
holds (the change better in at least 9 of 10 pairs, and its median better
than the parent's by more than the parent's interquartile range), and
whether the change's median is within the metric's ``bound`` in the change
checkout's ``BENCHMARK.json`` (``null`` for a metric without one).

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --seeds 10 --first-seed 11 --seconds 20 --out BENCH_9.json

``--first-seed`` (default 1) starts the seed range, so a comparison can
run on seeds that were not used while the change was written; the file
records the range.  The workloads are those the change checkout's
``BENCHMARK.json`` declares, unless ``--workloads`` names others.

``--layers N`` (default 0) then runs each side N more times per workload
with ``--trace 1``, alternating as the pairs do, on the first N seeds of
the range, and stores each per-layer metric's median per side, and their
ratio, under the workload's ``layers`` (``layer_summary``): which layer a
gain came from.  With 0 no traced run is made and the file has no
``layers``.

Each run is a separate process, so the set-up memory figure is always a
first set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.rstrip("\n").split("\n")[-1])


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def pair_checks(parent: list, change: list, better: str = "lower",
                bound: float | None = None) -> dict:
    """The two checks of one metric over alternating pairs of runs,
    ``parent[i]`` against ``change[i]``.

    ``claim_holds``: the change is better in at least nine tenths of the
    pairs, and its median is better than the parent's by more than the
    parent's interquartile range.  ``within_bound``: the change's median is
    worse than the parent's by at most ``bound`` times the parent's median,
    or ``None`` without a bound.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change, strict=True))
    before, after = summary(parent), summary(change)
    gain = sign * (before["median"] - after["median"])
    claim = 10 * wins >= 9 * len(parent) and gain > before["q3"] - before["q1"]
    within = None if bound is None else -gain <= bound * abs(before["median"])
    return {"claim_holds": claim, "within_bound": within}


def layer_summary(runs: dict) -> dict:
    """Per-layer metrics of traced runs, ``{"parent": [record, ...],
    "change": [...]}`` as ``run.py --trace 1`` prints them: per metric its
    unit, each side's median and the change's median over the parent's
    (None where the parent's is 0)."""
    out = {}
    for metric, entry in runs["parent"][0]["metrics"].items():
        medians = {side: statistics.median(r["metrics"][metric]["value"] for r in runs[side])
                   for side in ("parent", "change")}
        out[metric] = {"unit": entry["unit"], **medians,
                       "ratio_of_medians": (medians["change"] / medians["parent"]
                                            if medians["parent"] else None)}
    return out


def environment(checkout: Path) -> dict:
    """The benchmark's environment record, with the BLAS thread count that
    ``run.py`` sets."""
    code = ("import json, sys; sys.path.insert(0, 'perfbench'); "
            "from environment import environment; print(json.dumps(environment()))")
    out = subprocess.run([sys.executable, "-c", code], cwd=checkout,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated names (default: the change's BENCHMARK.json)")
    parser.add_argument("--layers", type=int, default=0,
                        help="traced runs per side and workload after the pairs (default 0)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not 0 <= args.layers <= args.seeds:
        parser.error(f"--layers must be between 0 and --seeds ({args.seeds})")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_metrics = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    if args.workloads is None:
        workloads = [w["name"] for w in declared["workloads"]]
    else:
        workloads = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    results = {}
    for name in workloads:
        runs = {"parent": [], "change": []}
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], name, seed, args.seconds))
                print(f"{name} seed {seed} {side} done", file=sys.stderr)
        metrics = {}
        for metric, entry in runs["parent"][0]["metrics"].items():
            values = {side: [r["metrics"][metric]["value"] for r in runs[side]]
                      for side in runs}
            better = sum(c < p for p, c in zip(values["parent"], values["change"]))
            spec = declared_metrics.get(metric, {})
            metrics[metric] = {
                "unit": entry["unit"],
                "parent": summary(values["parent"]),
                "change": summary(values["change"]),
                "ratio_of_medians": (statistics.median(values["change"])
                                     / statistics.median(values["parent"])),
                "pairs_change_lower": f"{better} of {len(values['parent'])}",
                **pair_checks(values["parent"], values["change"],
                              spec.get("better", "lower"), spec.get("bound")),
            }
        results[name] = {
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
            "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
            "metrics": metrics,
        }
        if args.layers:
            traced = {"parent": [], "change": []}
            for k, seed in enumerate(seeds[:args.layers]):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    traced[side].append(run_once(sides[side], name, seed, args.seconds, 1))
                    print(f"{name} seed {seed} {side} traced done", file=sys.stderr)
            results[name]["layers"] = layer_summary(traced)
    record = {
        "command": "perfbench/run.py --workload <w> --seed <s> --seconds "
                   f"{args.seconds:g} --trace 0",
        "seeds": list(seeds),
        "seed_range": [seeds[0], seeds[-1]],
        "order": "the first, third, ... seed runs the parent first, the others "
                 "the change first",
        **({"layers": f"medians of {args.layers} runs per side with --trace 1, on seeds "
                      f"{seeds[0]}-{seeds[args.layers - 1]}"} if args.layers else {}),
        "environment": environment(sides["change"]),
        "workloads": results,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
