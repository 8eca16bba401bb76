"""Bit-for-bit comparison of the set-up and solves of two checkouts.

Runs a fixed list of configurations in each checkout, each in its own
process with that checkout's ``src`` on the import path, and compares:

* level arrays by value (index arrays may change their integer type): the
  splitting's ``a_min`` and correction, and per level the CSR ``combined``
  and ``structured.to_sparse()`` arrays, the diagonals, ``dinv``,
  ``jacobi_inv``, the four damping factors, ``sup|symbol|``, the projector,
  and the nnz of the Gauss-Seidel and coarse factors;
* iterates, residual histories, iteration counts and ``operations`` of every
  solve by bytes.

Each array is reduced to a SHA-256 digest of its canonical bytes (int64 or
float64, ``-0.0`` read as ``0.0`` for the by-value arrays), so the two
sides exchange digests, not arrays.  Prints the first mismatches and exits
1 if there is any.

    python3 scripts/compare_builds.py --parent ../parent --change .
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

PRESETS_1D = ("a1", "a2", "a3", "a2k:1", "a2k:3")
PRESETS_2D = ("a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a2k:1")
SIZES_1D = {"dirichlet": (15, 31, 63, 127, 255), "periodic": (16, 32, 64, 128, 256),
            "reflective": (16, 32, 64, 128, 256)}
SIZES_2D = {"dirichlet": ((15, 15), (31, 31), (63, 63), (63, 31)),
            "periodic": ((16, 16), (32, 32), (64, 64), (64, 32)),
            "reflective": ((16, 16), (32, 32), (64, 64), (64, 32))}
SOLVERS = (
    dict(pre="richardson", post="richardson"),
    dict(pre="richardson", post="richardson", richardson_scaling="diagonal"),
    dict(pre="gauss-seidel", post="gauss-seidel"),
    dict(pre="gauss-seidel", post="richardson", richardson_scaling="diagonal"),
    dict(pre="richardson", post="cg"),
    dict(pre="cg", post="cg", cg_preconditioner="diagonal"),
)
# V-cycles per solve, as in the dumps of earlier changes; most solves here
# converge well before it
MAX_ITER = 300


def problems():
    for bc, sizes in SIZES_1D.items():
        for n in sizes:
            for coeff in PRESETS_1D:
                yield bc, (n,), coeff
    for bc, sizes in SIZES_2D.items():
        for shape in sizes:
            for coeff in PRESETS_2D:
                yield bc, shape, coeff


def digest(a, by_value: bool) -> str:
    a = np.asarray(a)
    if by_value:
        a = a.astype(np.int64 if a.dtype.kind in "biu" else np.float64) + 0
    return hashlib.sha256(str(a.shape).encode() + a.tobytes()).hexdigest()


def csr_digests(out: dict, key: str, M) -> None:
    for name in ("indptr", "indices", "data"):
        out[f"{key}.{name}"] = digest(getattr(M, name), True)


def dump() -> dict:
    """Digests of every configuration, keyed by configuration and array."""
    # imported here, in the child whose import path holds one checkout's src
    from wlmg.discretize import BoundaryCondition, GridSpec, assemble, build_rhs, split
    from wlmg.mgm import LevelHierarchy, SolverConfig, build_hierarchy, solve

    warnings.simplefilter("ignore")
    out = {}
    for bc, shape, coeff in problems():
        grid = GridSpec(shape, BoundaryCondition(bc))
        tag = f"{bc}/{'x'.join(map(str, shape))}/{coeff}"
        problem = split(assemble(grid, coeff), grid, coeff)
        out[f"{tag}/a_min"] = digest(problem.a_min, True)
        csr_digests(out, f"{tag}/correction", problem.correction)
        b = build_rhs(grid, "random", seed=0)
        for method in ("mgm", "tgm"):
            H = build_hierarchy(problem, SolverConfig(method=method))
            for s, lev in enumerate(H.levels):
                key = f"{tag}/{method}/L{s}"
                csr_digests(out, f"{key}/combined", lev.combined)
                csr_digests(out, f"{key}/to_sparse", lev.structured.to_sparse())
                out[f"{key}/offsets"] = digest(lev.operator.offsets, True)
                out[f"{key}/diagonals"] = digest(lev.operator.data, True)
                for name in ("dinv", "jacobi_inv", "omega_pre", "omega_post",
                             "omega_pre_scaled", "omega_post_scaled"):
                    out[f"{key}/{name}"] = digest(getattr(lev, name), True)
                out[f"{key}/sup_norm"] = digest(lev.structured.symbol.sup_norm(), True)
                if lev.projector is None:
                    out[f"{key}/direct_nnz"] = digest(lev._ensure_direct()[2], True)
                else:
                    csr_digests(out, f"{key}/projector", lev.projector.to_sparse())
                    out[f"{key}/gs_nnz"] = digest(lev._ensure_gs()[3], True)
            for k, kwargs in enumerate(SOLVERS):
                key = f"{tag}/{method}/solver{k}"
                config = SolverConfig(method=method, **kwargs)
                x, rep = solve(LevelHierarchy(H.levels, config), b, max_iter=MAX_ITER)
                out[f"{key}/x"] = digest(x, False)
                out[f"{key}/residuals"] = digest(np.array(rep.residuals), False)
                out[f"{key}/iterations"] = digest(np.int64(rep.iterations), False)
                out[f"{key}/operations"] = digest(np.int64(rep.operations), False)
        print(f"{tag} done", file=sys.stderr)
    return out


def run(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1"}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--dump"]
    res = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
                         check=True)
    return json.loads(res.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--dump", action="store_true",
                        help="print this interpreter's digests as JSON and exit")
    args = parser.parse_args(argv)
    if args.dump:
        json.dump(dump(), sys.stdout)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    parent, change = (run(p.resolve()) for p in (args.parent, args.change))
    keys = sorted(set(parent) | set(change))
    bad = [k for k in keys if parent.get(k) != change.get(k)]
    n_configs = sum(k.endswith("/iterations") for k in keys)
    print(f"{n_configs} solve configurations, {len(keys)} digests, {len(bad)} mismatches")
    for k in bad[:20]:
        print(f"MISMATCH {k}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
