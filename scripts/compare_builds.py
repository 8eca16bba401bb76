"""Bit-for-bit comparison of the set-up and solves of two checkouts.

Runs a fixed list of configurations in each checkout, each in its own
process with that checkout's ``src`` on the import path, and compares:

* level arrays by value (index arrays may change their integer type): the
  splitting's ``a_min`` and correction (as CSR, whether the checkout holds
  it as CSR or by diagonals), and per level the CSR arrays of ``combined``
  and of the structured part's bands, the diagonals, ``sup|symbol|``,
  the projector (as CSR, whether the checkout stores it as CSR or CSC), and
  the nnz of the Gauss-Seidel and coarse factors;
* each Gauss-Seidel and coarse factor by bytes, through its solve of a
  fixed random vector, so a factor that moved shows even where its nnz
  did not;
* per solver configuration, with the hierarchy built for it, each
  smoothing level's pre- and post-smoothing step by bytes, applied to fixed
  random vectors from a given and from the zero iterate, so damping that
  moved shows however a checkout stores it;
* iterates, residual histories, iteration counts, ``converged`` and
  ``operations`` of every solve by bytes.

Each array is reduced to a SHA-256 digest of its canonical bytes (int64 or
float64, ``-0.0`` read as ``0.0`` for the by-value arrays), so the two
sides exchange digests, not arrays.  If any digest differs, the
configurations that hold a mismatch run again in each checkout, which
writes just the mismatching arrays to a temporary directory, and the
report says by how much they moved: per level value, the configurations
and entries that differ; the solves grouped by what moved in them besides
their rounding (``iterations``, ``converged``, ``operations``, or
nothing).  Each level value, and per group of solves the iterates and the
residual histories, reports the largest entry-wise relative difference
and the largest norm-wise one, ``||new - old|| / ||old||``.  An entry near
zero inflates the first, so the second says how far the array as a whole
moved.  It prints the first
mismatches and that report, and exits 1 if there is any mismatch.

    python3 scripts/compare_builds.py --parent ../parent --change .
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import defaultdict
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


def canonical(a, by_value: bool) -> np.ndarray:
    a = np.asarray(a)
    if by_value:
        a = a.astype(np.int64 if a.dtype.kind in "biu" else np.float64) + 0
    return a


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(str(a.shape).encode() + a.tobytes()).hexdigest()


def fixed(n: int, seed: int = 0) -> np.ndarray:
    """The vector each factor solves with (seed 0) and the right-hand side
    each smoothing step takes (seed 1): standard normals."""
    return np.random.default_rng(seed).standard_normal(n)


def arrays(bc: str, shape: tuple, coeff: str):
    """``(key, array)`` of one configuration, canonical as compared."""
    # imported here, in the child whose import path holds one checkout's src
    import scipy.sparse as sp
    from wlmg.discretize import BoundaryCondition, GridSpec, assemble, build_rhs, split
    from wlmg.mgm import SolverConfig, build_hierarchy, solve
    from wlmg.structured import dia_from_bands

    def csr(key, M):
        for name in ("indptr", "indices", "data"):
            yield f"{key}.{name}", canonical(getattr(M, name), True)

    grid = GridSpec(shape, BoundaryCondition(bc))
    tag = f"{bc}/{'x'.join(map(str, shape))}/{coeff}"
    problem = split(assemble(grid, coeff), grid, coeff)
    yield f"{tag}/a_min", canonical(problem.a_min, True)
    correction = problem.correction
    if isinstance(correction, dict):        # {offset: band}
        correction = dia_from_bands(correction, grid.n_total).tocsr()
    yield from csr(f"{tag}/correction", correction)
    b = build_rhs(grid, "random", seed=0)
    for method in ("mgm", "tgm"):
        H = build_hierarchy(problem, SolverConfig(method=method))
        for s, lev in enumerate(H.levels):
            key = f"{tag}/{method}/L{s}"
            yield from csr(f"{key}/combined", lev.combined)
            yield from csr(f"{key}/structured",
                           dia_from_bands(lev.structured.bands(), lev.n).tocsr())
            yield f"{key}/offsets", canonical(lev.operator.offsets, True)
            yield f"{key}/diagonals", canonical(lev.operator.data, True)
            yield f"{key}/sup_norm", canonical(lev.structured.symbol.sup_norm(), True)
            if lev.projector is None:
                # the factor tuples are read by slot: their lengths differ
                # between versions
                direct = lev._ensure_direct()
                lu, nnz = direct[1], direct[2]
                yield f"{key}/direct_nnz", canonical(nnz, True)
                yield f"{key}/direct_solve", lu.solve(fixed(lu.shape[0]))
            else:
                yield from csr(f"{key}/projector", sp.csr_array(lev.projector.to_sparse()))
                gs = lev._ensure_gs()
                lu, nnz = gs[1], gs[3]
                yield f"{key}/gs_nnz", canonical(nnz, True)
                yield f"{key}/gs_solve", lu.solve(fixed(lu.shape[0]))
        for k, kwargs in enumerate(SOLVERS):
            key = f"{tag}/{method}/solver{k}"
            H = build_hierarchy(problem, SolverConfig(method=method, **kwargs))
            for s, steps in enumerate(H.smoothers):      # no "/solver": a level value
                x0, rhs = fixed(H.levels[s].n), fixed(H.levels[s].n, 1)
                for name, step in zip(("pre", "post"), steps):
                    step_key = f"{tag}/{method}/L{s}/step{k}_{name}"
                    yield step_key, step(x0, rhs, None)
                    yield f"{step_key}_zero", step(None, rhs, None)
            x, rep = solve(H, b, max_iter=MAX_ITER)
            yield f"{key}/x", x
            yield f"{key}/residuals", np.array(rep.residuals)
            yield f"{key}/iterations", np.int64(rep.iterations)
            yield f"{key}/converged", np.bool_(rep.converged)
            yield f"{key}/operations", np.int64(rep.operations)


def config_tag(key: str) -> str:
    return "/".join(key.split("/")[:3])


def dump(request: dict | None) -> dict | None:
    """Without a request, the digests of every configuration.  A request
    ``{"keys": [...], "dir": ...}`` writes the named arrays instead, one
    ``.npz`` per configuration in ``dir`` (entry ``k<i>`` is the i-th of
    that configuration's keys, sorted)."""
    warnings.simplefilter("ignore")
    wanted = defaultdict(list)
    for key in (request or {}).get("keys", []):
        wanted[config_tag(key)].append(key)
    out = {}
    for bc, shape, coeff in problems():
        tag = f"{bc}/{'x'.join(map(str, shape))}/{coeff}"
        if request is None:
            out.update((key, digest(a)) for key, a in arrays(bc, shape, coeff))
        elif tag in wanted:
            keys = sorted(wanted[tag])
            found = dict((key, a) for key, a in arrays(bc, shape, coeff) if key in keys)
            np.savez(Path(request["dir"]) / f"{tag.replace('/', '_')}.npz",
                     **{f"k{i}": found[key] for i, key in enumerate(keys) if key in found})
        print(f"{tag} done", file=sys.stderr)
    return out if request is None else None


def run(checkout: Path, request: dict | None = None) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1"}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--dump"]
    res = subprocess.run(cmd, cwd=checkout, env=env, input=json.dumps(request),
                         stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(res.stdout)


def moved(old: np.ndarray, new: np.ndarray) -> tuple | None:
    """Entries that differ, their largest relative difference (``inf``
    where a zero became nonzero) and the norm-wise relative difference
    ``||new - old|| / ||old||`` over the finite entries (``inf`` where a
    differing entry is not finite); None if the shapes differ."""
    if old.shape != new.shape:
        return None
    old, new = old.astype(float).ravel(), new.astype(float).ravel()
    differ = (old != new) & ~(np.isnan(old) & np.isnan(new))
    if not differ.any():
        return 0, 0.0, 0.0
    both = np.isfinite(old) & np.isfinite(new)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(new[differ] - old[differ]) / np.abs(old[differ])
        norm = np.linalg.norm(new[both] - old[both]) / np.linalg.norm(old[both])
    largest = float(np.nanmax(rel)) if np.isfinite(rel).any() else np.inf
    normwise = float(norm) if both[differ].all() and np.isfinite(norm) else np.inf
    return int(differ.sum()), largest, normwise


def report(bad: list, parent_dir: Path, change_dir: Path) -> None:
    """How far each mismatching array moved, level values by name and
    solves by what moved in them."""
    by_tag = defaultdict(list)
    for key in bad:
        by_tag[config_tag(key)].append(key)
    # configs, entries, largest entry-wise and norm-wise differences, where
    values = defaultdict(lambda: [0, 0, 0.0, 0.0, ""])
    solves = defaultdict(dict)
    for tag, keys in by_tag.items():
        keys = sorted(keys)
        name = f"{tag.replace('/', '_')}.npz"
        with np.load(parent_dir / name) as old, np.load(change_dir / name) as new:
            for i, key in enumerate(keys):
                a, b = old.get(f"k{i}"), new.get(f"k{i}")
                change = None if a is None or b is None else moved(a, b)
                if "/solver" in key:
                    solve, field = key.rsplit("/", 1)
                    solves[solve][field] = change
                    continue
                what = key[len(tag) + 1:]
                v = values[what]
                v[0] += 1
                if change is None:
                    v[2], v[3], v[4] = np.inf, np.inf, f"{tag} (shape)"
                    continue
                v[1] += change[0]
                v[3] = max(v[3], change[2])
                if change[1] > v[2] or not v[4]:
                    v[2], v[4] = change[1], tag
    for what, (n, entries, rel, norm, where) in sorted(values.items()):
        print(f"MOVED {what}: {n} configurations, {entries} entries, largest relative "
              f"difference {rel:.3g} entry-wise ({where}), {norm:.3g} norm-wise")
    groups = defaultdict(list)      # what moved besides the rounding -> its solves
    for solve, fields in sorted(solves.items()):
        counts = [f for f in ("iterations", "converged", "operations") if f in fields]
        groups[", ".join(counts) or "rounding only"].append((solve, fields))
    for kind, members in sorted(groups.items()):
        names = [solve for solve, _ in members]
        listed = f" ({', '.join(names[:5])}" + (", ...)" if len(names) > 5 else ")")
        print(f"SOLVES {kind}: {len(names)}{listed}")
        print("  " + "; ".join(
            _movement(label, [fields[f] for _, fields in members if f in fields])
            for f, label in (("x", "iterate"), ("residuals", "residual history"))))


def _movement(label: str, changes: list) -> str:
    """The largest entry-wise and norm-wise relative differences of one
    field over a group of solves; a field that moved in none reads 0."""
    shaped = [c for c in changes if c is not None]
    entry = max((c[1] for c in shaped), default=0.0)
    norm = max((c[2] for c in shaped), default=0.0)
    other = len(changes) - len(shaped)
    return (f"{label} {entry:.3g} entry-wise, {norm:.3g} norm-wise"
            + (f" ({other} of another length)" if other else ""))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--dump", action="store_true",
                        help="print this interpreter's digests as JSON and exit "
                             "(or write the arrays a request on stdin names)")
    args = parser.parse_args(argv)
    if args.dump:
        request = "" if sys.stdin.isatty() else sys.stdin.read().strip()
        json.dump(dump(json.loads(request) if request else None), sys.stdout)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    sides = [p.resolve() for p in (args.parent, args.change)]
    parent, change = (run(p) for p in sides)
    keys = sorted(set(parent) | set(change))
    bad = [k for k in keys if parent.get(k) != change.get(k)]
    n_configs = sum(k.endswith("/iterations") for k in keys)
    print(f"{n_configs} solve configurations, {len(keys)} digests, {len(bad)} mismatches")
    for k in bad[:20]:
        print(f"MISMATCH {k}")
    if bad:
        with tempfile.TemporaryDirectory() as tmp:
            dirs = [Path(tmp, side) for side in ("parent", "change")]
            for checkout, d in zip(sides, dirs):
                d.mkdir()
                run(checkout, {"keys": bad, "dir": str(d)})
            report(bad, *dirs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
