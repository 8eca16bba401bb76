"""Workloads and the measuring loop.

A run of one workload, in one process, closed loop:

1. The first set-up in the process is not timed; it gives ``setup_peak_mb``,
   the growth of the ``getrusage`` high-water mark across it.
2. Repetitions follow until ``seconds`` have passed.  A repetition sets up
   ``setups_per_rep`` times (``assemble``, ``split``, ``build_hierarchy``,
   each timed), then on the last hierarchy makes one untimed warm-up solve
   and ``solves_per_rep`` timed solves, each on a fresh right-hand side
   drawn from the seed.
3. Every solve, the warm-up included, is checked by ``checks.SolutionChecker``
   outside the timed region; a failed check is counted, never skipped.
4. Every timed call is measured against ``hostspeed``'s gauge of the host's
   speed, and the end-to-end metrics are the scaled times
   (``hostspeed.HostSpeed.timed``); the wall times are kept beside them.

With ``trace`` each timed solve is repeated with the tracer installed on the
same right-hand side, every set-up is traced, and the traced solve must give
the untraced solve's iterations and residual history exactly.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from wlmg import discretize, mgm

import tracing
from checks import SolutionChecker
from hostspeed import HostSpeed

TOL = 1e-7
MIN_REPS = 2


@dataclass(frozen=True)
class Workload:
    """A 2-D V-cycle problem and how a repetition samples it.

    Cheap set-ups are repeated within a repetition so that ``setup_s`` has
    as many samples as the solves; the 511^2 set-up costs about a solve and
    is made once per repetition.
    """

    name: str
    bc: str
    coeff: str
    n: int
    pre: str
    post: str
    setups_per_rep: int
    solves_per_rep: int
    why: str

    def grid(self):
        return discretize.GridSpec((self.n, self.n), discretize.BoundaryCondition(self.bc))

    def config(self):
        # table 6's convention: global Richardson damping, plain CG
        return mgm.SolverConfig(method="mgm", pre=self.pre, post=self.post,
                                richardson_scaling="global", cg_preconditioner="none")


WORKLOADS = {w.name: w for w in (
    Workload("dirichlet-a7-511-gs", "dirichlet", "a7", 511,
             "gauss-seidel", "richardson", 1, 1,
             "large grid, 6 levels: set-up about equals the solve and holds the "
             "memory; CSR and SuperLU kernels; triangular Gauss-Seidel"),
    Workload("dirichlet-a7-63-rcg", "dirichlet", "a7", 63,
             "richardson", "cg", 4, 6,
             "Python overhead per call: about 1300 V-cycles of 3 levels per "
             "solve at N=3969; set-up is a small share"),
    Workload("reflective-a2-128-gs", "reflective", "a2", 128,
             "gauss-seidel", "richardson", 4, 3,
             "rank-one path: pure-Python Gauss-Seidel sweep, DCT-III fold, "
             "rank-one projection and dense coarse LU"),
)}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "solve_s": "s",
    "total_s": "s",
    "cycle_ms": "ms",
    "setup_peak_mb": "MB",
}

PER_LAYER = {  # name -> unit, in report order
    "discretize.assemble_s": "s", "discretize.split_s": "s", "discretize.nnz": "count",
    "structured.to_sparse_s": "s",
    "transfer.projector_sparse_s": "s", "transfer.galerkin_sparse_s": "s",
    "transfer.galerkin_structured_s": "s",
    "mgm.level_init_s": "s", "mgm.gs_factor_s": "s", "mgm.coarse_factor_s": "s",
    "mgm.hierarchy_nnz": "count", "mgm.gs_factor_nnz": "count",
    "mgm.operator_complexity": "ratio", "mgm.grid_complexity": "ratio", "mgm.levels": "count",
    **dict.fromkeys(tracing.level_metric_names(), "s"),
    "mgm.outer_residual_s": "s", "mgm.solve_self_s": "s", "mgm.traced_solve_s": "s",
    "smoothers.richardson_s": "s", "smoothers.cg_s": "s", "smoothers.gs_s": "s",
    "smoothers.gs_sweep_s": "s", "smoothers.calls": "count",
    "transfer.restrict_s": "s", "transfer.prolong_s": "s", "transfer.calls": "count",
    "mgm.matvec_flops": "count", "mgm.matvec_bytes_computed": "B",
    "mgm.iterations": "count", "mgm.conv_factor": "ratio", "mgm.operations": "count",
    "trace_overhead": "ratio",
}


def rhs(seed: int, k: int, n: int) -> np.ndarray:
    """The k-th right-hand side of a run; depends on the seed and k only."""
    return np.random.default_rng([seed, k]).standard_normal(n)


def setup(w: Workload, grid, config):
    """The timed set-up path, called through the module attributes so that
    an installed tracer sees it."""
    A = discretize.assemble(grid, w.coeff)
    problem = discretize.split(A, grid, w.coeff)
    return problem, mgm.build_hierarchy(problem, config)


def _max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def hierarchy_summary(H) -> dict:
    """Level sizes, nnz and complexities, read from the hierarchy's attributes.

    The Gauss-Seidel factor and the coarse solver exist only as the private
    ``_gs`` and ``_direct`` of a level; a hierarchy without them reports 0
    and None.
    """
    levels = []
    for lev in H.levels:
        gs = getattr(lev, "_gs", None)
        levels.append({
            "sizes": list(lev.sizes),
            "n": int(lev.n),
            "nnz": int(lev.combined.nnz),
            "rank_one": lev.gamma is not None,
            "gs": gs[0] if gs else None,
            "gs_factor_nnz": int(gs[3]) if gs and gs[0] == "triangular" else 0,
        })
    direct = getattr(H.levels[-1], "_direct", None)
    nbytes = 0
    for lev in H.levels:
        A = lev.combined
        nbytes += A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        if lev.projector is not None:
            P = lev.projector.to_sparse()
            nbytes += P.data.nbytes + P.indices.nbytes + P.indptr.nbytes
    nnz = [lev["nnz"] for lev in levels]
    gs_nnz = sum(lev["gs_factor_nnz"] for lev in levels)
    factor_nnz = direct[2] if direct and direct[0] == "sparse" else 0
    return {
        "levels": levels,
        "n_levels": len(levels),
        "hierarchy_nnz": sum(nnz),
        "gs_factor_nnz": gs_nnz,
        "operator_complexity": sum(nnz) / nnz[0],
        "grid_complexity": sum(lev["n"] for lev in levels) / levels[0]["n"],
        "coarse_solver": direct[0] if direct else None,
        # CSR arrays of the operators and projectors plus 12 bytes per factor
        # entry (value and index)
        "bytes_computed": nbytes + 12 * (gs_nnz + factor_nnz),
    }


def percentile_summary(values) -> dict:
    """Median, the highest percentile with at least ten samples above it
    (None below eleven samples), and the sample count."""
    xs = sorted(values)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "q1": None, "q3": None,
           "p_high": None, "p_high_value": None}
    if n >= 4:
        out["q1"], _, out["q3"] = statistics.quantiles(xs, n=4)
    if n >= 11:
        out["p_high"] = int(100 * (n - 10) / n)
        out["p_high_value"] = xs[n - 11]
    return out


class Run:
    """One workload's measurements; ``execute`` fills it."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        # host-speed scaled times, the end-to-end metrics' samples
        self.samples = {"setup_s": [], "solve_s": [], "total_s": [], "cycle_ms": []}
        # wall times of the same calls
        self.wall = {"setup_s": [], "solve_s": [], "traced_solve_s": []}
        self.iterations = []          # per timed solve, in order
        self.residuals = []           # per timed solve, in order
        self.rhs_digests = []         # per timed solve, in order
        self.attempted = 0
        self.failures = []
        self.setup_layers = []        # per traced set-up
        self.solve_layers = []        # per traced solve
        self.tracer = tracing.Tracer() if trace else None
        self.kept = {}                # last traced set-up and solve: their spans

    # -- one step each --------------------------------------------------
    def _setup(self, grid, config):
        """One set-up: its hierarchy and its scaled time, or in a traced run
        its traced wall time (the gauge stays out of the spans)."""
        if self.tracer is None:
            (_, H), wall, scaled = self.speed.timed(setup, self.w, grid, config)
            self.samples["setup_s"].append(scaled)
            self.wall["setup_s"].append(wall)
            return H, scaled
        with self.tracer.install(), self.tracer.root("setup") as root:
            _, H = setup(self.w, grid, config)
        _, _, t0, t1, _ = self.tracer.spans[root.index]
        self.setup_layers.append(tracing.setup_metrics(self.tracer.spans, root))
        self._keep("setup")
        return H, t1 - t0

    def _keep(self, kind):
        """Keep the spans of the newest root of each kind; drop the rest."""
        self.kept[kind] = list(self.tracer.spans)
        self.tracer.spans.clear()

    def _solve(self, H, b, label):
        """One checked solve: its report, wall time and scaled time."""
        (x, report), wall, scaled = self.speed.timed(mgm.solve, H, b, tol=TOL)
        self._count(label, self.checker.check(b, x, report.converged))
        return report, wall, scaled

    def _count(self, label, problems):
        """One attempted solve; a failed one is recorded with its reasons."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def _traced_solve(self, H, b, label, untraced):
        with self.tracer.install(), self.tracer.root("solve") as root:
            x, report = mgm.solve(H, b, tol=TOL)
        problems = self.checker.check(b, x, report.converged)
        if (report.iterations != untraced.iterations
                or report.residuals != untraced.residuals):
            problems.append("tracing changed the iterations or residuals")
        self._count(f"{label} traced", problems)
        layers = tracing.solve_metrics(self.tracer.spans, root)
        layers["mgm.iterations"] = report.iterations
        layers["mgm.conv_factor"] = report.final_residual ** (1.0 / report.iterations)
        layers["mgm.operations"] = report.operations
        self.solve_layers.append(layers)
        self.wall["traced_solve_s"].append(layers["mgm.traced_solve_s"])
        self._keep("solve")

    # -- the run ----------------------------------------------------------
    def execute(self):
        w = self.w
        grid, config = w.grid(), w.config()
        rss0 = _max_rss_kib()
        problem, H = setup(w, grid, config)
        self.setup_peak_mb = (_max_rss_kib() - rss0) / 1024.0
        self.summary = hierarchy_summary(H)
        del H
        self.checker = SolutionChecker(grid, w.coeff, problem, TOL)
        self.nnz = int(self.checker.A.nnz)
        self.speed = HostSpeed()

        k = 0
        start = time.perf_counter()
        reps = 0
        while True:
            rep_start = time.perf_counter()
            for _ in range(w.setups_per_rep):
                H = None  # free the previous hierarchy before building the next
                H, total = self._setup(grid, config)
            _, _, warm = self._solve(H, rhs(self.seed, k, grid.n_total),
                                     f"rhs {k} (warm-up)")
            total += warm
            k += 1
            for _ in range(w.solves_per_rep):
                b = rhs(self.seed, k, grid.n_total)
                report, wall, scaled = self._solve(H, b, f"rhs {k}")
                total += scaled
                self.samples["solve_s"].append(scaled)
                self.samples["cycle_ms"].append(1e3 * scaled / report.iterations)
                self.wall["solve_s"].append(wall)
                self.iterations.append(report.iterations)
                self.residuals.append(report.residuals)
                self.rhs_digests.append(float(b @ np.arange(1.0, b.size + 1)))
                if self.tracer is not None:
                    self._traced_solve(H, b, f"rhs {k}", report)
                k += 1
            self.samples["total_s"].append(total)
            del H
            reps += 1
            now = time.perf_counter()
            if reps >= MIN_REPS and now + (now - rep_start) - start > self.seconds:
                break
        self.reps = reps
        return self

    # -- results ------------------------------------------------------------
    @property
    def failed(self) -> int:
        return len(self.failures)

    def end_to_end(self) -> dict:
        out = {name: statistics.median(self.samples[name])
               for name in ("setup_s", "solve_s", "total_s", "cycle_ms")}
        out["setup_peak_mb"] = self.setup_peak_mb
        return out

    def per_layer(self) -> dict:
        s = self.summary
        out = {
            "discretize.nnz": self.nnz,
            "mgm.levels": s["n_levels"],
            "mgm.hierarchy_nnz": s["hierarchy_nnz"],
            "mgm.gs_factor_nnz": s["gs_factor_nnz"],
            "mgm.operator_complexity": s["operator_complexity"],
            "mgm.grid_complexity": s["grid_complexity"],
        }
        for layers in (self.setup_layers, self.solve_layers):
            for name in layers[0]:
                out[name] = statistics.median(d[name] for d in layers)
        out["trace_overhead"] = (statistics.median(self.wall["traced_solve_s"])
                                 / statistics.median(self.wall["solve_s"]))
        return out

    def spans_to(self, path):
        """Write the spans of the last traced set-up and the last traced solve."""
        tracing.dump_spans(path, [self.kept["setup"], self.kept["solve"]])
