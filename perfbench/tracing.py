"""Span recording at the library's layer boundaries, from outside the library.

``Tracer.install`` replaces, for the duration of a ``with`` block, the module
functions and methods listed in ``HOOKS`` by thin wrappers that record one
span per call: name, parent span, start, end and an optional tag (the level
of a V-cycle, the flops and computed bytes of a matvec).  Attributes are
patched where the caller looks them up (``wlmg.mgm.richardson``, not
``wlmg.smoothers.richardson``), and restored on exit.  Spans stay in memory
until the run ends.

``setup_metrics`` and ``solve_metrics`` fold the spans under one root span
into the per-layer metrics.  Inside a ``vcycle`` span the phases are told
apart by order: smoother calls before ``restrict`` are pre-smoothing, calls
after ``prolong`` are post-smoothing, a ``matvec`` child is the residual,
and ``self`` is the span's duration minus its recorded children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import wlmg.discretize
import wlmg.mgm
import wlmg.structured
import wlmg.transfer

MAX_LEVELS = 6
PHASES = ("pre", "residual", "restrict", "prolong", "post", "coarse", "self")
SMOOTHER_SPANS = ("smoothers.richardson", "smoothers.cg", "smoothers.gs")
PHASE_OF = {"mgm.matvec": "residual", "transfer.restrict": "restrict",
            "transfer.prolong": "prolong", "mgm.coarse": "coarse"}


def _level_of(args, kwargs, out):
    return int(args[1]) if len(args) > 1 else int(kwargs["s"])


def _matvec_cost(args, kwargs, out):
    """(flops, computed bytes) of one CSR matvec: 2 nnz flops; the bytes of
    the matrix arrays plus the input and output vectors."""
    level, x = args[0], args[1]
    A = level.combined
    nbytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + x.nbytes + out.nbytes
    return (2 * A.nnz, nbytes)


# (owner, attribute, span name, tag function); owners are resolved lazily so
# that a renamed attribute leaves its span unrecorded instead of failing
HOOKS = (
    ("wlmg.discretize", "assemble", "discretize.assemble", None),
    ("wlmg.discretize", "split", "discretize.split", None),
    ("wlmg.structured.StructuredOperator", "to_sparse", "structured.to_sparse", None),
    ("wlmg.transfer.Projector", "to_sparse", "transfer.projector_sparse", None),
    ("wlmg.mgm", "galerkin_sparse", "transfer.galerkin_sparse", None),
    ("wlmg.transfer", "galerkin_structured", "transfer.galerkin_structured", None),
    ("wlmg.transfer.Projector", "restrict", "transfer.restrict", None),
    ("wlmg.transfer.Projector", "prolong", "transfer.prolong", None),
    ("wlmg.mgm", "build_hierarchy", "mgm.build_hierarchy", None),
    ("wlmg.mgm._Level", "__init__", "mgm.level_init", None),
    ("wlmg.mgm._Level", "_ensure_gs", "mgm.gs_factor", None),
    ("wlmg.mgm._Level", "_ensure_direct", "mgm.coarse_factor", None),
    ("wlmg.mgm", "solve", "mgm.solve", None),
    ("wlmg.mgm", "vcycle", "mgm.vcycle", _level_of),
    ("wlmg.mgm._Level", "matvec", "mgm.matvec", _matvec_cost),
    ("wlmg.mgm._Level", "direct_solve", "mgm.coarse", None),
    ("wlmg.mgm._Level", "gauss_seidel_step", "smoothers.gs", None),
    ("wlmg.mgm", "gauss_seidel", "smoothers.gs_sweep", None),
    ("wlmg.mgm", "richardson", "smoothers.richardson", None),
    ("wlmg.mgm", "cg_steps", "smoothers.cg", None),
)

_MODULES = {m.__name__: m for m in (wlmg.discretize, wlmg.mgm, wlmg.structured, wlmg.transfer)}


def _resolve(path: str):
    """The module or class named by ``path``; None if it no longer exists."""
    if path in _MODULES:
        return _MODULES[path]
    module, _, cls = path.rpartition(".")
    return getattr(_MODULES[module], cls, None)


class Tracer:
    """In-memory span store; ``spans[i] = [name, parent, start, end, tag]``."""

    def __init__(self):
        self.spans = []
        self.unhooked = []
        self._stack = []

    def _wrap(self, fn, name, tag_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if tag_fn is not None:
                span[4] = tag_fn(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def root(self, name: str):
        """Context manager recording one root span (a setup or a solve);
        afterwards its spans are ``spans[r.index:r.end]``."""
        return _Root(self, name)

    def install(self):
        """Context manager that patches every hook in and restores it."""
        return _Installed(self)


class _Root:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, -1, time.perf_counter(), 0.0, None])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][3] = time.perf_counter()
        t._stack.pop()
        self.end = len(t.spans)
        return False


class _Installed:
    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        t = self.tracer
        t.unhooked = []
        for owner_path, attr, name, tag_fn in HOOKS:
            owner = _resolve(owner_path)
            original = None if owner is None else getattr(owner, attr, None)
            if original is None:
                t.unhooked.append(f"{owner_path}.{attr}")
                continue
            # class attributes are read from __dict__ so that restoring puts
            # back the plain function, not a bound method
            if isinstance(owner, type):
                original = owner.__dict__.get(attr, original)
            self.saved.append((owner, attr, original))
            setattr(owner, attr, t._wrap(original, name, tag_fn))
        return t

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


def _children(spans, lo, hi):
    kids = defaultdict(list)
    for i in range(lo, hi):
        kids[spans[i][1]].append(i)
    return kids


def setup_metrics(spans, root) -> dict:
    """Per-layer set-up seconds: the spans of each name under the root, summed."""
    out = defaultdict(float)
    for i in range(root.index + 1, root.end):
        name, _, t0, t1, _ = spans[i]
        out[name + "_s"] += t1 - t0
    return {
        "discretize.assemble_s": out["discretize.assemble_s"],
        "discretize.split_s": out["discretize.split_s"],
        "structured.to_sparse_s": out["structured.to_sparse_s"],
        "transfer.projector_sparse_s": out["transfer.projector_sparse_s"],
        "transfer.galerkin_sparse_s": out["transfer.galerkin_sparse_s"],
        "transfer.galerkin_structured_s": out["transfer.galerkin_structured_s"],
        "mgm.level_init_s": out["mgm.level_init_s"],
        "mgm.gs_factor_s": out["mgm.gs_factor_s"],
        "mgm.coarse_factor_s": out["mgm.coarse_factor_s"],
    }


def level_metric_names():
    """Per-level phase metrics of levels 0 to MAX_LEVELS - 1, the deepest
    hierarchy among the workloads; a shallower one reports 0 for the rest."""
    return [f"mgm.L{s}.{phase}_s" for s in range(MAX_LEVELS) for phase in PHASES]


def solve_metrics(spans, root) -> dict:
    """Per-level phase seconds, smoother and transfer totals and matvec
    counts for the one ``mgm.solve`` span under ``root``."""
    kids = _children(spans, root.index, root.end)
    out = dict.fromkeys(level_metric_names(), 0.0)
    totals = defaultdict(float)
    counts = defaultdict(int)
    flops = nbytes = 0
    solve = [i for i in kids[root.index] if spans[i][0] == "mgm.solve"]
    if len(solve) != 1:
        raise ValueError("expected exactly one mgm.solve span under the root")
    solve = solve[0]
    for i in range(root.index + 1, root.end):
        name, _, t0, t1, tag = spans[i]
        totals[name] += t1 - t0
        counts[name] += 1
        if name == "mgm.matvec":
            flops += tag[0]
            nbytes += tag[1]
        elif name == "mgm.vcycle":
            own, seen_prolong = t1 - t0, False
            for k in kids[i]:
                kname, _, k0, k1, _ = spans[k]
                if kname in SMOOTHER_SPANS:
                    phase = "post" if seen_prolong else "pre"
                elif kname in PHASE_OF:
                    phase = PHASE_OF[kname]
                    seen_prolong |= phase == "prolong"
                elif kname == "mgm.vcycle":
                    own -= k1 - k0
                    continue
                else:
                    continue
                own -= k1 - k0
                key = f"mgm.L{tag}.{phase}_s"
                out[key] = out.get(key, 0.0) + (k1 - k0)
            key = f"mgm.L{tag}.self_s"
            out[key] = out.get(key, 0.0) + own
    solve_s = spans[solve][3] - spans[solve][2]
    outer = sum(spans[k][3] - spans[k][2] for k in kids[solve] if spans[k][0] == "mgm.matvec")
    direct = sum(spans[k][3] - spans[k][2] for k in kids[solve])
    out.update({
        "mgm.traced_solve_s": solve_s,
        "mgm.outer_residual_s": outer,
        "mgm.solve_self_s": solve_s - direct,
        "smoothers.richardson_s": totals["smoothers.richardson"],
        "smoothers.cg_s": totals["smoothers.cg"],
        "smoothers.gs_s": totals["smoothers.gs"],
        "smoothers.gs_sweep_s": totals["smoothers.gs_sweep"],
        "smoothers.calls": sum(counts[n] for n in SMOOTHER_SPANS),
        "transfer.restrict_s": totals["transfer.restrict"],
        "transfer.prolong_s": totals["transfer.prolong"],
        "transfer.calls": counts["transfer.restrict"] + counts["transfer.prolong"],
        "mgm.matvec_flops": flops,
        "mgm.matvec_bytes_computed": nbytes,
    })
    return out


def dump_spans(path, roots):
    """Write spans as JSON lines; ``roots`` is a list of span lists, each
    holding one root span first and indexed from 0, so ``id`` and ``parent``
    are local to their root and ``trace`` identifies the root."""
    with open(path, "w", encoding="utf-8") as fh:
        for trace_id, spans in enumerate(roots):
            for i, (name, parent, t0, t1, tag) in enumerate(spans):
                fh.write(json.dumps({"trace": trace_id, "id": i, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "tag": tag}) + "\n")
