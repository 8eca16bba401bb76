"""Record of the machine and library versions a run was measured on."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Cache sizes of CPU 0 as the kernel reports them, e.g. {"L2": "2048K"}."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _to_bytes(size: str) -> int | None:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    try:
        if size[-1] in units:
            return int(size[:-1]) * units[size[-1]]
        return int(size)
    except (ValueError, IndexError):
        return None


def environment() -> dict:
    caches = _cache_sizes()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "cpu": _cpu_model(),
        "caches": caches,
        "llc_bytes": _to_bytes(caches[max(caches)]) if caches else None,
    }


def llc_note(env: dict, working_set_bytes: int) -> str:
    llc = env.get("llc_bytes")
    computed = "matvec bytes are computed from array sizes, not a measured bandwidth"
    if not llc:
        return f"last-level cache size unknown; {computed}"
    if working_set_bytes > llc:
        return (f"hierarchy arrays {working_set_bytes / 2**20:.1f} MiB exceed the "
                f"{llc / 2**20:.0f} MiB last-level cache; {computed}")
    return (f"hierarchy arrays {working_set_bytes / 2**20:.1f} MiB fit in the "
            f"{llc / 2**20:.0f} MiB last-level cache, so a bandwidth-bound regime "
            f"cannot show here; {computed}")
