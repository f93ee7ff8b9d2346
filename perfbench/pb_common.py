"""Shared pieces of the benchmark: paths, spans, percentiles, fingerprint.

Nothing here imports the program under test; ``require_src`` puts the
checkout's ``src/`` on ``sys.path`` so the workload modules can.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10

#: Percentiles tried, highest first, when picking the reportable tail.
TAIL_CANDIDATES = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result (exit non-zero)."""


def require_src() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no program sources at {os.path.relpath(SRC, ROOT)}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# -- statistics --------------------------------------------------------
def supports(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least MIN_TAIL_SAMPLES beyond ``q``."""
    return n * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile, refusing one the sample cannot support."""
    if not supports(len(values), q):
        raise BenchError(
            f"p{q:g} needs {MIN_TAIL_SAMPLES} samples beyond it; only {len(values)} samples"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_percentile(n: int) -> float:
    """Highest candidate percentile that ``n`` samples support."""
    for q in TAIL_CANDIDATES:
        if supports(n, q):
            return q
    raise BenchError(f"{n} samples support no percentile (need >= {2 * MIN_TAIL_SAMPLES})")


# -- spans ---------------------------------------------------------------
class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    Spans are dicts of name, start, end, parent span index and attributes,
    with times in seconds relative to the tracer's creation. Client
    requests are kept as compact per-phase rows instead, because a
    serving run makes tens of thousands of them.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.t0 = time.perf_counter()
        self.spans: List[dict] = []
        self.requests: Dict[str, List[list]] = {}
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        row = {"name": name, "start": time.perf_counter() - self.t0, "end": None,
               "parent": parent, **attrs}
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            row["end"] = time.perf_counter() - self.t0

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def record_requests(self, phase: str, due, sent, answered) -> None:
        """One ``[due, sent, answered]`` row per request of a phase (the
        row index is the request's index; ``None`` where it never happened)."""
        if self.enabled:
            times = np.stack([due, sent, answered], axis=1) - self.t0
            self.requests[phase] = [
                [None if np.isnan(v) else float(v) for v in row] for row in times
            ]

    def write(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": self.spans, "requests": self.requests}, fh)
            fh.write("\n")


# -- process accounting ----------------------------------------------------
def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` (default: this process), MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise BenchError(f"no VmHWM in {path}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


class StealMeter:
    """Share of this machine's CPU time the hypervisor took (``steal`` in
    ``/proc/stat``) since creation: high values explain noisy runs."""

    def __init__(self) -> None:
        self._start = self._read()

    @staticmethod
    def _read() -> tuple:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
        return ticks[7], sum(ticks)

    def share(self) -> float:
        steal, total = self._read()
        return (steal - self._start[0]) / max(total - self._start[1], 1)


# -- fingerprint -------------------------------------------------------------
def _blas_vendor() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no dict mode
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def fingerprint() -> dict:
    """What a result may only be compared across: same values, same box."""
    thread_env = {
        key: os.environ.get(key)
        for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": _blas_vendor(),
        "blas_thread_env": thread_env,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }
