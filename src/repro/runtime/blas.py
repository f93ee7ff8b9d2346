"""Runtime control of the BLAS thread count numpy's GEMMs run on.

OpenBLAS starts one worker thread per core and, between calls, lets
them spin-wait for the next GEMM. For a large forward that is cheap
parallelism; for a server flushing many tiny GEMMs it is mostly
burned CPU — on a 2-core box the idle OpenBLAS worker of a patternnet
server used 1.21 ms of the 1.81 ms of CPU each request cost, and the
forwards took no longer on one thread (``docs/SERVING.md``).

The library is found the way numpy loaded it: the shared objects
mapped into this process (``/proc/self/maps``) whose name mentions
``blas``, probed for OpenBLAS's thread getter/setter under each symbol
spelling numpy wheels and system builds export. Anything else — MKL,
Accelerate, a non-Linux host, a stripped build — is *unmanaged*:
:func:`blas_threads` and :func:`set_blas_threads` return ``None`` and
change nothing.

The serving rule (:func:`serve_on_one_blas_thread`): processes owned by
the serving layer (``repro.cli serve``, each worker-pool process) run
BLAS on one thread, because their parallelism comes from the serving
layer (``--workers``, ``--worker-procs``, the transports) — unless the
operator set one of :data:`THREAD_ENV_VARS`, which then wins. Library
callers of ``CompiledModel``/``predict`` keep the BLAS defaults, and a
``CompiledModel`` call turns a default of T > 1 threads into T shards of
its batch, each on one BLAS thread: it holds one thread for the call
and runs the shards side by side (``docs/KERNELS.md``, "Sharded
calls"). ``predict(workers=N>1)`` holds one thread while its fan-out
runs, so its chunks never shard.

The fork rule (:func:`hold_one_blas_thread`): a process that forks while
another of its threads runs a multithreaded OpenBLAS GEMM can hang that
GEMM for good, because OpenBLAS's fork handler shuts its thread pool
down under the running call. A worker pool forks at start and at every
respawn, so its owner holds BLAS on one thread while the pool lives,
whatever the environment says. On one thread a GEMM never touches
OpenBLAS's thread pool, so the fork has nothing to stop
(``docs/SERVING.md``).
"""
from __future__ import annotations

import ctypes
import functools
import os
import threading
from typing import Optional, Tuple

import numpy  # noqa: F401 - loads the BLAS library this module controls

__all__ = [
    "THREAD_ENV_VARS",
    "blas_info",
    "blas_threads",
    "hold_one_blas_thread",
    "release_blas_thread",
    "serve_on_one_blas_thread",
    "serving_blas_threads",
    "set_blas_threads",
]

#: Environment variables through which an operator sizes the BLAS
#: thread pool; when any is set, the serving rule leaves BLAS alone.
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (getter, setter) spellings, tried in order: scipy-openblas wheels with
# 64-bit ints, plain OpenBLAS, OpenBLAS built with a 64_ suffix, and
# scipy-openblas wheels with 32-bit ints.
_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix, suffix in (
        ("scipy_openblas_", "64_"),
        ("openblas_", ""),
        ("openblas_", "64_"),
        ("scipy_openblas_", ""),
    )
)


def _mapped_blas_paths() -> list:
    """Paths of the BLAS shared objects mapped into this process."""
    paths = {}
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.rsplit(None, 1)[-1]
            name = os.path.basename(path).lower()
            if path.startswith("/") and "blas" in name and ".so" in name:
                paths[path] = None
    return list(paths)


@functools.lru_cache(maxsize=1)
def _controls() -> Optional[Tuple[str, object, object]]:
    """``(library name, getter, setter)``, or ``None`` when unmanaged."""
    try:
        paths = _mapped_blas_paths()
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            getter = getattr(library, get_name, None)
            setter = getattr(library, set_name, None)
            if getter is None or setter is None:
                continue
            getter.restype, getter.argtypes = ctypes.c_int, []
            setter.restype, setter.argtypes = None, [ctypes.c_int]
            return os.path.basename(path), getter, setter
    return None


def blas_threads() -> Optional[int]:
    """Current BLAS thread count, or ``None`` when unmanaged."""
    controls = _controls()
    return None if controls is None else int(controls[1]())


def set_blas_threads(n: int) -> Optional[int]:
    """Run BLAS on ``n`` threads; return the previous count.

    Returns ``None`` and changes nothing when unmanaged or ``n < 1``.
    """
    controls = _controls()
    if controls is None or n < 1:
        return None
    previous = int(controls[1]())
    controls[2](int(n))
    return previous


_hold_lock = threading.Lock()
_holds = 0
_unheld: Optional[int] = None  # count to restore when the last hold ends


def hold_one_blas_thread() -> Optional[int]:
    """Run BLAS on one thread until the matching :func:`release_blas_thread`.

    Holds nest: a ``serve`` router and each worker pool it owns take one
    each, in any order. Returns the count BLAS ran on before the first
    hold, which the last release restores (``None`` when unmanaged).
    """
    global _holds, _unheld
    with _hold_lock:
        if _holds == 0:
            _unheld = set_blas_threads(1)
        _holds += 1
        return _unheld


def release_blas_thread() -> None:
    """End one :func:`hold_one_blas_thread`."""
    global _holds
    with _hold_lock:
        if _holds == 0:
            return
        _holds -= 1
        if _holds == 0 and _unheld is not None:
            set_blas_threads(_unheld)


def _thread_env_pinned() -> bool:
    return any(os.environ.get(var) for var in THREAD_ENV_VARS)


def serving_blas_threads(unheld: Optional[int]) -> Optional[int]:
    """BLAS threads for a serving process whose environment gives ``unheld``.

    One, unless the operator pinned the count through
    :data:`THREAD_ENV_VARS`; ``None`` when unmanaged.
    """
    if unheld is None or _thread_env_pinned():
        return unheld
    return 1


def serve_on_one_blas_thread() -> bool:
    """Apply the serving rule to this process.

    True when it took a hold (end it with :func:`release_blas_thread`);
    False when the operator pinned BLAS through the environment.
    """
    if _thread_env_pinned():
        return False
    hold_one_blas_thread()
    return True


def blas_info() -> dict:
    """``{"library", "threads"}`` for health/metrics; both ``None`` when unmanaged."""
    controls = _controls()
    if controls is None:
        return {"library": None, "threads": None}
    return {"library": controls[0], "threads": int(controls[1]())}
