"""Batched inference API — the runtime engine's serving entry point.

:func:`predict` runs a model forward in eval/no-grad mode over a batch of
inputs, optionally split into micro-batches. Micro-batching keeps every
chunk's im2col workspace resident in cache (and bounded in memory) while
the engine's plan cache guarantees the per-geometry planning cost is
paid once for the whole run — the serving-style loop the ROADMAP's
"heavy traffic" north star asks for.

Two throughput levers stack on top:

- ``compile=True`` (or passing a
  :class:`~repro.runtime.compile.CompiledModel` directly) runs the
  lowered pipeline — BN folded into convs, fused bias/ReLU epilogues,
  float32 parameters, zero-allocation buffer arenas — instead of the
  float64 module graph.
- ``workers=N`` fans micro-batches out over a thread pool. The GEMMs
  dominating the compiled path run inside BLAS, which releases the GIL,
  so the chunks genuinely overlap; compiled execution state is
  thread-local, so one compiled model serves all workers. The fan-out
  holds BLAS on one thread, so each worker's chunk runs on one core
  instead of every chunk competing for all of them.

Without ``workers`` a compiled model uses the cores itself: each call
splits its batch into one shard per BLAS thread
(:meth:`~repro.runtime.compile.CompiledModel.shard_count`).
"""

from __future__ import annotations

import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from .. import nn
from .blas import hold_one_blas_thread, release_blas_thread
from .compile import CompiledModel, compile_model

__all__ = ["PredictStats", "predict", "conv_backend_override"]

# Worker threads are shared across predict() calls: compiled-model
# execution state is keyed by thread identity (thread-local arenas), so
# persistent threads are what make repeated predict(..., workers=N)
# serving loops allocation-free after warm-up — a fresh pool per call
# would rebuild every arena every call. One pool per distinct size,
# never shut down (a handful of sizes in practice): replacing a live
# pool would race concurrent predict() calls still holding it.
_pool_lock = threading.Lock()
_pools: dict = {}


def _shared_pool(workers: int) -> ThreadPoolExecutor:
    with _pool_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-predict-{workers}"
            )
            _pools[workers] = pool
        return pool


@dataclass
class PredictStats:
    """Timing/shape accounting of one :func:`predict` call."""

    batch: int = 0
    micro_batch: Optional[int] = None
    chunks: int = 0
    workers: int = 1
    compiled: bool = False
    seconds: float = 0.0
    chunk_seconds: List[float] = field(default_factory=list)

    @property
    def images_per_second(self) -> float:
        """End-to-end throughput of the call (batch / wall seconds)."""
        return self.batch / self.seconds if self.seconds > 0 else float("inf")


@contextmanager
def conv_backend_override(model: nn.Module, backend: Optional[str]) -> Iterator[None]:
    """Temporarily force every Conv2d in ``model`` onto one backend."""
    convs = [m for m in model.modules() if isinstance(m, nn.Conv2d)]
    saved = [conv.backend for conv in convs]
    try:
        if backend is not None:
            for conv in convs:
                conv.backend = backend
        yield
    finally:
        for conv, previous in zip(convs, saved):
            conv.backend = previous


# Memoized empty-batch output geometry, keyed weakly by model object ->
# {(compile?, input shape, input dtype): (output shape, output dtype)}.
# Output geometry is a function of the architecture and input geometry
# alone (weight *values* never move it), so a hot serving loop that
# polls with empty flushes pays the one-image probe forward exactly once
# per model and geometry.
_probe_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _probe_output(
    model: Union[nn.Module, CompiledModel], want_compiled: bool, x: np.ndarray
) -> Tuple[Tuple[int, ...], np.dtype]:
    """Output (shape-tail, dtype) via a cached one-image probe forward."""
    key = (want_compiled, x.shape[1:], np.dtype(x.dtype))
    try:
        cache = _probe_cache.setdefault(model, {})
    except TypeError:  # un-weakref-able model: probe without memoizing
        cache = {}
    entry = cache.get(key)
    if entry is None:
        probe = np.zeros((1,) + x.shape[1:], dtype=x.dtype)
        if want_compiled and not isinstance(model, CompiledModel):
            out = compile_model(model)(probe)
        elif isinstance(model, CompiledModel):
            out = model(probe)
        else:
            was_training = model.training
            model.eval()
            try:
                with nn.no_grad():
                    out = model(nn.Tensor(probe, dtype=None)).data
            finally:
                model.train(was_training)
        entry = (out.shape[1:], out.dtype)
        cache[key] = entry
    return entry


def predict(
    model: Union[nn.Module, CompiledModel],
    x: np.ndarray,
    *,
    micro_batch: Optional[int] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    executor: Optional[ThreadPoolExecutor] = None,
    compile: bool = False,
    quantize=None,
    calibration: Optional[np.ndarray] = None,
    tune: Optional[str] = None,
    tuning_cache=None,
    stats: Optional[PredictStats] = None,
) -> np.ndarray:
    """Run ``model`` over a batch of inputs through the runtime engine.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module` (put into eval mode for the call and
        restored afterwards) or an already-lowered
        :class:`~repro.runtime.compile.CompiledModel`.
    x:
        Inputs ``(N, C, H, W)``.
    micro_batch:
        Split size along the batch axis; ``None`` runs one chunk (or,
        with ``workers``, one chunk per worker). The last chunk may be
        smaller.
    backend:
        Force a specific conv backend for the whole call (e.g.
        ``"tiled"``); ``None`` lets the engine auto-select per layer.
    workers:
        Run micro-batches on a thread pool of this size. BLAS releases
        the GIL during the GEMMs that dominate inference, so chunks
        overlap on real cores; BLAS runs on one thread while they do,
        so no chunk shards. ``None``/``1`` keeps the sequential loop,
        where each compiled call shards its chunk over the BLAS threads
        instead. Pools are created lazily and shared across calls (one
        per distinct size), so repeated serving loops never pay pool (or
        thread-local arena) startup per call.
    executor:
        Bring-your-own pool used instead of the shared thread pool — a
        ``ThreadPoolExecutor`` (callers that already own a pool or want
        bounded lifetimes in tests), or a
        :class:`~repro.runtime.workerpool.WorkerPool` of inference
        *processes*, recognised by its ``is_process_pool`` marker:
        chunks then travel over shared-memory rings to workers holding
        read-only views of the same weights, which is what scales past
        the GIL. A process pool is bound to one compiled model, so
        ``model`` must be that exact :class:`CompiledModel`; ``workers``
        defaults to the pool's process count and ``backend=`` overrides
        are rejected (workers run the pipeline as compiled).
    compile:
        Lower the model with :func:`~repro.runtime.compile.compile_model`
        for this call (BN folding, fused epilogues, float32, arenas).
        Compilation snapshots the weights, so repeated serving loops
        should compile once themselves and pass the compiled model in.
    quantize:
        Compile to the int8 execution path
        (:mod:`repro.runtime.quant`): ``"int8"``, a bit width, or a
        :class:`~repro.runtime.quant.QuantizationConfig`. Implies
        ``compile=True``. Activation scales calibrate on
        ``calibration`` when given, else on the leading images of ``x``
        itself (fine for one-shot calls; serving loops should
        ``compile_model(quantize=...)`` once with a held-out batch).
    calibration:
        Optional ``(N, C, H, W)`` batch for ``quantize`` calibration.
    tune:
        Compile with per-layer schedule tuning (``"cost"`` for the
        analytic model, ``"measure"`` for measured schedules persisted
        in the :class:`~repro.runtime.tune.TuningCache`). Implies
        ``compile=True``; the input geometry is taken from ``x``. A
        tuned micro-batch chunk size (measure mode) applies when neither
        ``micro_batch`` nor ``workers`` pins the chunking.
    tuning_cache:
        Explicit :class:`~repro.runtime.tune.TuningCache` for ``tune``
        (defaults to the persisted process-wide one).
    stats:
        Optional :class:`PredictStats` filled in with timings.

    Returns
    -------
    Stacked model outputs ``(N, ...)`` as a numpy array.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) inputs, got shape {x.shape}")
    if micro_batch is not None and micro_batch < 1:
        raise ValueError("micro_batch must be >= 1")
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if quantize is not None and isinstance(model, CompiledModel):
        # An already-lowered model cannot be re-quantized here; serving
        # float while the caller believes they measured int8 would be
        # worse than failing.
        if model.quantization is None:
            raise ValueError(
                "quantize= has no effect on an already-compiled model; "
                "pass the eager model, or compile_model(quantize=...) yourself"
            )
    if tune is not None and isinstance(model, CompiledModel) and model.tuning is None:
        # Same contract for tuning: an untuned compiled model cannot be
        # re-scheduled here.
        raise ValueError(
            "tune= has no effect on an already-compiled model; "
            "pass the eager model, or compile_model(tune=...) yourself"
        )
    compile = compile or quantize is not None or tune is not None
    want_compiled = compile or isinstance(model, CompiledModel)
    process_pool = executor is not None and getattr(executor, "is_process_pool", False)
    if process_pool:
        if backend is not None:
            raise ValueError(
                "backend= cannot be combined with a process-pool executor "
                "(workers run the pipeline exactly as compiled)"
            )
        if not isinstance(model, CompiledModel) or model is not executor.compiled:
            raise ValueError(
                "a process-pool executor serves the compiled model it was "
                "built from; pass that CompiledModel as model="
            )
        if workers is None:
            # Split by the parallelism the machine actually has, not the
            # pool width: on a 1-core host, chunking a flush across every
            # worker only multiplies ring round-trips and shrinks the
            # per-chunk batch with no concurrency to gain — one full
            # chunk to one (least-loaded) worker is strictly cheaper.
            from .tune import effective_cpu_count

            workers = max(1, min(executor.procs, effective_cpu_count()))
    if x.shape[0] == 0:
        # A batcher flush or a drained queue legitimately produces N=0:
        # answer with a correctly-shaped (0, ...) output. A compiled
        # model knows (or can derive) its output geometry from metadata
        # — no forward pass, so a worker pool is never spun up for an
        # empty flush; otherwise fall back to a one-image probe,
        # memoized per model and geometry (checked before the compile
        # step so repeated empty calls never lower the model).
        entry = (
            model.output_geometry(x.shape[1:], x.dtype)
            if isinstance(model, CompiledModel)
            else None
        )
        shape_tail, dtype = entry if entry is not None else _probe_output(
            model, want_compiled, x
        )
        result = np.empty((0,) + shape_tail, dtype=dtype)
        if stats is not None:
            stats.batch = 0
            stats.micro_batch = micro_batch
            stats.chunks = 0
            stats.workers = workers or 1
            stats.compiled = want_compiled
            stats.seconds = 0.0
            stats.chunk_seconds = []
        return result

    if compile and not isinstance(model, CompiledModel):
        model = compile_model(
            model,
            quantize=quantize,
            calibration=calibration if calibration is not None else x,
            tune=tune,
            input_shape=x.shape[1:],
            tuning_cache=tuning_cache,
        )
    compiled = model if isinstance(model, CompiledModel) else None

    batch = x.shape[0]
    workers = workers or 1
    if micro_batch is None and workers > 1:
        # One chunk per worker keeps every thread busy exactly once.
        micro_batch = -(-batch // workers)
    elif micro_batch is None and compiled is not None and compiled.tuning is not None:
        # A measured tuning run recorded the winning chunk size; apply
        # it when the caller pinned neither chunking nor workers.
        tuned_chunk = compiled.tuning.micro_batch
        if tuned_chunk is not None and tuned_chunk < batch:
            micro_batch = tuned_chunk
    step = batch if micro_batch is None else micro_batch
    chunks = [x[lo : lo + step] for lo in range(0, batch, step)]
    # Ragged tail chunk on the compiled path: pad it up to the uniform
    # chunk size (rows are independent in inference, so the padding rows
    # are computed and discarded). One chunk geometry means one set of
    # execution plans and arena buffers, instead of the compiled model
    # keeping a second full buffer set alive for every distinct tail
    # size a serving loop happens to produce.
    tail_rows = chunks[-1].shape[0]
    pad_tail = compiled is not None and len(chunks) > 1 and tail_rows < step
    if pad_tail:
        pad = np.zeros((step - tail_rows,) + x.shape[1:], dtype=x.dtype)
        chunks[-1] = np.concatenate([chunks[-1], pad])
    chunk_seconds = [0.0] * len(chunks)

    def run_chunk(index: int) -> np.ndarray:
        chunk_start = time.perf_counter()
        if compiled is not None:
            out = compiled(chunks[index], backend=backend)
        else:
            # Grad mode is per-thread, so each (possibly pooled) worker
            # disables recording for its own chunk.
            with nn.no_grad():
                out = model(nn.Tensor(chunks[index], dtype=None)).data
        chunk_seconds[index] = time.perf_counter() - chunk_start
        return out

    def run_all() -> List[np.ndarray]:
        if process_pool:
            # Chunks cross the process boundary as shared-memory tensor
            # records (a closure cannot); chunk timings come back from
            # the workers' own enqueue->response stamps.
            return executor.run_chunks(chunks, chunk_seconds)
        if workers > 1:
            pool = executor if executor is not None else _shared_pool(workers)
            # One BLAS thread per chunk: the workers are the parallelism.
            hold_one_blas_thread()
            try:
                return list(pool.map(run_chunk, range(len(chunks))))
            finally:
                release_blas_thread()
        return [run_chunk(i) for i in range(len(chunks))]

    start = time.perf_counter()
    if compiled is not None:
        outputs = run_all()
    else:
        was_training = model.training
        model.eval()
        try:
            # This outer no_grad covers the sequential path (run_chunk
            # adds a per-thread one for pooled workers, since grad mode
            # is thread-local).
            with nn.no_grad(), conv_backend_override(model, backend):
                outputs = run_all()
        finally:
            model.train(was_training)

    if pad_tail:
        outputs[-1] = outputs[-1][:tail_rows]
    result = outputs[0] if len(outputs) == 1 else np.concatenate(outputs, axis=0)
    if stats is not None:
        stats.batch = batch
        stats.micro_batch = micro_batch
        stats.chunks = len(outputs)
        stats.workers = workers
        stats.compiled = compiled is not None
        stats.seconds = time.perf_counter() - start
        stats.chunk_seconds = chunk_seconds
    return result
