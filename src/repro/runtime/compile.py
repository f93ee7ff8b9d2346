"""Compiled inference pipeline: ops, the compiled model, and its entry point.

:func:`compile_model` performs the autograd→inference split real serving
runtimes make — but since PR 5 it no longer does so in one monolithic
walk. The model lowers to a small graph IR (:mod:`repro.runtime.ir`:
ops with explicit producer/consumer links and per-edge tensor metadata)
and a :class:`~repro.runtime.passes.PassManager` transforms that graph
through named, independently-testable passes::

    lower → fold_bn → fuse_epilogues → [tune] → [quantize]
          → link_halos → assign_arenas → finalize

What the pipeline ends up with (see :mod:`repro.runtime.passes` for the
per-pass detail):

- **BN folding** — every eval-mode ``BatchNorm2d`` collapses into the
  preceding conv's weights and bias, including convs that carry an SPM
  encoding (scaling a kernel's non-zero sequence never moves its
  pattern).
- **Fused epilogues** — bias add and a following ``ReLU`` run in place
  on the conv's GEMM output while the tile is cache-hot, the bias
  itself riding inside the GEMM as an appended weight row against an
  all-ones column.
- **One-time float32 cast** — parameters are cast once when the ops are
  finalized (``dtype=None`` keeps the training precision).
- **Channels-last layout** — activations flow NHWC between ops; the
  conv GEMM's output *is* the next layer's channels-last activation.
- **Workspace arenas** — each op draws scratch buffers from a
  per-thread (or, in a sharded call, per-shard)
  :class:`~repro.runtime.arena.Arena`, so the steady-state loop does
  zero large allocations.
- **Halo linking** — producers write activations straight into the
  consumer's padded-buffer interior, skipping the pad copy.
- **Per-layer schedules** — SPM convs gather natively from pattern
  storage when the grouped contraction is narrower than the dense GEMM
  (the static rule in :mod:`repro.runtime.tune`), and
  ``compile_model(tune="cost"|"measure")`` replaces that heuristic with
  the analytic accelerator cost model or short empirical measurements
  persisted in a :class:`~repro.runtime.tune.TuningCache`.

Residual topologies lower through two small model-side hooks instead of
tracing: ``lowering_sequence()`` (an ordered list of submodules — VGG16,
ResNet18, PatternNet) and ``lowering_branches()``
(``(body, shortcut[, post_relu])`` — BasicBlock). Anything the lowerer
does not recognise falls back to a :class:`ModuleOp` that runs the
original module under ``no_grad``, so ``compile_model`` is total.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import nn
from ..nn.functional import im2col_nhwc, pool_windows_nhwc
from . import blas
from .arena import Arena
from .backends import Epilogue
from .engine import dispatch
from .ir import Graph, TensorMeta
from .plan import ExecutionPlan, PlanCache
from .tune import GATHER_WIDTH_LIMIT  # noqa: F401  (canonical home: tune.py)
from .winograd import transforms as wino_transforms
from .winograd import weight_transform as wino_weight_transform
from .winograd import wino_geometry

__all__ = ["compile_model", "CompiledModel", "fold_batchnorm"]

# Per-conv workspace budget (bytes) for the compiled executor's im2col
# slabs. Byte-based rather than element-based so the float32 pipeline
# gets twice the rows of a float64 one for the same memory footprint;
# larger monolithic slabs measurably beat many small GEMMs until the
# workspace falls out of cache. A tuned ``ConvOp.slab_bytes`` overrides
# this budget per layer (still batch-adaptive: rows are derived from the
# budget at each call's geometry).
SLAB_BYTES = 64 * 2**20

# Dense conv MACs (``models/flops.py`` accounting) every shard of a
# sharded call must do at least. Measured, not tuned per host: below
# it, dispatching shards to the crew costs more than the second core
# returns (docs/KERNELS.md, "Sharded calls").
SHARD_FLOOR_MACS = 4 * 10**6

# Images every shard gets at least. A one-image shard turns the deepest
# layers' GEMMs into GEMVs, which stream the whole weight operand once
# per shard (on a 2-core VM, VGG-16 gains 13% at batch 2, 27% at 4) and
# round differently from the same image inside a batch.
SHARD_MIN_IMAGES = 2


def trace_enabled() -> bool:
    """Whether steady-state calls run the recorded trace executor.

    ``REPRO_TRACE=0`` keeps every call on the per-op dispatch loop (the
    debug/measurement path); anything else — including unset — enables
    tracing. Read per call so tests and operators can flip it live.
    """
    return os.environ.get("REPRO_TRACE", "1") != "0"


# ---------------------------------------------------------------------
# Folding helpers
# ---------------------------------------------------------------------
def fold_batchnorm(
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    bn: "nn.BatchNorm2d",
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold an eval-mode BN into the preceding conv's weight and bias.

    Returns ``(weight', bias')`` with
    ``conv(x, w') + b' == BN(conv(x, w) + b)`` for the BN's current
    running statistics.
    """
    scale, shift = bn.fold_params()
    return fold_batchnorm_params(weight, bias, scale, shift)


def fold_batchnorm_params(
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    scale: np.ndarray,
    shift: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold a BN's affine map ``(scale, shift)`` into conv parameters."""
    folded_weight = weight * scale[:, None, None, None]
    folded_bias = shift if bias is None else shift + bias * scale
    return folded_weight, folded_bias


def _fold_encoded(encoded, scale: np.ndarray, dtype):
    """Scale an SPM-encoded layer's values per output filter.

    Kernels are stored in ``(filter, channel)`` row-major order, so
    kernel ``k`` belongs to filter ``k // C_in``; scaling the non-zero
    sequences leaves codes and codebook untouched.
    """
    from ..core.spm import EncodedLayer

    c_out, c_in, kh, kw = encoded.shape
    filters = np.arange(encoded.num_kernels) // c_in
    values = encoded.values * scale[filters][:, None]
    if dtype is not None:
        values = values.astype(dtype, copy=False)
    return EncodedLayer(
        codes=encoded.codes,
        values=values,
        codebook=encoded.codebook,
        shape=encoded.shape,
    )


def _cast_encoded(encoded, dtype):
    """Re-wrap an encoding with values cast to the compile dtype."""
    from ..core.spm import EncodedLayer

    if dtype is None or encoded.values.dtype == np.dtype(dtype):
        return encoded
    return EncodedLayer(
        codes=encoded.codes,
        values=encoded.values.astype(dtype),
        codebook=encoded.codebook,
        shape=encoded.shape,
    )


def _arr_nbytes(*arrays: Optional[np.ndarray]) -> int:
    """Summed ``nbytes`` over the arrays that exist (None-tolerant)."""
    return sum(int(a.nbytes) for a in arrays if a is not None)


def _cast(array: Optional[np.ndarray], dtype) -> Optional[np.ndarray]:
    if array is None or dtype is None:
        return array
    return np.ascontiguousarray(array, dtype=dtype)


# ---------------------------------------------------------------------
# Execution state + ops
# ---------------------------------------------------------------------
@dataclass
class _ExecState:
    """Per-thread execution resources (arena is not thread-safe)."""

    arena: Arena
    plans: PlanCache
    # (input shape, dtype) -> recorded thunk list for the trace executor.
    # Thunks prebind arena buffers and GEMM operands, so the dict must be
    # cleared whenever either is released (see CompiledModel.release_*).
    traces: Dict[tuple, list] = field(default_factory=dict)


class _Crew:
    """The threads a process runs the shards of a sharded call on.

    Slot ``k`` is a one-thread executor, so shard ``k + 1`` always runs
    on the same thread (shard 0 runs on the caller). ``lock`` admits one
    sharded call at a time; callers that find it taken run unsharded.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self._slots: List[ThreadPoolExecutor] = []

    def slot(self, k: int) -> ThreadPoolExecutor:
        """Executor of crew thread ``k``, started on first use (hold ``lock``)."""
        while len(self._slots) <= k:
            self._slots.append(
                ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix=f"repro-shard-{len(self._slots) + 1}",
                )
            )
        return self._slots[k]


# One crew per process, keyed by pid: threads do not survive fork, so a
# forked child builds its own crew instead of queueing on dead threads.
_crews: Dict[int, _Crew] = {}


def _process_crew() -> _Crew:
    pid = os.getpid()
    crew = _crews.get(pid)
    if crew is None:
        crew = _crews.setdefault(pid, _Crew())
    return crew


class _InferenceOp:
    """One step of the compiled pipeline: ndarray in, ndarray out.

    ``layout_in`` / ``layout_out`` declare the op's activation-layout
    contract for :meth:`repro.runtime.ir.Graph.verify` (``"any"`` /
    ``"same"`` for elementwise ops); ``spatial_only`` marks ops that can
    never follow a flattened edge.
    """

    tag: str = ""
    layout_in: str = "any"
    layout_out: str = "same"
    spatial_only: bool = False

    def run(
        self, x: np.ndarray, state: _ExecState, backend: Optional[str]
    ) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - abstract

    def make_thunk(
        self, x: np.ndarray, state: _ExecState
    ) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        """Prebound steady-state closure for ``x``'s geometry, or None.

        Called by the trace recorder with the op's actual input; a
        returned thunk must be equivalent to ``run(x, state, None)`` for
        every later input of the same shape/dtype/buffer identity. None
        keeps the op on generic dispatch inside the trace.
        """
        return None

    def describe(self) -> str:
        return type(self).__name__

    # -- byte accounting (fleet residency) -----------------------------
    def param_nbytes(self) -> int:
        """Bytes of *source* parameters the op owns (weights, codes) —
        the unreclaimable part that survives demotion/eviction."""
        return 0

    def derived_nbytes(self) -> int:
        """Bytes of rebuildable derived state (GEMM operands, memoized
        gathers) — what :meth:`release_derived` can hand back."""
        return 0

    def release_derived(self) -> int:
        """Drop rebuildable derived state; returns the bytes freed.

        The next :meth:`run` rebuilds lazily, so releasing is always
        safe — it trades the first post-release latency for memory.
        """
        return 0


@dataclass
class ToNHWC(_InferenceOp):
    """NCHW → channels-last, copied once into a reused buffer."""

    tag: str
    layout_in = "nchw"
    layout_out = "nhwc"

    def run(self, x, state, backend):
        n, c, h, w = x.shape
        out = state.arena.take(f"{self.tag}:out", (n, h, w, c), x.dtype)
        out[...] = x.transpose(0, 2, 3, 1)
        return out

    def make_thunk(self, x, state):
        n, c, h, w = x.shape
        out = state.arena.take(f"{self.tag}:out", (n, h, w, c), x.dtype)

        def thunk(x_in):
            out[...] = x_in.transpose(0, 2, 3, 1)
            return out

        return thunk

    def describe(self) -> str:
        return "to-nhwc"


@dataclass
class ToNCHW(_InferenceOp):
    """Channels-last → NCHW, for fallbacks and the public output."""

    tag: str
    layout_in = "nhwc"
    layout_out = "nchw"

    def run(self, x, state, backend):
        n, h, w, c = x.shape
        out = state.arena.take(f"{self.tag}:out", (n, c, h, w), x.dtype)
        out[...] = x.transpose(0, 3, 1, 2)
        return out

    def make_thunk(self, x, state):
        n, h, w, c = x.shape
        out = state.arena.take(f"{self.tag}:out", (n, c, h, w), x.dtype)

        def thunk(x_in):
            out[...] = x_in.transpose(0, 3, 1, 2)
            return out

        return thunk

    def describe(self) -> str:
        return "to-nchw"


@dataclass
class ConvOp(_InferenceOp):
    """Channels-last convolution with folded BN and a fused epilogue.

    The op is created by the ``lower`` pass with its *source*
    parameters — the raw ``weight``/``bias`` (or SPM ``encoded``) plus
    geometry — and mutated by later passes: ``fold_bn`` rewrites the
    parameters, ``fuse_epilogues`` sets ``relu``, ``tune`` picks
    ``use_gather``/``slab_bytes``, ``link_halos`` sets ``halo``. The
    *derived* GEMM state (``weight_t`` — the ``(KH*KW*C_in[+1], C_out)``
    NHWC operand with the bias folded in as an extra row against an
    all-ones column — plus the :class:`Epilogue`) is built by
    :meth:`prepare`, which the ``finalize`` pass runs eagerly and
    :meth:`run` on demand; a pass that changes source parameters calls
    :meth:`invalidate` to force a rebuild.

    SPM-encoded layers keep their encoding and run the
    grouped-contraction gather natively on NHWC columns when
    ``use_gather`` (the static rule compares contraction widths; the
    tune pass may override it per layer), decoding once into a dense
    GEMM otherwise. A forced ``backend=`` routes through
    :func:`repro.runtime.dispatch` with layout conversions on both
    sides — correct for any registered backend, just slower.

    ``halo`` names the direct consumer's padded input buffer: the
    monolithic dense path then writes its activation straight into that
    buffer's interior, so the consumer skips its pad copy entirely.
    """

    stride: int
    padding: int
    kernel: Tuple[int, int]
    c_in: int
    c_out: int
    tag: str
    weight: Optional[np.ndarray] = None
    bias: Optional[np.ndarray] = None
    encoded: Optional[object] = None
    relu: bool = False
    backend: Optional[str] = None
    dtype: Optional[object] = None
    use_gather: bool = False
    wino_m: int = 0  # Winograd output-tile size (0 = im2col/gather GEMM)
    slab_bytes: Optional[int] = None  # tuned per-layer workspace budget
    schedule: Optional[object] = None  # ConvSchedule annotation (tune pass)
    halo: Optional[Tuple[str, int]] = None  # (consumer tag, consumer padding)
    # Derived GEMM state, built by prepare():
    weight_t: Optional[np.ndarray] = field(default=None, repr=False)
    bias_rows: int = 0  # 1 when the bias is folded into weight_t, else 0
    epilogue: Optional[Epilogue] = field(default=None, repr=False)
    _weight_nchw: Optional[np.ndarray] = field(default=None, repr=False)
    _decoded_t: Optional[np.ndarray] = field(default=None, repr=False)
    _wino_u: Optional[np.ndarray] = field(default=None, repr=False)
    _prepared: bool = field(default=False, repr=False)
    # Serialises building the derived operands, so two concurrent first
    # calls share one memo instead of each recording its own copy.
    _derive_lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    layout_in = "nhwc"
    layout_out = "nhwc"
    spatial_only = True

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_derive_lock"]  # locks do not pickle (shared model images)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derive_lock = threading.RLock()

    # -- derived-state lifecycle --------------------------------------
    def prepare(self) -> None:
        """Build the GEMM operands from the current source parameters.

        Idempotent; run eagerly by the ``finalize`` pass and lazily by
        :meth:`run` (measurement clones execute before finalize).
        """
        if self._prepared:
            return
        with self._derive_lock:
            if not self._prepared:
                self._prepare()

    def _prepare(self) -> None:
        dtype = self.dtype
        bias = _cast(self.bias, dtype)
        self.bias_rows = 0
        if self.encoded is not None:
            self.encoded = _cast_encoded(self.encoded, dtype)
            self.weight_t = None
            if not self.use_gather and bias is not None:
                self.bias_rows = 1  # the lazily decoded dense weight appends it
        else:
            weight = _cast(self.weight, dtype)
            weight_t = np.ascontiguousarray(
                weight.transpose(0, 2, 3, 1).reshape(self.c_out, -1).T
            )
            if bias is not None:
                # Append the bias as a GEMM row; the column buffer carries
                # a matching all-ones column, so the bias add costs one
                # extra GEMM row instead of a pass over the output.
                weight_t = np.ascontiguousarray(
                    np.vstack([weight_t, bias.astype(weight_t.dtype)[None, :]])
                )
                self.bias_rows = 1
            self.weight_t = weight_t
        self.epilogue = Epilogue(bias=bias, relu=self.relu)
        self._prepared = True

    def invalidate(self) -> None:
        """Drop derived GEMM state after a pass mutated source params."""
        self.weight_t = None
        self.bias_rows = 0
        self.epilogue = None
        self._weight_nchw = None
        self._decoded_t = None
        self._wino_u = None
        self._prepared = False

    def param_nbytes(self) -> int:
        total = _arr_nbytes(self.weight, self.bias)
        if self.encoded is not None:
            total += self.encoded.nbytes
        return total

    def derived_nbytes(self) -> int:
        total = _arr_nbytes(
            self.weight_t, self._weight_nchw, self._decoded_t, self._wino_u
        )
        if self.encoded is not None:
            total += self.encoded.cached_nbytes
        return total

    def release_derived(self) -> int:
        freed = self.derived_nbytes()
        self.invalidate()
        if self.encoded is not None:
            self.encoded.invalidate_caches()
        return freed

    def clone_with(
        self,
        *,
        use_gather: Optional[bool] = None,
        slab_bytes: Optional[int] = None,
        wino_m: Optional[int] = None,
    ) -> "ConvOp":
        """Fresh unprepared copy with an overridden schedule (tuner probes)."""
        return ConvOp(
            stride=self.stride,
            padding=self.padding,
            kernel=self.kernel,
            c_in=self.c_in,
            c_out=self.c_out,
            tag=self.tag,
            weight=self.weight,
            bias=self.bias,
            encoded=self.encoded,
            relu=self.relu,
            backend=None,
            dtype=self.dtype,
            use_gather=self.use_gather if use_gather is None else use_gather,
            wino_m=self.wino_m if wino_m is None else wino_m,
            slab_bytes=slab_bytes,
        )

    def run(self, x, state, backend):
        if not self._prepared:
            self.prepare()
        override = backend or self.backend
        if override is not None:
            return self._run_via_engine(x, state, override)
        if self.use_gather:
            return self._run_gather(x, state)
        if self.wino_m:
            thunk = self._wino_closure(x, state)
            if thunk is not None:
                return thunk(x)
        return self._run_dense(x, state)

    def make_thunk(self, x, state):
        if self.backend is not None:
            return None
        if not self._prepared:
            self.prepare()
        if self.use_gather:
            return None
        if self.wino_m:
            thunk = self._wino_closure(x, state)
            if thunk is not None:
                return thunk
        return self._dense_thunk(x, state)

    # -- shared geometry ----------------------------------------------
    def _plan(self, x: np.ndarray, state: _ExecState) -> ExecutionPlan:
        n, h, w, c = x.shape
        kh, kw = self.kernel
        key = ("nhwc", (n, h, w, c), (self.c_out, c, kh, kw), self.stride, self.padding)
        return state.plans.get_or_build(
            key,
            lambda: ExecutionPlan.build(
                key, (n, c, h, w), (self.c_out, c, kh, kw), self.stride, self.padding
            ),
        )

    def _slab_rows(self, plan: ExecutionPlan, per_row: int, itemsize: int) -> int:
        oh, _ = plan.out_hw
        # A tuned schedule replaces the budget, not the row count, so the
        # workspace footprint it was measured at holds for every batch.
        budget_bytes = SLAB_BYTES if self.slab_bytes is None else self.slab_bytes
        budget = budget_bytes // max(1, itemsize)
        return max(1, min(oh, budget // max(1, per_row)))

    def _padded_input(self, x: np.ndarray, arena: Arena) -> np.ndarray:
        """Zero-padded input, skipping the copy when the producer already
        wrote into this op's pad buffer interior (halo fusion)."""
        if self.padding <= 0:
            return x
        n, h, w, c = x.shape
        p = self.padding
        buffer = arena.take_filled(
            f"{self.tag}:pad", (n, h + 2 * p, w + 2 * p, c), x.dtype, 0.0
        )
        if x.base is buffer:
            return buffer
        buffer[:, p : p + h, p : p + w, :] = x
        return buffer

    def _store(self, out4: np.ndarray, arena: Arena) -> np.ndarray:
        """Activation hand-off: relu (+copy into the consumer's halo)."""
        if self.halo is not None:
            consumer_tag, p = self.halo
            n, oh, ow, c = out4.shape
            buffer = arena.take_filled(
                f"{consumer_tag}:pad", (n, oh + 2 * p, ow + 2 * p, c), out4.dtype, 0.0
            )
            interior = buffer[:, p : p + oh, p : p + ow, :]
            if self.relu:
                np.maximum(out4, 0.0, out=interior)
            else:
                np.copyto(interior, out4)
            return interior
        if self.relu:
            np.maximum(out4, 0.0, out=out4)
        return out4

    def _finish(self, out4: np.ndarray, arena: Arena) -> np.ndarray:
        """Monolithic-path epilogue hook; QuantConvOp overrides this
        with its requantizing variant, so the Winograd and dense paths
        stay shared between the float and int8 pipelines."""
        return self._store(out4, arena)

    def _operand_weight_t(self) -> np.ndarray:
        """The ``(K[+1], C_out)`` GEMM operand, decoding SPM lazily."""
        if self.weight_t is not None:
            return self.weight_t
        return self._decoded_weight_t()

    # -- dense GEMM path ----------------------------------------------
    def _run_dense(self, x, state):
        arena = state.arena
        plan = self._plan(x, state)
        n = plan.batch
        kh, kw = self.kernel
        oh, ow = plan.out_hw
        k = kh * kw * self.c_in
        if self.weight_t is not None:
            weight_t = self.weight_t
        else:
            # SPM conv lowered to decode + dense GEMM.
            weight_t = self._decoded_weight_t()
        gemm_dtype = np.result_type(x.dtype, weight_t.dtype)
        xp = self._padded_input(x, arena)
        out = arena.take(f"{self.tag}:out", (n, oh, ow, self.c_out), gemm_dtype)
        rows = self._slab_rows(plan, n * ow * (k + self.bias_rows), x.dtype.itemsize)
        if rows >= oh:
            # The ones column multiplying the appended bias row is set by
            # take_filled exactly once; im2col rewrites only the first k
            # columns each call.
            cols = arena.take_filled(
                f"{self.tag}:cols", (n * oh * ow, k + self.bias_rows), x.dtype, 1.0
            )
            im2col_nhwc(xp, self.kernel, self.stride, out=cols[:, :k])
            out_mat = out.reshape(n * oh * ow, self.c_out)
            np.matmul(cols, weight_t, out=out_mat)
            return self._finish(out, arena)
        for r0 in range(0, oh, rows):
            r1 = min(r0 + rows, oh)
            x_slab = xp[:, r0 * self.stride : (r1 - 1) * self.stride + kh, :, :]
            cols = arena.take_filled(
                f"{self.tag}:cols",
                (n * (r1 - r0) * ow, k + self.bias_rows),
                x.dtype,
                1.0,
            )
            im2col_nhwc(x_slab, self.kernel, self.stride, out=cols[:, :k])
            tile = arena.take(f"{self.tag}:tile", (len(cols), self.c_out), gemm_dtype)
            np.matmul(cols, weight_t, out=tile)
            if self.relu:
                np.maximum(tile, 0.0, out=tile)
            out[:, r0:r1] = tile.reshape(n, r1 - r0, ow, self.c_out)
        return out

    def _dense_thunk(self, x, state):
        """Prebound monolithic dense GEMM closure (trace executor).

        Binds the pad/cols/out buffers and the GEMM operand once; the
        per-call work is exactly :meth:`_run_dense`'s monolithic branch
        minus every dict lookup and layout decision. Slab-looped
        geometries return None and stay on generic dispatch.
        """
        arena = state.arena
        plan = self._plan(x, state)
        n = plan.batch
        kh, kw = self.kernel
        oh, ow = plan.out_hw
        k = kh * kw * self.c_in
        weight_t = self._operand_weight_t()
        gemm_dtype = np.result_type(x.dtype, weight_t.dtype)
        rows = self._slab_rows(plan, n * ow * (k + self.bias_rows), x.dtype.itemsize)
        if rows < oh:
            return None
        out = arena.take(f"{self.tag}:out", (n, oh, ow, self.c_out), gemm_dtype)
        out_mat = out.reshape(n * oh * ow, self.c_out)
        cols = arena.take_filled(
            f"{self.tag}:cols", (n * oh * ow, k + self.bias_rows), x.dtype, 1.0
        )
        cols_k = cols[:, :k]
        kernel, stride = self.kernel, self.stride
        p = self.padding
        if p > 0:
            h, w = x.shape[1], x.shape[2]
            pad = arena.take_filled(
                f"{self.tag}:pad", (n, h + 2 * p, w + 2 * p, self.c_in), x.dtype, 0.0
            )
            interior = pad[:, p : p + h, p : p + w, :]

            def thunk(x_in):
                if x_in.base is not pad:
                    interior[...] = x_in
                im2col_nhwc(pad, kernel, stride, out=cols_k)
                np.matmul(cols, weight_t, out=out_mat)
                return self._finish(out, arena)

        else:

            def thunk(x_in):
                im2col_nhwc(x_in, kernel, stride, out=cols_k)
                np.matmul(cols, weight_t, out=out_mat)
                return self._finish(out, arena)

        return thunk

    # -- Winograd F(m x m, 3x3) path ----------------------------------
    def _wino_operand(self, m: int, dtype) -> np.ndarray:
        """Memoized transformed weights ``U = (G(x)G) W``, ``(f, C_in, C_out)``."""
        f = (m + 2) ** 2
        with self._derive_lock:
            u = self._wino_u
            if u is None or u.shape[0] != f or u.dtype != np.dtype(dtype):
                k = 9 * self.c_in
                w9 = np.ascontiguousarray(
                    self._operand_weight_t()[:k]
                ).reshape(9, self.c_in, self.c_out)
                self._wino_u = wino_weight_transform(w9, m, dtype)
            return self._wino_u

    def _wino_tile(self, out_hw) -> int:
        """Resolve the effective tile for one geometry (and persist it).

        ``wino_m > 0`` is a concrete compile-time choice (the winograd
        pass with known shapes, or the tuner); ``wino_m == -1`` marks a
        statically-eligible conv whose output size was unknown at
        compile time — the static tile rule resolves it here from the
        first execution plan and the result sticks, so describe() and
        serving meta report the tile that actually runs.
        """
        m = self.wino_m
        if m < 0:
            from .winograd import default_tile, eligible_tiles

            tiles = eligible_tiles(
                kernel=self.kernel,
                stride=self.stride,
                out_hw=out_hw,
                c_in=self.c_in,
                backend=self.backend,
                use_gather=self.use_gather,
            )
            m = default_tile(out_hw=out_hw, c_in=self.c_in, tiles=tiles)
            self.wino_m = m
        return m

    def _wino_closure(self, x, state):
        """Build the prebound Winograd executor for ``x``'s geometry.

        One closure serves both entry points: :meth:`run` builds and
        invokes it per call (cheap — a handful of arena lookups), the
        trace executor records it once and replays the tight loop. The
        epilogue goes through :meth:`_finish`, so the same closure
        serves the float pipeline (bias+ReLU) and the quantized one
        (requantize) — the quantized op's integer activation codes are
        widened to the GEMM dtype during the tile-transform copy.
        Returns ``None`` when the auto tile rule resolves to "stay on
        im2col" for this geometry.
        """
        arena = state.arena
        plan = self._plan(x, state)
        n = plan.batch
        oh, ow = plan.out_hw
        m = self._wino_tile((oh, ow))
        if m <= 0:
            return None
        th, tw, f, span = wino_geometry(out_hw=(oh, ow), m=m)
        c, c_out = self.c_in, self.c_out
        h, w = x.shape[1], x.shape[2]
        p = self.padding
        operand = self._operand_weight_t()
        gemm_dtype = np.result_type(x.dtype, operand.dtype)
        _, bt, at = wino_transforms(m, gemm_dtype)
        u = self._wino_operand(m, gemm_dtype)
        bias = operand[9 * c] if self.bias_rows else None
        # Tile extraction needs m*t + 2 rows/cols; for even outputs this
        # is exactly the conv's own padded extent, so the halo-fused
        # ``:pad`` buffer doubles as the tile source. Odd outputs read
        # one partial tile past it, from a wider zero-filled buffer.
        span_h, span_w = m * th + 2, m * tw + 2
        ph, pw = max(h + 2 * p, span_h), max(w + 2 * p, span_w)
        if p > 0 and ph == h + 2 * p and pw == w + 2 * p:
            pad = arena.take_filled(f"{self.tag}:pad", (n, ph, pw, c), x.dtype, 0.0)
        else:
            pad = arena.take_filled(f"{self.tag}:wpad", (n, ph, pw, c), x.dtype, 0.0)
        interior = pad[:, p : p + h, p : p + w, :]
        sn, sh, sw, sc = pad.strides
        tiles = np.lib.stride_tricks.as_strided(
            pad, (n, th, tw, span, span, c), (sn, m * sh, m * sw, sh, sw, sc)
        )
        tile_src = tiles.transpose(3, 4, 0, 1, 2, 5)
        pcount = n * th * tw
        d = arena.take(f"{self.tag}:wd", (f, pcount, c), gemm_dtype)
        d6 = d.reshape(span, span, n, th, tw, c)
        v = arena.take(f"{self.tag}:wv", (f, pcount, c), gemm_dtype)
        mmat = arena.take(f"{self.tag}:wm", (f, pcount, c_out), gemm_dtype)
        ybuf = arena.take(f"{self.tag}:wy", (m * m, pcount * c_out), gemm_dtype)
        exact = m * th == oh and m * tw == ow
        if exact:
            out_full = arena.take(f"{self.tag}:out", (n, oh, ow, c_out), gemm_dtype)
            out = out_full
        else:
            out_full = arena.take(
                f"{self.tag}:wout", (n, m * th, m * tw, c_out), gemm_dtype
            )
            out = out_full[:, :oh, :ow, :]
        out6 = out_full.reshape(n, th, m, tw, m, c_out)
        y_src = ybuf.reshape(m, m, n, th, tw, c_out).transpose(2, 3, 0, 4, 1, 5)
        d2 = d.reshape(f, pcount * c)
        v2 = v.reshape(f, pcount * c)
        m2 = mmat.reshape(f, pcount * c_out)

        def thunk(x_in):
            if x_in.base is not pad:
                interior[...] = x_in
            d6[...] = tile_src
            np.matmul(bt, d2, out=v2)
            np.matmul(v, u, out=mmat)
            np.matmul(at, m2, out=ybuf)
            out6[...] = y_src
            if bias is not None:
                np.add(out, bias, out=out)
            return self._finish(out, arena)

        return thunk

    def schedule_kind(self) -> str:
        """Per-layer schedule annotation for describe()/serving meta."""
        if self.backend:
            return f"backend:{self.backend}"
        if self.use_gather:
            return "gather"
        if self.wino_m > 0:
            return f"winograd{self.wino_m}"
        if self.wino_m < 0:
            return "winograd-auto"
        if self.slab_bytes is not None:
            return "slab"
        return "im2col"

    # -- grouped-contraction SPM path ---------------------------------
    def _run_gather(self, x, state):
        arena = state.arena
        plan = self._plan(x, state)
        n = plan.batch
        kh, kw = self.kernel
        k2 = kh * kw
        oh, ow = plan.out_hw
        gather = self.encoded.gather_plan()
        grouped = self.encoded.grouped_weight_matrix()  # (|P|*C_in*n, C_out)
        gemm_dtype = np.result_type(x.dtype, grouped.dtype)
        xp = self._padded_input(x, arena)
        out = arena.take(f"{self.tag}:out", (n, oh, ow, self.c_out), gemm_dtype)
        per_row = n * ow * max(k2 * self.c_in, grouped.shape[0])
        rows = self._slab_rows(plan, per_row, x.dtype.itemsize)
        for r0 in range(0, oh, rows):
            r1 = min(r0 + rows, oh)
            x_slab = xp[:, r0 * self.stride : (r1 - 1) * self.stride + kh, :, :]
            cols, _ = im2col_nhwc(
                x_slab,
                self.kernel,
                self.stride,
                out=arena.take(
                    f"{self.tag}:cols", (n * (r1 - r0) * ow, k2 * self.c_in), x.dtype
                ),
            )
            # NHWC columns are (position, channel); gather the |P| pattern
            # position sets, then order (code, channel, slot) to match the
            # grouped weight matrix's layout.
            cols_r = cols.reshape(-1, k2, self.c_in)
            gathered = cols_r[:, gather.positions_by_code, :]  # (W, |P|, n, C)
            a_mat = gathered.transpose(0, 1, 3, 2).reshape(len(cols_r), -1)
            tile = a_mat @ grouped
            self.epilogue.apply(tile)
            out[:, r0:r1] = tile.reshape(n, r1 - r0, ow, self.c_out)
        return out

    # -- forced-backend fallback through the engine -------------------
    def _dense_weight_nchw(self) -> Optional[np.ndarray]:
        with self._derive_lock:
            if self._weight_nchw is None and self.weight_t is not None:
                kh, kw = self.kernel
                k = kh * kw * self.c_in
                self._weight_nchw = np.ascontiguousarray(
                    self.weight_t[:k]
                    .T.reshape(self.c_out, kh, kw, self.c_in)
                    .transpose(0, 3, 1, 2)
                )
            return self._weight_nchw

    def _decoded_weight_t(self) -> np.ndarray:
        """Memoized NHWC GEMM weight decoded from an SPM encoding (bias
        row appended when the layer carries one, as for dense)."""
        with self._derive_lock:
            if self._decoded_t is None:
                decoded = (
                    self.encoded.decoded_weight()
                    .transpose(0, 2, 3, 1)
                    .reshape(self.c_out, -1)
                    .T
                )
                if self.bias_rows:
                    decoded = np.vstack(
                        [decoded, self.epilogue.bias.astype(decoded.dtype)[None, :]]
                    )
                self._decoded_t = np.ascontiguousarray(decoded)
            return self._decoded_t

    def _run_via_engine(self, x, state, override):
        arena = state.arena
        n, h, w, c = x.shape
        x_nchw = arena.take(f"{self.tag}:nchw-in", (n, c, h, w), x.dtype)
        x_nchw[...] = x.transpose(0, 3, 1, 2)
        out_nchw = dispatch(
            x_nchw,
            self._dense_weight_nchw() if self.encoded is None else None,
            encoded=self.encoded,
            stride=self.stride,
            padding=self.padding,
            backend=override,
            cache=state.plans,
            workspace={"arena": arena, "tag": f"{self.tag}:engine"},
            epilogue=self.epilogue,
        )
        n2, c2, oh, ow = out_nchw.shape
        out = arena.take(f"{self.tag}:nhwc-out", (n2, oh, ow, c2), out_nchw.dtype)
        out[...] = out_nchw.transpose(0, 2, 3, 1)
        return out

    def describe(self) -> str:
        kind = "spm-conv" if self.encoded is not None else "conv"
        fused = []
        if self.bias is not None:
            fused.append("bias")
        if self.relu:
            fused.append("relu")
        label = f"{kind}" + (f"+{'+'.join(fused)}" if fused else "")
        if self.schedule is not None:
            label += f" [{self.schedule.describe()}]"
        elif self.wino_m > 0:
            # Auto markers (wino_m < 0) stay silent until the first
            # execution plan resolves them to a concrete tile.
            label += f" [winograd{self.wino_m}]"
        return label


@dataclass
class LinearOp(_InferenceOp):
    """Affine head with optional fused ReLU (outputs are small)."""

    weight: np.ndarray
    bias: Optional[np.ndarray]
    tag: str
    relu: bool = False

    layout_in = "flat"
    layout_out = "flat"

    def run(self, x, state, backend):
        out = x @ self.weight.T
        if self.bias is not None:
            out += self.bias.astype(out.dtype, copy=False)
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out

    def make_thunk(self, x, state):
        weight_t = np.ascontiguousarray(self.weight.T)
        out_dtype = np.result_type(x.dtype, weight_t.dtype)
        out = state.arena.take(
            f"{self.tag}:out", (x.shape[0], self.weight.shape[0]), out_dtype
        )
        bias = None if self.bias is None else self.bias.astype(out_dtype, copy=False)
        relu = self.relu

        def thunk(x_in):
            np.matmul(x_in, weight_t, out=out)
            if bias is not None:
                np.add(out, bias, out=out)
            if relu:
                np.maximum(out, 0.0, out=out)
            return out

        return thunk

    def param_nbytes(self) -> int:
        return _arr_nbytes(self.weight, self.bias)

    def describe(self) -> str:
        return "linear+relu" if self.relu else "linear"


@dataclass
class BatchNormOp(_InferenceOp):
    """Standalone eval-mode BN (only when no conv precedes it)."""

    scale: np.ndarray  # (C,), the BN's folded affine map
    shift: np.ndarray
    tag: str
    relu: bool = False
    dtype: Optional[object] = None
    scale4: Optional[np.ndarray] = field(default=None, repr=False)
    shift4: Optional[np.ndarray] = field(default=None, repr=False)

    layout_in = "nhwc"
    layout_out = "nhwc"
    spatial_only = True

    def prepare(self) -> None:
        """Build the broadcastable channels-last affine operands."""
        if self.scale4 is None:
            c = self.scale.shape[0]
            self.scale4 = _cast(self.scale, self.dtype).reshape(1, 1, 1, c)
            self.shift4 = _cast(self.shift, self.dtype).reshape(1, 1, 1, c)

    def param_nbytes(self) -> int:
        return _arr_nbytes(self.scale, self.shift)

    def derived_nbytes(self) -> int:
        return _arr_nbytes(self.scale4, self.shift4)

    def release_derived(self) -> int:
        freed = self.derived_nbytes()
        self.scale4 = None
        self.shift4 = None
        return freed

    def run(self, x, state, backend):
        self.prepare()
        out = state.arena.take(
            f"{self.tag}:out", x.shape, np.result_type(x.dtype, self.scale4.dtype)
        )
        np.multiply(x, self.scale4, out=out)
        out += self.shift4
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out

    def describe(self) -> str:
        return "batchnorm+relu" if self.relu else "batchnorm"


@dataclass
class ReluOp(_InferenceOp):
    """Standalone ReLU into an op-private arena buffer (never aliases)."""

    tag: str

    def run(self, x, state, backend):
        out = state.arena.take(f"{self.tag}:out", x.shape, x.dtype)
        # Integer zero: ReLU inside a quantized region runs on int8
        # activation codes, where a float 0.0 would force a promotion.
        return np.maximum(x, 0, out=out)

    def make_thunk(self, x, state):
        out = state.arena.take(f"{self.tag}:out", x.shape, x.dtype)

        def thunk(x_in):
            return np.maximum(x_in, 0, out=out)

        return thunk

    def describe(self) -> str:
        return "relu"


def _pool_out(arena: Arena, tag: str, halo, shape, dtype) -> np.ndarray:
    """Pool output buffer — the consumer's pad interior under halo fusion."""
    if halo is not None:
        consumer_tag, p = halo
        n, oh, ow, c = shape
        buffer = arena.take_filled(
            f"{consumer_tag}:pad", (n, oh + 2 * p, ow + 2 * p, c), dtype, 0.0
        )
        return buffer[:, p : p + oh, p : p + ow, :]
    return arena.take(f"{tag}:out", shape, dtype)


@dataclass
class MaxPoolOp(_InferenceOp):
    kernel: int
    stride: int
    padding: int
    tag: str
    halo: Optional[Tuple[str, int]] = None

    layout_in = "nhwc"
    layout_out = "nhwc"
    spatial_only = True

    def run(self, x, state, backend):
        if self.padding > 0:
            # Identity-of-max borders so padded cells never win; filled
            # once at allocation, only the interior is copied per call.
            # (int8 activation codes get the integer minimum: -inf does
            # not cast.)
            n, h, w, c = x.shape
            p = self.padding
            lowest = (
                -np.inf
                if np.issubdtype(x.dtype, np.floating)
                else np.iinfo(x.dtype).min
            )
            buf = state.arena.take_filled(
                f"{self.tag}:pad", (n, h + 2 * p, w + 2 * p, c), x.dtype, lowest
            )
            buf[:, p : p + h, p : p + w, :] = x
            x = buf
        windows = pool_windows_nhwc(x, self.kernel, self.stride)
        n, oh, ow = windows.shape[:3]
        out = _pool_out(
            state.arena, self.tag, self.halo, (n, oh, ow, x.shape[3]), x.dtype
        )
        return np.max(windows, axis=(3, 4), out=out)

    def make_thunk(self, x, state):
        if self.padding > 0:
            return None
        # The window view binds to the producer's (stable) arena buffer;
        # if a later call ever hands a different array, fall back to the
        # generic path rather than reading stale data.
        windows = pool_windows_nhwc(x, self.kernel, self.stride)
        n, oh, ow = windows.shape[:3]
        out = _pool_out(
            state.arena, self.tag, self.halo, (n, oh, ow, x.shape[3]), x.dtype
        )
        bound = x

        def thunk(x_in):
            if x_in is not bound:
                return self.run(x_in, state, None)
            return np.max(windows, axis=(3, 4), out=out)

        return thunk

    def describe(self) -> str:
        return f"maxpool{self.kernel}"


@dataclass
class AvgPoolOp(_InferenceOp):
    kernel: int
    stride: int
    tag: str
    halo: Optional[Tuple[str, int]] = None

    layout_in = "nhwc"
    layout_out = "nhwc"
    spatial_only = True

    def run(self, x, state, backend):
        windows = pool_windows_nhwc(x, self.kernel, self.stride)
        n, oh, ow = windows.shape[:3]
        out = _pool_out(
            state.arena, self.tag, self.halo, (n, oh, ow, x.shape[3]), x.dtype
        )
        return np.mean(windows, axis=(3, 4), out=out)

    def describe(self) -> str:
        return f"avgpool{self.kernel}"


@dataclass
class GlobalAvgPoolOp(_InferenceOp):
    tag: str

    layout_in = "nhwc"
    layout_out = "flat"
    spatial_only = True

    def run(self, x, state, backend):
        return x.mean(axis=(1, 2))  # NHWC -> (N, C)

    def make_thunk(self, x, state):
        if not np.issubdtype(x.dtype, np.floating):
            return None  # integer means promote; keep run()'s semantics
        n, h, w, c = x.shape
        out = state.arena.take(f"{self.tag}:out", (n, c), x.dtype)

        def thunk(x_in):
            return np.mean(x_in, axis=(1, 2), out=out)

        return thunk

    def describe(self) -> str:
        return "globalavgpool"


@dataclass
class FlattenOp(_InferenceOp):
    """NCHW-ordered flatten of a channels-last activation."""

    tag: str

    layout_in = "nhwc"
    layout_out = "flat"
    spatial_only = True

    def run(self, x, state, backend):
        n, h, w, c = x.shape
        out = state.arena.take(f"{self.tag}:out", (n, c * h * w), x.dtype)
        out.reshape(n, c, h, w)[...] = x.transpose(0, 3, 1, 2)
        return out

    def make_thunk(self, x, state):
        n, h, w, c = x.shape
        out = state.arena.take(f"{self.tag}:out", (n, c * h * w), x.dtype)
        out_nchw = out.reshape(n, c, h, w)

        def thunk(x_in):
            out_nchw[...] = x_in.transpose(0, 3, 1, 2)
            return out

        return thunk

    def describe(self) -> str:
        return "flatten"


@dataclass
class ResidualOp(_InferenceOp):
    """Body + shortcut with the post-add ReLU applied in place.

    The two branches are nested :class:`~repro.runtime.ir.Graph`
    pipelines (both consuming this op's input edge), so graph passes
    recurse into them like any other ops; execution reads the cached
    linearisation.
    """

    body_graph: Graph
    shortcut_graph: Graph
    relu: bool
    tag: str

    layout_in = "nhwc"
    layout_out = "nhwc"
    spatial_only = True

    @property
    def body(self) -> List[_InferenceOp]:
        """The body branch's executable ops, in order."""
        return self.body_graph.op_list()

    @property
    def shortcut(self) -> List[_InferenceOp]:
        """The shortcut branch's executable ops, in order."""
        return self.shortcut_graph.op_list()

    def run(self, x, state, backend):
        out = x
        for op in self.body:
            out = op.run(out, state, backend)
        identity = x
        for op in self.shortcut:
            identity = op.run(identity, state, backend)
        if out is x:  # degenerate empty body: do not mutate the input
            out = x.copy()
        np.add(out, identity, out=out)
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out

    def describe(self) -> str:
        body = " ".join(op.describe() for op in self.body)
        down = " ".join(op.describe() for op in self.shortcut) or "identity"
        return f"residual[{body} | {down}]"


@dataclass
class ModuleOp(_InferenceOp):
    """Fallback: run an unlowered module under no_grad in eval mode."""

    module: nn.Module
    tag: str

    # The lowerer converts spatial activations to NCHW before a fallback
    # module runs; the contract stays "any"/"same" because flat inputs
    # pass through untouched.
    layout_in = "any"
    layout_out = "same"

    def run(self, x, state, backend):
        was_training = self.module.training
        self.module.eval()
        try:
            with nn.no_grad():
                return self.module(nn.Tensor(x, dtype=None)).data
        finally:
            self.module.train(was_training)

    def param_nbytes(self) -> int:
        return sum(int(p.data.nbytes) for p in self.module.parameters())

    def describe(self) -> str:
        return f"module:{type(self.module).__name__}"


# ---------------------------------------------------------------------
# The compiled model
# ---------------------------------------------------------------------
class CompiledModel:
    """Flat inference pipeline produced by :func:`compile_model`.

    Callable on ``(N, C, H, W)`` numpy batches; inputs are cast once to
    the compile dtype, converted to channels-last at entry, and outputs
    are returned in the eager model's layout. Execution resources
    (buffer arena) are thread-local, so one compiled model serves
    micro-batches from a thread pool concurrently
    (``predict(..., workers=N)``); the plan cache is shared and
    lock-protected.

    When BLAS runs on T > 1 threads, a call splits its batch into up to
    T contiguous shards and runs them side by side, each on one BLAS
    thread (:meth:`shard_count` has the rule). Shard ``k`` always uses
    the model's ``k``-th shard state (arena plus traces), whichever
    thread runs it.

    ``graph`` holds the pass-transformed IR the op list was linearised
    from, ``passes`` the :class:`~repro.runtime.passes.PassRecord` trace
    of what each pass did, ``quantization``/``tuning`` the optional
    reports — all rendered by :meth:`describe`.
    """

    def __init__(
        self,
        graph: Union[Graph, List[_InferenceOp]],
        dtype,
        source: str = "",
        passes: Optional[List[object]] = None,
    ) -> None:
        if isinstance(graph, Graph):
            self.graph: Optional[Graph] = graph
            self.ops = list(graph.op_list())
        else:
            self.graph = None
            self.ops = list(graph)
        self.dtype = np.dtype(dtype) if dtype is not None else None
        self.source = source
        self.plans = PlanCache()
        #: Per-pass trace (:class:`~repro.runtime.passes.PassRecord`).
        self.passes = list(passes or [])
        #: :class:`~repro.runtime.quant.QuantizationReport` when the
        #: pipeline was compiled with ``quantize=``, else ``None``.
        self.quantization = None
        #: :class:`~repro.runtime.tune.TuningReport` when compiled with
        #: ``tune=``, else ``None``.
        self.tuning = None
        self._local = threading.local()
        # Every thread's _ExecState, so cross-thread byte accounting and
        # workspace release (fleet demotion) can reach arenas that the
        # creating threads own. Guarded by _states_lock; the hot path
        # only appends once per thread.
        self._states: List[_ExecState] = []
        self._states_lock = threading.Lock()
        # States of sharded calls, indexed by shard; also in _states.
        self._shards: List[_ExecState] = []
        # Input tail -> dense conv MACs per image (None: not derivable).
        self._image_macs: dict = {}
        # Observed (input tail, input dtype) -> (output tail, output
        # dtype), recorded by __call__ and served by output_geometry()
        # so empty-batch calls never need a probe forward.
        self._geometry: dict = {}

    # -- resources -----------------------------------------------------
    def _state(self) -> _ExecState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ExecState(arena=Arena(), plans=self.plans)
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _shard_states(self, count: int) -> List[_ExecState]:
        """The first ``count`` shard states, created on demand."""
        with self._states_lock:
            while len(self._shards) < count:
                state = _ExecState(arena=Arena(), plans=self.plans)
                self._shards.append(state)
                self._states.append(state)
            return self._shards[:count]

    @property
    def arena(self) -> Arena:
        """The calling thread's buffer arena (stats/introspection)."""
        return self._state().arena

    # -- byte accounting & residency -----------------------------------
    def iter_ops(self):
        """Every executable op, recursing into residual branches."""

        def walk(ops):
            for op in ops:
                yield op
                if isinstance(op, ResidualOp):
                    yield from walk(op.body)
                    yield from walk(op.shortcut)

        yield from walk(self.ops)

    def memory_report(self) -> dict:
        """Byte breakdown of what this pipeline holds resident.

        ``parameters`` (weights/codes — survives demotion and eviction),
        ``derived`` (rebuildable GEMM operands and memoized gathers),
        ``plans`` (plan-cache workspace charge) and ``arenas`` (scratch
        buffers across every thread and shard that has executed the
        model), plus the ``threads`` and ``shards`` state counts.
        """
        parameters = 0
        derived = 0
        for op in self.iter_ops():
            parameters += op.param_nbytes()
            derived += op.derived_nbytes()
        with self._states_lock:
            states = list(self._states)
            shards = len(self._shards)
        return {
            "parameters": parameters,
            "derived": derived,
            "plans": self.plans.nbytes,
            "arenas": sum(state.arena.nbytes for state in states),
            "threads": len(states) - shards,
            "shards": shards,
        }

    def resident_nbytes(self) -> int:
        """Reclaimable resident bytes: derived + plans + arenas (the
        fleet ledger's charge for this tenant; parameters excluded —
        they are the price of keeping the model loaded at all)."""
        report = self.memory_report()
        return report["derived"] + report["plans"] + report["arenas"]

    def release_workspaces(self) -> int:
        """Demotion: drop plan cache + every thread's arena buffers.

        Parameters and derived GEMM operands stay, so the next call is a
        warm re-plan (allocate + plan, no re-prepare). Returns bytes
        freed. Safe only while no request is executing (the fleet's
        residency manager serialises this against flushes).
        """
        freed = self.plans.clear()
        with self._states_lock:
            states = list(self._states)
        for state in states:
            state.traces.clear()  # thunks pin the arena buffers
            freed += state.arena.release()
        return freed

    def release_derived(self) -> int:
        """Eviction: additionally drop rebuildable derived op state.

        The lowered IR, pass trace and source parameters all stay — the
        next call re-runs :meth:`prepare` lazily (a warm finalize), never
        a recompile. Returns bytes freed.
        """
        freed = 0
        with self._states_lock:
            states = list(self._states)
        for state in states:
            state.traces.clear()  # thunks pin the released GEMM operands
        for op in self.iter_ops():
            freed += op.release_derived()
        return freed

    def prepare_ops(self) -> None:
        """Eagerly rebuild derived op state (the finalize pass's work) —
        re-promotion after eviction calls this off the hot path."""
        for op in self.iter_ops():
            prepare = getattr(op, "prepare", None)
            if prepare is not None:
                prepare()

    # -- execution -----------------------------------------------------
    def __call__(self, x: np.ndarray, *, backend: Optional[str] = None) -> np.ndarray:
        """Run the compiled pipeline over a batch.

        ``backend`` forces every conv onto one engine backend, mirroring
        ``predict(..., backend=...)`` on eager models.
        """
        x = np.asarray(x)
        if x.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) inputs, got shape {x.shape}")
        geometry_key = (x.shape[1:], np.dtype(x.dtype))
        if self.dtype is not None and x.dtype != self.dtype:
            x = x.astype(self.dtype)
        out = None
        if backend is None and trace_enabled():
            shards = self.shard_count(x.shape)
            if shards > 1:
                out = self._run_sharded(x, shards)
            if out is None:
                out = self._run_traced(x, self._state())
        else:
            state = self._state()
            out = x
            for op in self.ops:
                out = op.run(out, state, backend)
        if geometry_key not in self._geometry:
            self._geometry[geometry_key] = (out.shape[1:], np.dtype(out.dtype))
        # The last op's result may be a view into an arena buffer that the
        # next call will overwrite; hand back an owned copy (outputs are
        # head-sized, so this is cheap).
        return np.array(out, copy=True)

    def shard_count(self, shape: Sequence[int]) -> int:
        """Shards a call on an ``(N, C, H, W)`` batch of ``shape`` splits into.

        One per BLAS thread, as long as every shard does at least
        :data:`SHARD_FLOOR_MACS` dense conv MACs on at least
        :data:`SHARD_MIN_IMAGES` images; 1 (no sharding) when
        BLAS is unmanaged or on one thread — under the serving rule, a
        worker pool's fork rule or ``predict(workers=N>1)`` — or when
        the pipeline's MACs cannot be derived (a :class:`ModuleOp`).
        """
        threads = blas.blas_threads()
        if threads is None or threads < 2:
            return 1
        images = self._shard_images(tuple(shape[1:]))
        if images is None:
            return 1
        return max(1, min(threads, shape[0] // images))

    def _shard_images(self, tail: tuple) -> Optional[int]:
        """Fewest images a shard of ``(C, H, W)`` inputs may get (None:
        the per-image MACs cannot be derived, so calls never shard)."""
        if tail not in self._image_macs:
            convs: list = []
            walked = self._walk_geometry(self.ops, tail, convs)
            macs = sum(conv.macs for conv in convs)
            self._image_macs[tail] = macs if walked is not None and macs else None
        macs = self._image_macs[tail]
        if macs is None:
            return None
        return max(SHARD_MIN_IMAGES, -(-SHARD_FLOOR_MACS // macs))

    def _run_sharded(self, x: np.ndarray, shards: int) -> Optional[np.ndarray]:
        """Run ``x`` as ``shards`` contiguous shards at once; None when busy.

        Shard 0 runs here, shard ``k`` on crew thread ``k``, each on the
        model's ``k``-th shard state while this call holds BLAS on one
        thread. The first call at a geometry records every shard's trace
        serially on this thread instead (recording doubles as
        execution), so later calls only ever replay. Returns None
        without waiting when another sharded call holds the crew.
        """
        crew = _process_crew()
        if not crew.lock.acquire(blocking=False):
            return None
        try:
            states = self._shard_states(shards)
            parts = np.array_split(x, shards)
            if any(
                (part.shape, part.dtype) not in state.traces
                for part, state in zip(parts, states)
            ):
                return np.concatenate(
                    [self._run_traced(p, state) for p, state in zip(parts, states)]
                )
            blas.hold_one_blas_thread()
            try:
                futures = [
                    crew.slot(k - 1).submit(self._run_traced, parts[k], states[k])
                    for k in range(1, shards)
                ]
                try:
                    outs = [self._run_traced(parts[0], states[0])]
                finally:
                    wait(futures)  # shards finish before their states are reused
                outs.extend(future.result() for future in futures)
                return np.concatenate(outs)
            finally:
                blas.release_blas_thread()
        finally:
            crew.lock.release()

    def _run_traced(self, x: np.ndarray, state: _ExecState) -> np.ndarray:
        """Steady-state executor: replay the recorded thunk list.

        The first call at a given (shape, dtype) records the trace — it
        runs each op once through :meth:`_InferenceOp.make_thunk` (or a
        generic ``op.run`` wrapper), capturing prebound buffers, GEMM
        operands and frozen layout decisions. Replays are a tight loop
        over plain callables: no plan-cache lookups, no arena dict hits,
        no per-op branching. Recording doubles as execution, so the
        first call costs the same as dispatch.
        """
        key = (x.shape, np.dtype(x.dtype))
        thunks = state.traces.get(key)
        if thunks is not None:
            out = x
            for thunk in thunks:
                out = thunk(out)
            return out
        thunks = []
        out = x
        for op in self.ops:
            thunk = op.make_thunk(out, state)
            if thunk is None:

                def thunk(x_in, _op=op, _state=state):
                    return _op.run(x_in, _state, None)

            out = thunk(out)
            thunks.append(thunk)
        state.traces[key] = thunks
        return out

    def executor_kind(self) -> str:
        """``"trace"`` when steady-state calls replay recorded thunks,
        ``"dispatch"`` under ``REPRO_TRACE=0``."""
        return "trace" if trace_enabled() else "dispatch"

    def schedule_summary(self) -> List[dict]:
        """Per-layer schedule kinds for describe()/serving meta.

        One row per conv-like op: the lowering tag, op class, the
        chosen schedule kind (``winograd4``/``winograd2``/``im2col``/
        ``gather``/``slab``/``backend:*``) and, for quantized convs,
        which int8 GEMM kernel serves the layer.
        """
        rows = []
        for op in self.iter_ops():
            kind = getattr(op, "schedule_kind", None)
            if kind is None:
                continue
            row = {"tag": op.tag, "op": type(op).__name__, "kind": kind()}
            int8_kernel = getattr(op, "int8_kernel", None)
            if int8_kernel is not None:
                row["int8_kernel"] = int8_kernel
            rows.append(row)
        return rows

    def output_geometry(self, input_tail, input_dtype):
        """``(output shape tail, dtype)`` for ``(N,) + input_tail`` inputs.

        Answers from geometry a real call already recorded, else derives
        it analytically by walking the op list's shape rules — no probe
        forward, no arena allocation, no worker-pool dispatch, which is
        what lets ``predict`` answer empty batches for free. Returns
        ``None`` when the pipeline's geometry cannot be derived
        statically (a :class:`ModuleOp` fallback hides its spatial
        behaviour, and ``dtype=None`` pipelines track parameter dtypes
        the walk does not model) — callers fall back to the probe.
        """
        key = (tuple(input_tail), np.dtype(input_dtype))
        entry = self._geometry.get(key)
        if entry is not None:
            return entry
        if self.dtype is None:
            return None
        tail = self._walk_geometry(self.ops, key[0])
        if tail is None:
            return None
        entry = (tail, self.dtype)
        self._geometry[key] = entry
        return entry

    @staticmethod
    def _walk_geometry(ops, tail, convs: Optional[list] = None):
        """Symbolically push a shape tail through ``ops`` (None = punt).

        With ``convs``, also appends each conv's per-image
        :class:`~repro.models.flops.ConvProfile`, residual shortcuts
        included.
        """
        from ..models.flops import ConvProfile
        from ..nn.functional import conv_output_size
        from .quant import DequantizeOp, QuantizeOp

        for op in ops:
            if isinstance(op, ToNHWC):
                if len(tail) != 3:
                    return None
                c, h, w = tail
                tail = (h, w, c)
            elif isinstance(op, ToNCHW):
                if len(tail) != 3:
                    return None
                h, w, c = tail
                tail = (c, h, w)
            elif isinstance(op, ConvOp):  # QuantConvOp included
                if len(tail) != 3:
                    return None
                h, w, _ = tail
                oh = conv_output_size(h, op.kernel[0], op.stride, op.padding)
                ow = conv_output_size(w, op.kernel[1], op.stride, op.padding)
                tail = (oh, ow, op.c_out)
                if convs is not None:
                    if op.kernel[0] != op.kernel[1]:
                        return None  # ConvProfile models square kernels
                    convs.append(
                        ConvProfile(
                            name=op.tag,
                            in_channels=op.c_in,
                            out_channels=op.c_out,
                            kernel_size=op.kernel[0],
                            stride=op.stride,
                            padding=op.padding,
                            input_hw=(h, w),
                            output_hw=(oh, ow),
                        )
                    )
            elif isinstance(op, MaxPoolOp):
                if len(tail) != 3:
                    return None
                h, w, c = tail
                oh = conv_output_size(h, op.kernel, op.stride, op.padding)
                ow = conv_output_size(w, op.kernel, op.stride, op.padding)
                tail = (oh, ow, c)
            elif isinstance(op, AvgPoolOp):
                if len(tail) != 3:
                    return None
                h, w, c = tail
                oh = conv_output_size(h, op.kernel, op.stride, 0)
                ow = conv_output_size(w, op.kernel, op.stride, 0)
                tail = (oh, ow, c)
            elif isinstance(op, GlobalAvgPoolOp):
                if len(tail) != 3:
                    return None
                tail = (tail[2],)
            elif isinstance(op, FlattenOp):
                if len(tail) != 3:
                    return None
                h, w, c = tail
                tail = (c * h * w,)
            elif isinstance(op, LinearOp):
                tail = (op.weight.shape[0],)
            elif isinstance(op, ResidualOp):
                if convs is not None and (
                    CompiledModel._walk_geometry(op.shortcut, tail, convs) is None
                ):
                    return None
                tail = CompiledModel._walk_geometry(op.body, tail, convs)
                if tail is None:
                    return None
            elif isinstance(op, (BatchNormOp, ReluOp, QuantizeOp, DequantizeOp)):
                pass  # shape-preserving
            else:  # ModuleOp or an op this walk does not know
                return None
        return tail

    def describe(self) -> str:
        """The pass-annotated pipeline: trace, ops, and reports."""
        header = f"CompiledModel({self.source or 'model'}, dtype={self.dtype})"
        lines = [header, f"  executor: {self.executor_kind()}", self._describe_shards()]
        if self.passes:
            trace = " -> ".join(record.name for record in self.passes)
            lines.append(f"  passes: {trace}")
            for record in self.passes:
                if record.note:
                    lines.append(f"    {record.name}: {record.note}")
        lines.extend(f"  {i}: {op.describe()}" for i, op in enumerate(self.ops))
        if self.tuning is not None:
            lines.append("  tuning: " + self.tuning.describe().replace("\n", "\n  "))
        if self.quantization is not None:
            lines.append("  quantization: " + self.quantization.describe())
        return "\n".join(lines)

    def _describe_shards(self) -> str:
        """The ``shards:`` line of :meth:`describe`."""
        threads = blas.blas_threads()
        if threads is None or threads < 2:
            reason = "BLAS unmanaged" if threads is None else "BLAS on one thread"
            return f"  shards: 1 ({reason})"
        line = (
            f"  shards: up to {threads}, one per BLAS thread, "
            f">= {SHARD_FLOOR_MACS / 1e6:g} M dense conv MACs and "
            f">= {SHARD_MIN_IMAGES} images each"
        )
        for tail in sorted({tail for tail, _ in self._geometry}):
            images = self._shard_images(tuple(tail))
            shape = "x".join(map(str, tail))
            line += (
                f"; {shape}: never sharded"
                if images is None
                else f"; {shape}: from batch {2 * images}"
            )
        return line

    def __repr__(self) -> str:
        return (
            f"CompiledModel(ops={len(self.ops)}, dtype={self.dtype}, "
            f"source={self.source!r})"
        )


def compile_model(
    model: nn.Module,
    dtype=np.float32,
    *,
    quantize=None,
    calibration: Optional[np.ndarray] = None,
    tune: Optional[str] = None,
    input_shape: Optional[Sequence[int]] = None,
    tuning_cache=None,
    winograd: bool = True,
    passes: Optional[Sequence[object]] = None,
) -> CompiledModel:
    """Lower ``model`` to a :class:`CompiledModel` inference pipeline.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module`. Known structures (Sequential
        chains, modules exposing ``lowering_sequence`` /
        ``lowering_branches``) lower to fused channels-last ops; anything
        else runs via a :class:`ModuleOp` fallback, so compilation always
        succeeds.
    dtype:
        Inference dtype, cast once at compile time. ``np.float32``
        (default) halves GEMM memory traffic vs the float64 training
        graph; ``None`` keeps each parameter's own dtype.
    quantize:
        Lower eligible convolutions to the int8 execution path
        (:mod:`repro.runtime.quant`): ``"int8"``/``True`` for the
        defaults, an int bit width, or a full
        :class:`~repro.runtime.quant.QuantizationConfig`. Requires
        ``calibration``.
    calibration:
        Small ``(N, C, H, W)`` batch used to calibrate activation scales
        when ``quantize`` is given.
    tune:
        Pick per-layer conv schedules instead of the static heuristic:
        ``"cost"`` ranks candidates with the analytic accelerator cost
        model (:func:`repro.arch.conv_layer_cost`, zero measurement);
        ``"measure"`` additionally times the top candidates and persists
        the winners in the :class:`~repro.runtime.tune.TuningCache`
        (``~/.cache/repro-tune.json``), so later compiles of the same
        geometry skip the measurement. Requires ``input_shape``.
    input_shape:
        ``(C, H, W)`` of one input image — needed by ``tune`` to derive
        per-layer geometry (``predict``/serving/CLI fill it in).
    tuning_cache:
        Explicit :class:`~repro.runtime.tune.TuningCache` (tests,
        hermetic builds); defaults to the process-wide persisted one.
    winograd:
        Let the ``winograd`` pass mark eligible 3x3/stride-1 convs for
        the F(m x m, 3x3) fast-convolution path (default). ``False``
        keeps every conv on its im2col/gather GEMM — the reference
        schedule benchmarks and equivalence tests compare against.
    passes:
        Override the pass list (names or
        :class:`~repro.runtime.passes.Pass` objects); the default is the
        standard sequence with ``tune``/``quantize`` included when
        requested. Ordering constraints are validated either way.

    Notes
    -----
    The compiled pipeline snapshots weights, masks, BN statistics and SPM
    encodings *at compile time* — mutating the source model afterwards
    (fine-tuning, ``load_state_dict``) requires compiling again.
    """
    from .passes import CompileContext, PassManager, default_passes
    from .quant import resolve_quantization

    config = resolve_quantization(quantize) if quantize is not None else None
    if config is not None and calibration is None:
        raise ValueError(
            "compile_model(quantize=...) needs a calibration= batch "
            "to derive activation scales from"
        )
    ctx = CompileContext(
        model=model,
        dtype=np.dtype(dtype) if dtype is not None else None,
        quantize=config,
        calibration=calibration,
        tune=tune,
        input_shape=tuple(input_shape) if input_shape is not None else None,
        tuning_cache=tuning_cache,
        winograd=winograd,
    )
    graph = Graph(TensorMeta("nchw"), name=type(model).__name__)
    manager = PassManager(passes if passes is not None else default_passes(ctx))
    manager.run(graph, ctx)
    compiled = CompiledModel(
        graph, dtype=dtype, source=type(model).__name__, passes=manager.records
    )
    compiled.quantization = ctx.quant_report
    compiled.tuning = ctx.tuning_report
    return compiled
