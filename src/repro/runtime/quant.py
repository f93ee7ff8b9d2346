"""INT8 quantized execution: the paper's 8-bit storage format, run for real.

Sections IV-E of the paper (and :mod:`repro.core.quantize` /
:mod:`repro.arch.fixed_point` in this repo) describe weights stored at
8-bit precision with integer multiply-accumulate. Until this module,
every serving path dequantized those weights back to float before the
GEMM, so quantization only ever bought *storage*, never runtime. This
module closes that gap with two execution paths:

- :class:`QuantizedBackend` — an engine-level
  :class:`~repro.runtime.backends.ConvBackend` (name ``"quant"``,
  explicit-opt-in only) that quantizes weights per call, dynamically
  quantizes the activation batch, and runs the convolution as a GEMM on
  integer codes. The reference/demo path: it makes
  ``dispatch(..., backend="quant")`` and ``predict(model, x,
  backend="quant")`` work on any model with zero setup.
- :func:`quantize_pipeline` — the serving path.
  ``compile_model(model, quantize="int8", calibration=batch)`` lowers
  the model to float ops first, then this pass calibrates per-edge
  activation scales from a small batch, converts eligible convolutions
  to :class:`QuantConvOp` (int8 weight codes, SPM-aware so only the
  non-zero sequences are quantized, bias folded in code space) and
  keeps the whole conv trunk in int8 activation codes: each conv's
  epilogue *requantizes* its output directly to the next layer's codes,
  and max-pool/ReLU run on codes unchanged (both commute with a
  positive per-tensor scale). Layers whose weight-quantization error
  exceeds :attr:`QuantizationConfig.error_threshold` stay float, with
  :class:`QuantizeOp`/:class:`DequantizeOp` boundaries inserted
  automatically.

**Arithmetic model.** Activations flow between quantized convs as real
``int8`` arrays (the carried bytes are the codes, not float stand-ins),
and the dense GEMM runs through one of the kernels in the int8 kernel
registry — see :func:`get_int8_kernel`:

- ``"blocked"`` (always available): K-blocked float32 BLAS. Every
  int8 product satisfies ``|a*b| <= 127^2 < 2^14``, so a block of up to
  :data:`INT8_BLOCK_K` = 1024 products sums below ``2^24`` and float32
  represents each block-partial *exactly*; the partials accumulate in a
  float64 buffer (53-bit exact), making the whole GEMM bit-identical to
  the int32 datapath of :func:`repro.arch.fixed_point.int8_mac` while
  running at sgemm speed.
- ``"numba"`` (optional): a true int8 x int8 -> wide-accumulator loop
  nest JIT-compiled by numba when the import succeeds; absent numba the
  registry silently serves ``"blocked"`` instead.
- ``"reference"``: :func:`int8_gemm_int32`, numpy's integer-dtype
  matmul — exact but far too slow to serve with; the bit-identity
  oracle the other kernels are tested against.
- ``"float"``: the pre-registry behaviour — codes carried in float
  arrays through a plain BLAS GEMM (float64 exact for every realisable
  int8 conv, float32 to ~2^-24 relative).

``REPRO_INT8_KERNEL`` overrides the choice at compile time. This is the
honest numpy rendering of the hardware story: int8 storage, int8
operand traffic, integer products, wide accumulation, scales folded in
the epilogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .arena import Arena
from .backends import Epilogue
from .compile import ConvOp, MaxPoolOp, ReluOp, _ExecState, _InferenceOp, _arr_nbytes
from .plan import ExecutionPlan, PlanCache

__all__ = [
    "QuantizationConfig",
    "QuantizationReport",
    "QuantizedBackend",
    "QuantConvOp",
    "QuantizeOp",
    "DequantizeOp",
    "quantize_weight_codes",
    "quantize_encoded_values",
    "int8_gemm_int32",
    "int8_gemm_int32_blocked",
    "INT8_BLOCK_K",
    "available_int8_kernels",
    "get_int8_kernel",
    "quantize_pipeline",
    "resolve_quantization",
]


@dataclass(frozen=True)
class QuantizationConfig:
    """Policy knobs for the int8 execution path.

    Parameters
    ----------
    bits:
        Weight/activation precision (symmetric signed); 8 is the
        hardware format, anything >= 2 works.
    granularity:
        ``"per_kernel"`` gives every output filter its own weight scale
        (one scale per GEMM output column — the finest granularity that
        still folds into a per-column epilogue multiply);
        ``"per_tensor"`` uses a single scale per layer.
    mode:
        ``"requantize"`` (default) keeps activations as int8 codes
        between quantized convs — each conv's epilogue rounds straight
        into the next layer's code space. ``"dequantize"`` returns every
        conv output to float and re-quantizes at the next conv's input;
        strictly more work, useful for isolating epilogue effects.
    error_threshold:
        Per-layer float fallback: a conv whose relative L2
        weight-quantization error exceeds this stays float (boundaries
        are inserted automatically).
    calibration_images:
        How many images of the calibration batch are actually used
        (scales saturate quickly; keeping this small keeps
        ``compile_model(quantize=...)`` cheap).
    kernel:
        Which int8 GEMM kernel dense quantized convs execute on:
        ``"auto"`` (default — the fastest registered kernel, numba when
        importable else the blocked-BLAS kernel), or an explicit
        ``"blocked"`` / ``"numba"`` / ``"reference"`` / ``"float"``.
        ``"float"`` restores the float-carried code GEMM (no int8
        activation traffic). The ``REPRO_INT8_KERNEL`` environment
        variable overrides this at compile time.
    """

    bits: int = 8
    granularity: str = "per_kernel"
    mode: str = "requantize"
    error_threshold: float = 0.1
    calibration_images: int = 8
    kernel: str = "auto"

    def __post_init__(self) -> None:
        if self.bits < 2:
            raise ValueError("need at least 2 bits for signed quantization")
        if self.granularity not in ("per_kernel", "per_tensor"):
            raise ValueError(
                f"granularity must be 'per_kernel' or 'per_tensor', "
                f"got {self.granularity!r}"
            )
        if self.mode not in ("requantize", "dequantize"):
            raise ValueError(
                f"mode must be 'requantize' or 'dequantize', got {self.mode!r}"
            )
        if not 0 <= self.error_threshold:
            raise ValueError("error_threshold must be >= 0")
        if self.calibration_images < 1:
            raise ValueError("calibration_images must be >= 1")
        if self.kernel not in ("auto", "blocked", "numba", "reference", "float"):
            raise ValueError(
                f"kernel must be 'auto', 'blocked', 'numba', 'reference' "
                f"or 'float', got {self.kernel!r}"
            )

    @property
    def qmax(self) -> int:
        """Largest code magnitude: ``2^(bits-1) - 1`` (127 for int8)."""
        return 2 ** (self.bits - 1) - 1


def resolve_quantization(
    quantize: Union[None, bool, str, int, QuantizationConfig]
) -> Optional[QuantizationConfig]:
    """Normalise the public ``quantize=`` argument to a config.

    Accepts ``None``/``False`` (off), ``True`` or ``"int8"`` (defaults),
    an integer bit width, or a full :class:`QuantizationConfig`.
    """
    if quantize is None or quantize is False:
        return None
    if isinstance(quantize, QuantizationConfig):
        return quantize
    if quantize is True:
        return QuantizationConfig()
    if isinstance(quantize, int):
        return QuantizationConfig(bits=quantize)
    if isinstance(quantize, str):
        name = quantize.lower()
        if name.startswith("int") and name[3:].isdigit():
            return QuantizationConfig(bits=int(name[3:]))
        raise ValueError(f"unknown quantization spec {quantize!r} (try 'int8')")
    raise TypeError(f"cannot interpret quantize={quantize!r}")


# ---------------------------------------------------------------------
# Quantizers
# ---------------------------------------------------------------------
def _scales_from_peaks(peaks: np.ndarray, qmax: int) -> np.ndarray:
    """Symmetric scales from absolute peaks (zero peak -> scale 1.0)."""
    peaks = np.asarray(peaks, dtype=np.float64)
    return np.where(peaks > 0, peaks / qmax, 1.0)


def quantize_weight_codes(
    w_mat: np.ndarray, config: QuantizationConfig
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Quantize a ``(C_out, K)`` weight matrix to integer codes.

    Returns ``(codes, scales, error)`` with ``codes`` int-valued (stored
    as int8 when ``bits <= 8``), ``scales`` of shape ``(C_out,)`` (one
    per output kernel, or a broadcast single scale for per-tensor), and
    ``error`` the *worst per-output-kernel* relative L2 reconstruction
    error — the per-layer float fallback thresholds on this rather than
    the whole-layer norm, because a whole-layer figure lets one huge
    (exactly-represented) outlier mask every small weight that
    underflowed to code zero.
    """
    w_mat = np.asarray(w_mat, dtype=np.float64)
    qmax = config.qmax
    if config.granularity == "per_kernel":
        peaks = np.abs(w_mat).max(axis=1)
    else:
        peaks = np.full(w_mat.shape[0], np.abs(w_mat).max() if w_mat.size else 0.0)
    scales = _scales_from_peaks(peaks, qmax)
    codes = np.clip(np.round(w_mat / scales[:, None]), -qmax, qmax)
    if config.bits <= 8:
        codes = codes.astype(np.int8)
    else:
        codes = codes.astype(np.int32)
    recon = codes.astype(np.float64) * scales[:, None]
    row_norm = np.linalg.norm(w_mat, axis=1)
    row_err = np.linalg.norm(w_mat - recon, axis=1)
    rel = np.divide(row_err, row_norm, out=np.zeros_like(row_err), where=row_norm > 0)
    error = float(rel.max()) if rel.size else 0.0
    return codes, scales, error


def quantize_encoded_values(
    encoded, config: QuantizationConfig
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Quantize an SPM layer's non-zero sequences — never the dense tensor.

    ``encoded.values`` is ``(kernels, n)`` in ``(filter, channel)``
    row-major kernel order, so per-kernel granularity groups the
    ``C_in`` rows of each output filter (all scatter into the same GEMM
    column and therefore must share a scale). Returns
    ``(value_codes, scales, error)`` with ``value_codes`` shaped like
    ``encoded.values`` and ``scales`` of shape ``(C_out,)``.
    """
    c_out, c_in, _, _ = encoded.shape
    values = np.asarray(encoded.values, dtype=np.float64)
    per_filter = values.reshape(c_out, -1)
    codes_f, scales, error = quantize_weight_codes(per_filter, config)
    return codes_f.reshape(values.shape), scales, error


def quantize_activation_codes(
    x: np.ndarray, config: QuantizationConfig
) -> Tuple[np.ndarray, float]:
    """Dynamically quantize an activation array with one per-tensor scale."""
    peak = float(np.abs(x).max()) if x.size else 0.0
    scale = peak / config.qmax if peak > 0 else 1.0
    codes = np.clip(np.round(x / scale), -config.qmax, config.qmax)
    return codes, scale


def int8_gemm_int32(a_codes: np.ndarray, b_codes: np.ndarray) -> np.ndarray:
    """Exact integer-dtype reference GEMM: ``a_codes @ b_codes`` in int32.

    ``np.matmul`` on integer dtypes bypasses BLAS and loops in C — far
    too slow to serve with, which is exactly why the execution paths
    carry codes in float arrays instead. Tests use this to prove the
    float-carried accumulation is bit-identical to the int32 datapath.
    """
    return np.matmul(
        np.asarray(a_codes, dtype=np.int32), np.asarray(b_codes, dtype=np.int32)
    )


# ---------------------------------------------------------------------
# The int8 GEMM kernel registry
# ---------------------------------------------------------------------
#: Largest K block whose int8-product partial sums stay float32-exact:
#: |a*b| <= 127^2 = 16129 < 2^14, and 1024 * 16129 = 16_516_096 < 2^24,
#: so every block-partial is an exactly-represented float32 integer.
INT8_BLOCK_K = 1024

#: Column-buffer size above which the compiled int8 path switches from
#: one monolithic im2col + GEMM to image bands, fusing the requantize
#: epilogue into each band while its accumulator slice is cache-warm.
_INT8_BAND_BYTES = 16 << 20


def int8_gemm_int32_blocked(
    a_codes: np.ndarray,
    b_codes: Optional[np.ndarray],
    out: Optional[np.ndarray] = None,
    *,
    b_blocks: Optional[List[np.ndarray]] = None,
    partial: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Bit-exact int8 GEMM through K-blocked float32 BLAS.

    ``a_codes (N, K) @ b_codes (K, M)`` with int8-valued operands (any
    dtype holding exact int8 values — the compiled pipeline hands in
    float32 columns cast straight off the int8 activation buffers).
    Each K block of at most :data:`INT8_BLOCK_K` columns is contracted
    by sgemm — exact because every int8 product satisfies
    ``|a*b| <= 127^2 < 2^14``, so a block-partial stays below ``2^24``
    and float32 represents it exactly — and the block partials
    accumulate in a float64 output (53-bit exact for every realisable
    int8 conv). A single-block problem with a float32 ``out`` skips the
    staging entirely: one sgemm straight into the output.

    The keyword buffers let the compiled pipeline pre-bind workspace:
    ``b_blocks`` (the per-block float32 weight operands, replacing
    ``b_codes``) and ``partial`` (``(N, M)`` float32). Omitted buffers
    are allocated per call; the default ``out`` is float64 holding the
    exact int32 accumulator values (float so the requantizing epilogue
    folds scales in place without another cast).
    """
    a_codes = np.asarray(a_codes)
    n, k = a_codes.shape
    m = b_codes.shape[1] if b_blocks is None else b_blocks[0].shape[1]
    if out is None:
        out = np.empty((n, m), dtype=np.float64)
    if k == 0:
        out[...] = 0.0
        return out
    single = k <= INT8_BLOCK_K
    for i, k0 in enumerate(range(0, k, INT8_BLOCK_K)):
        k1 = min(k0 + INT8_BLOCK_K, k)
        if b_blocks is not None:
            b_blk = b_blocks[i]
        else:
            b_blk = np.ascontiguousarray(b_codes[k0:k1], dtype=np.float32)
        a_blk = a_codes[:, k0:k1]
        if a_blk.dtype != np.float32:
            a_blk = a_blk.astype(np.float32)
        if single and out.dtype == np.float32:
            np.matmul(a_blk, b_blk, out=out)
            return out
        if partial is None:
            partial = np.empty((n, m), dtype=np.float32)
        np.matmul(a_blk, b_blk, out=partial)
        if k0 == 0:
            out[...] = partial
        else:
            out += partial
    return out


_NUMBA_KERNEL: Optional[object] = None
_NUMBA_TRIED = False


def _numba_int8_kernel():
    """JIT-compile (once) the true-integer kernel, or None without numba."""
    global _NUMBA_KERNEL, _NUMBA_TRIED
    if _NUMBA_TRIED:
        return _NUMBA_KERNEL
    _NUMBA_TRIED = True
    try:
        import numba
    except ImportError:
        return None

    @numba.njit(cache=True)
    def _kernel(a, b, out):  # pragma: no cover - compiled
        n, k = a.shape
        m = b.shape[1]
        for i in range(n):
            for j in range(m):
                out[i, j] = 0.0
            for p in range(k):
                av = np.int32(a[i, p])
                if av != 0:
                    for j in range(m):
                        out[i, j] += av * np.int32(b[p, j])
        return out

    _NUMBA_KERNEL = _kernel
    return _NUMBA_KERNEL


def int8_gemm_int32_numba(
    a_codes: np.ndarray, b_codes: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """True int8 x int8 -> wide-accumulator GEMM (requires numba)."""
    kernel = _numba_int8_kernel()
    if kernel is None:  # registry guards against this; belt and braces
        return int8_gemm_int32_blocked(a_codes, b_codes, out)
    a_codes = np.ascontiguousarray(a_codes, dtype=np.int8)
    b_codes = np.ascontiguousarray(b_codes, dtype=np.int8)
    if out is None:
        out = np.empty((a_codes.shape[0], b_codes.shape[1]), dtype=np.float64)
    return kernel(a_codes, b_codes, out)


def available_int8_kernels() -> Tuple[str, ...]:
    """Registered kernel names, fastest-preferred order."""
    names: List[str] = []
    if _numba_int8_kernel() is not None:
        names.append("numba")
    names.extend(["blocked", "reference"])
    return tuple(names)


def get_int8_kernel(name: Optional[str] = None) -> str:
    """Resolve an int8 kernel request to a concrete registered name.

    ``None``/``"auto"`` picks the fastest available kernel (numba when
    importable, else blocked). A ``"numba"`` request without numba
    degrades gracefully to ``"blocked"`` — quantized serving must never
    fail because an optional dependency is missing. The
    ``REPRO_INT8_KERNEL`` environment variable, when set, wins over
    ``name`` (the runtime escape hatch); unknown explicit names raise.
    """
    import os

    env = os.environ.get("REPRO_INT8_KERNEL", "").strip().lower()
    if env:
        name = env
    if name in (None, "", "auto"):
        return available_int8_kernels()[0]
    if name == "numba" and _numba_int8_kernel() is None:
        return "blocked"
    if name not in ("blocked", "numba", "reference", "float"):
        raise ValueError(
            f"unknown int8 kernel {name!r} "
            f"(try 'auto', 'blocked', 'numba', 'reference' or 'float')"
        )
    return name


# ---------------------------------------------------------------------
# Eager engine backend
# ---------------------------------------------------------------------
class QuantizedBackend:
    """Engine backend running convs as GEMMs on int8 codes (``"quant"``).

    The zero-setup int8 path: weights (dense or SPM-decoded) are
    quantized on every call with the configured granularity, the
    activation batch is quantized dynamically with one per-tensor scale,
    and the GEMM multiplies the two integer-code matrices with the scale
    product folded back per output column afterwards — the epilogue
    (bias/ReLU) then applies in float exactly like every other backend,
    so outputs are drop-in comparable. Never auto-selected
    (:func:`~repro.runtime.engine.select_backend` ignores it): per-call
    weight quantization is reference-grade, not serving-grade — serving
    uses ``compile_model(quantize=...)``, which quantizes once at
    compile time.
    """

    name = "quant"

    def __init__(self, config: Optional[QuantizationConfig] = None) -> None:
        self.config = config or QuantizationConfig()

    def supports(self, request) -> bool:
        """Any dense-weight or SPM-encoded request can run quantized."""
        return request.weight is not None or request.encoded is not None

    def execute(
        self,
        request,
        plan: ExecutionPlan,
        workspace: Optional[dict] = None,
        epilogue: Optional[Epilogue] = None,
    ) -> np.ndarray:
        """Quantize operands, run the code GEMM, fold scales, epilogue."""
        from ..nn.functional import im2col

        config = self.config
        if request.weight is not None:
            weight = request.weight
        else:
            weight = request.encoded.decoded_weight()
        w_mat = weight.reshape(plan.out_channels, -1)
        w_codes, w_scales, _ = quantize_weight_codes(w_mat, config)
        x_codes, a_scale = quantize_activation_codes(request.x, config)
        cols, _ = im2col(x_codes, plan.kernel, plan.stride, plan.padding)
        # Integer codes carried in float64: BLAS dgemm accumulates every
        # realisable int8 conv exactly (products < 2^15, sums < 2^53).
        out = cols @ w_codes.T.astype(np.float64)
        out *= w_scales[None, :] * a_scale
        if epilogue is not None:
            epilogue.apply(out)
        return out


# ---------------------------------------------------------------------
# Compiled-pipeline ops
# ---------------------------------------------------------------------
@dataclass
class QuantizeOp(_InferenceOp):
    """Float activations -> int8 codes at a quantized-region entry.

    With ``int8=True`` (every kernel except ``"float"``) the emitted
    array is a real ``int8`` buffer — downstream convs then move
    one-byte activation codes through their pad/column buffers instead
    of four-byte float stand-ins.
    """

    scale: float
    qmax: int
    tag: str
    int8: bool = False

    domain_out = "codes"

    def run(self, x, state, backend):
        """Scale, round and clip the activation into code space."""
        out = state.arena.take(f"{self.tag}:out", x.shape, x.dtype)
        np.multiply(x, 1.0 / self.scale, out=out)
        np.clip(out, -self.qmax, self.qmax, out=out)
        if not self.int8:
            np.rint(out, out=out)
            return out
        codes = state.arena.take(f"{self.tag}:q8", x.shape, np.int8)
        # Fused final pass: round in float, cast on store (clip keeps
        # the values in int8 range, so the unsafe cast is exact).
        np.rint(out, out=codes, casting="unsafe")
        return codes

    def describe(self) -> str:
        """Human-readable op label for ``CompiledModel.describe``."""
        dest = "->int8" if self.int8 else ""
        return f"quantize(x{1.0 / self.scale:.3g}){dest}"


@dataclass
class DequantizeOp(_InferenceOp):
    """Int8 codes -> float activations at a quantized-region exit."""

    scale: float
    tag: str
    dtype: Optional[object] = None  # float carry dtype; None -> infer

    domain_out = "float"

    def run(self, x, state, backend):
        """Multiply codes by their scale, back into float activations."""
        if self.dtype is not None:
            out_dtype = np.dtype(self.dtype)
        elif x.dtype.kind == "f":
            out_dtype = x.dtype
        else:  # int8-carried codes with no recorded carry dtype
            out_dtype = np.dtype(np.float32)
        out = state.arena.take(f"{self.tag}:out", x.shape, out_dtype)
        np.multiply(x, self.scale, out=out)
        return out

    def describe(self) -> str:
        """Human-readable op label for ``CompiledModel.describe``."""
        return f"dequantize(x{self.scale:.3g})"


@dataclass
class QuantConvOp(ConvOp):
    """Channels-last convolution executed on int8 codes.

    Subclasses :class:`~repro.runtime.compile.ConvOp` for its geometry
    plumbing (plan lookup, slab sizing, padded-input reuse, halo
    linking) and replaces the arithmetic: ``weight_t`` holds integer
    weight codes (float-carried, bias folded in as an appended code-space
    row against the column buffer's ones column), inputs are activation
    codes at ``in_scale``, and the epilogue folds
    ``w_scale * in_scale`` back per output column. With ``out_scale``
    set the epilogue *requantizes* — rounds straight into the consumer's
    code space, the clip's lower bound doubling as the fused ReLU — so
    a chain of quantized convs never touches float activations; with
    ``out_scale=None`` it dequantizes to float (region exit).

    The int8 artifact (``codes_int8``, per-filter ``w_scale``, and for
    SPM layers only the non-zero sequence codes) is what the op *owns*;
    the float-carried GEMM operand is derived working state.
    """

    w_scale: Optional[np.ndarray] = None  # (1, C_out) float
    in_scale: float = 1.0
    out_scale: Optional[float] = None  # None -> dequantize epilogue
    qmax: int = 127
    codes_int8: Optional[np.ndarray] = None  # storage-format weight codes
    bias_q: Optional[np.ndarray] = None  # (1, C_out) bias in code space
    int8_kernel: Optional[str] = None  # dense GEMM kernel; None -> float-carried
    emit_int8: bool = False  # requantize straight into real int8 buffers
    _mult_cache: Optional[np.ndarray] = field(default=None, repr=False)
    _w_q8: Optional[np.ndarray] = field(default=None, repr=False)
    _w_blocks: Optional[List[np.ndarray]] = field(default=None, repr=False)
    _w_spans: Optional[List[Tuple[int, int]]] = field(default=None, repr=False)
    _bias_folded: Optional[bool] = field(default=None, repr=False)

    @property
    def domain_out(self) -> str:
        """Edge domain this conv produces: codes while requantizing."""
        return "codes" if self.out_scale is not None else "float"

    def param_nbytes(self) -> int:
        """The int8 artifact *plus* the float-carried GEMM operand.

        ``weight_t`` is built by quantization, not by :meth:`prepare` —
        it cannot be rebuilt from ``self.weight`` (None here) — so it
        counts as an owned parameter, never as reclaimable derived
        state."""
        total = _arr_nbytes(
            self.weight, self.bias, self.weight_t,
            self.codes_int8, self.w_scale, self.bias_q,
        )
        if self.encoded is not None:
            total += self.encoded.nbytes
        return total

    def derived_nbytes(self) -> int:
        total = _arr_nbytes(self._mult_cache, self._w_q8)
        if self._w_blocks is not None:
            total += sum(blk.nbytes for blk in self._w_blocks)
        if self.encoded is not None:
            total += self.encoded.cached_nbytes
        return total

    def release_derived(self) -> int:
        """Drop only the rebuildable state (multiplier cache, the int8
        kernel's prepared GEMM operands, and the encoded layer's
        memoized gather/grouped matrices); the int8 artifact stays —
        see :meth:`param_nbytes`."""
        freed = self.derived_nbytes()
        self._mult_cache = None
        self._w_q8 = None
        self._w_blocks = None
        self._w_spans = None
        self._bias_folded = None
        if self.encoded is not None:
            self.encoded.invalidate_caches()
        return freed

    def _multiplier(self, dtype) -> np.ndarray:
        """Per-column scale folding the int32-style accumulator back."""
        mult = self._mult_cache
        if mult is not None and mult.dtype == dtype:
            return mult
        with self._derive_lock:
            if self._mult_cache is None or self._mult_cache.dtype != dtype:
                mult = self.w_scale * self.in_scale
                if self.out_scale is not None:
                    mult = mult / self.out_scale
                self._mult_cache = mult.astype(dtype)
            return self._mult_cache

    def _fold_and_clip(self, mat: np.ndarray) -> None:
        """Fold scales in place; clip into code space when requantizing.

        Clip-then-round equals round-then-clip here because the clip
        bounds are integers, so callers can run the final rounding pass
        separately — straight into a hand-off destination if they have
        one. The clip's lower bound doubles as the fused ReLU.
        """
        mat *= self._multiplier(mat.dtype)
        if self.out_scale is not None:
            np.clip(mat, 0.0 if self.relu else -self.qmax, self.qmax, out=mat)

    def _requant(self, mat: np.ndarray) -> np.ndarray:
        """Slab-path epilogue: fold scales, then round (or ReLU) in place."""
        self._fold_and_clip(mat)
        if self.out_scale is not None:
            np.rint(mat, out=mat)
        elif self.relu:
            np.maximum(mat, 0.0, out=mat)
        return mat

    def _emits_int8(self) -> bool:
        """Whether this conv's requantizing epilogue writes real int8."""
        return self.emit_int8 and self.out_scale is not None

    def _finish(self, out4: np.ndarray, arena: Arena) -> np.ndarray:
        """Monolithic-path epilogue: requantize + consumer hand-off.

        Same arithmetic as :meth:`_requant`, but with a halo consumer
        the final pass (rounding, or the dequant ReLU) writes directly
        into the consumer's padded-buffer interior, so the hand-off
        costs no extra copy. When the pipeline carries int8 codes the
        destination (halo interior or this op's own code buffer) is a
        real int8 array; the rounded accumulator casts into it exactly,
        because requantized values are integers within [-qmax, qmax].
        """
        int8_out = self._emits_int8()
        carry = (
            self.weight_t.dtype
            if self.weight_t is not None
            else self.encoded.values.dtype
        )
        dest_dtype = np.dtype(np.int8) if int8_out else np.dtype(carry)
        interior = None
        if self.halo is not None:
            consumer_tag, p = self.halo
            n, oh, ow, c = out4.shape
            buffer = arena.take_filled(
                f"{consumer_tag}:pad", (n, oh + 2 * p, ow + 2 * p, c), dest_dtype, 0.0
            )
            interior = buffer[:, p : p + oh, p : p + ow, :]
        self._fold_and_clip(out4)
        if self.out_scale is not None:
            if not int8_out:
                dest = interior if interior is not None else out4
                np.rint(out4, out=dest)
                return dest
            if interior is None:
                interior = arena.take(f"{self.tag}:q8", out4.shape, np.int8)
            # One fused pass: the ufunc rounds in float and casts each
            # element into the int8 destination on store (the clip above
            # guarantees the values are in range, so the unsafe cast is
            # exact).
            np.rint(out4, out=interior, casting="unsafe")
            return interior
        if interior is not None:
            if self.relu:
                np.maximum(out4, 0.0, out=interior)
            else:
                np.copyto(interior, out4)
            return interior
        if out4.dtype != dest_dtype:  # int8 kernel's f64 accumulator at a
            # region exit: hand back activations in the pipeline's carry
            # dtype rather than leaking float64 into the float tail.
            outf = arena.take(f"{self.tag}:outf", out4.shape, dest_dtype)
            if self.relu:
                np.maximum(out4, 0.0, out=outf)
            else:
                np.copyto(outf, out4)
            return outf
        if self.relu:
            np.maximum(out4, 0.0, out=out4)
        return out4

    def run(self, x, state, backend):
        """Execute on activation codes (no engine backend overrides —
        the quantized lowering is the backend)."""
        if backend or self.backend:
            raise ValueError(
                "quantized compiled pipelines do not support conv backend "
                "overrides; compile without quantize= to force a backend"
            )
        if self.use_gather:
            return self._run_gather_q(x, state)
        if self.int8_kernel:
            thunk = self._int8_thunk(x, state)
            if thunk is not None:
                return thunk(x)
        return self._run_dense_q(x, state)

    def make_thunk(self, x, state):
        """Trace-executor closure; the int8 kernel path binds its own."""
        if self.use_gather:
            return None  # generic dispatch wraps _run_gather_q
        if self.int8_kernel:
            return self._int8_thunk(x, state)
        return super().make_thunk(x, state)

    # -- true-integer dense path --------------------------------------
    def _int8_operands(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Derived GEMM operands for the int8 kernels (rebuildable from
        the owned artifact, so they count as derived state).

        Builds the ``(K, C_out)`` int8 weight matrix, then sizes the
        K spans by the *value-aware* exactness certificate: activations
        are clipped to ``[-qmax, qmax]``, so every partial sum inside a
        span is bounded by ``qmax * max_j sum_i |w_ij|`` over the span's
        actual weight codes — the span may grow until that bound (plus
        the folded bias code, which joins the same accumulation) reaches
        float32's exact-integer range. In practice this collapses most
        layers to a single span, which accumulates in float32 with no
        staging at all; the worst-case ``INT8_BLOCK_K`` bound is only
        the certificate's floor. With the blocked kernel the integer
        bias codes fold into the last span's operand as an extra row
        against the column buffer's ones column, so bias costs no
        separate pass over the accumulator.
        """
        with self._derive_lock:
            return self._build_int8_operands()

    def _build_int8_operands(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        if self._w_q8 is None:
            k = self.kernel[0] * self.kernel[1] * self.c_in
            if self.weight_t is not None:
                w = self.weight_t[: self.weight_t.shape[0] - self.bias_rows]
            else:  # decoded SPM codes never materialised a float operand
                w = self._decoded_weight_t()[:k]
            self._w_q8 = np.ascontiguousarray(np.rint(w), dtype=np.int8)
        if self._w_blocks is None:
            w = self._w_q8
            k = w.shape[0]
            limit = float(2**24 - 1)
            qmax = float(self.qmax)
            head = 0.0
            folding = self.int8_kernel == "blocked" and self.bias_q is not None
            if folding:
                head = float(np.max(np.abs(self.bias_q)))
                if qmax * 127.0 + head > limit:  # bias codes too large to
                    folding = False  # join the exact accumulation
                    head = 0.0
            # cum[i] = per-channel L1 of the first i weight rows.
            cum = np.zeros((k + 1, w.shape[1]), dtype=np.int64)
            np.cumsum(np.abs(w.astype(np.int64)), axis=0, out=cum[1:])
            spans: List[Tuple[int, int]] = []
            start = 0
            while start < k:
                lo, hi, best = start + 1, k, start + 1
                while lo <= hi:
                    mid = (lo + hi) // 2
                    bound = qmax * float((cum[mid] - cum[start]).max()) + head
                    if bound <= limit:
                        best, lo = mid, mid + 1
                    else:
                        hi = mid - 1
                spans.append((start, best))
                start = best
            blocks = []
            for i, (k0, k1) in enumerate(spans):
                blk = np.ascontiguousarray(w[k0:k1], dtype=np.float32)
                if folding and i == len(spans) - 1:
                    blk = np.ascontiguousarray(
                        np.vstack([blk, self.bias_q.astype(np.float32)])
                    )
                blocks.append(blk)
            self._w_blocks = blocks
            self._w_spans = spans
            self._bias_folded = folding
        return self._w_q8, self._w_blocks

    def _int8_thunk(self, x, state):
        """Prebound int8-kernel executor for ``x``'s geometry.

        The activation hand-off stays int8 (one-byte pad buffers, pool
        and ReLU traffic); the registry kernel's GEMM accumulates exact
        int32 values in float, code-space bias adds post-accumulation,
        then :meth:`_finish` requantizes into the consumer's int8
        buffer. The blocked kernel reads float32 columns cast straight
        off the int8 buffers by the im2col strided copy — no separate
        staging pass — and a single-K-block problem (``K <= 1024``, the
        large-spatial layers) accumulates in float32, exact by the same
        ``2^24`` bound. One closure serves both :meth:`run` (built and
        invoked per call) and the trace executor (recorded once,
        replayed). When the float32 columns outgrow the slab budget the
        blocked kernel row-bands the im2col + GEMM over the same int8
        pad buffer instead of abandoning the integer path; only the
        numba/reference kernels (whose columns must stay int8) fall
        back to generic dispatch on slab-looped geometries.
        """
        from ..nn.functional import im2col_nhwc

        arena = state.arena
        plan = self._plan(x, state)
        n = plan.batch
        kh, kw = self.kernel
        oh, ow = plan.out_hw
        k = kh * kw * self.c_in
        kernel_name = self.int8_kernel
        blocked = kernel_name == "blocked"
        cols_dtype = np.dtype(np.float32) if blocked else np.dtype(np.int8)
        rows = self._slab_rows(plan, n * ow * k, cols_dtype.itemsize)
        if rows < oh and not blocked:
            return None
        w_q8, w_blocks = self._int8_operands()
        spans = self._w_spans
        folded = blocked and bool(self._bias_folded)
        extra = 1 if folded else 0  # the ones column driving the bias row
        single = blocked and len(spans) == 1
        acc_dtype = np.float32 if single else np.float64
        acc = arena.take(f"{self.tag}:acc", (n * oh * ow, self.c_out), acc_dtype)
        acc4 = acc.reshape(n, oh, ow, self.c_out)
        kernel, stride = self.kernel, self.stride
        c_out = self.c_out
        last = len(spans) - 1

        def span_gemm(a_cols, out_mat, partial_mat):
            for i, (k0, k1) in enumerate(spans):
                a_blk = a_cols[:, k0 : k1 + extra] if i == last else a_cols[:, k0:k1]
                np.matmul(a_blk, w_blocks[i], out=partial_mat)
                if i == 0:
                    out_mat[...] = partial_mat
                else:
                    out_mat += partial_mat

        cols_bytes = n * oh * ow * (k + extra) * cols_dtype.itemsize
        fused = None
        if blocked and n > 1 and cols_bytes > _INT8_BAND_BYTES:
            # Image-banded blocked path: im2col + GEMM run per batch
            # sub-range sized to keep the band's working set cache-warm
            # (and inside the slab budget). An image band's accumulator
            # rows are contiguous, so each band GEMM writes straight
            # into the accumulator — no tile copy. When this conv
            # requantizes, the epilogue (scale fold, clip, fused
            # round-and-cast into the consumer's int8 buffer) runs per
            # band too, while the band's accumulator is still hot.
            from .compile import SLAB_BYTES

            budget_bytes = SLAB_BYTES if self.slab_bytes is None else self.slab_bytes
            budget = min(budget_bytes, _INT8_BAND_BYTES) // 4
            imgs = max(1, budget // (oh * ow * (k + extra)))
            imgs = -(-n // (-(-n // imgs)))  # balance the band sizes
            band_cols = arena.take_filled(
                f"{self.tag}:cols", (imgs * oh * ow, k + extra), np.float32, 1.0
            )
            partial = (
                None
                if single
                else arena.take(f"{self.tag}:pp", (imgs * oh * ow, c_out), np.float32)
            )
            finish_band = None
            if self._emits_int8() and (self.bias_q is None or folded):
                if self.halo is not None:
                    consumer_tag, hp = self.halo
                    halo_buf = arena.take_filled(
                        f"{consumer_tag}:pad",
                        (n, oh + 2 * hp, ow + 2 * hp, c_out),
                        np.int8,
                        0.0,
                    )
                    dest4 = halo_buf[:, hp : hp + oh, hp : hp + ow, :]
                else:
                    dest4 = arena.take(f"{self.tag}:q8", (n, oh, ow, c_out), np.int8)
                mult = self._multiplier(acc.dtype)
                lo = 0.0 if self.relu else float(-self.qmax)
                hi = float(self.qmax)

                def finish_band(i0, i1):
                    band = acc4[i0:i1]
                    np.multiply(band, mult, out=band)
                    np.clip(band, lo, hi, out=band)
                    np.rint(band, out=dest4[i0:i1], casting="unsafe")

                fused = dest4

            def compute(src):
                for i0 in range(0, n, imgs):
                    i1 = min(i0 + imgs, n)
                    bc = band_cols[: (i1 - i0) * oh * ow]
                    im2col_nhwc(src[i0:i1], kernel, stride, out=bc[:, :k])
                    band_acc = acc[i0 * oh * ow : i1 * oh * ow]
                    if single:
                        np.matmul(bc, w_blocks[0], out=band_acc)
                    else:
                        span_gemm(bc, band_acc, partial[: len(bc)])
                    if finish_band is not None:
                        finish_band(i0, i1)

        elif rows < oh:
            # Single-image fallback: row bands through a band tile.
            band_cols = arena.take_filled(
                f"{self.tag}:cols", (n * rows * ow, k + extra), np.float32, 1.0
            )
            tile = arena.take(f"{self.tag}:tile", (n * rows * ow, c_out), acc_dtype)
            partial = (
                None
                if single
                else arena.take(f"{self.tag}:pp", (n * rows * ow, c_out), np.float32)
            )

            def compute(src):
                for r0 in range(0, oh, rows):
                    r1 = min(r0 + rows, oh)
                    src_band = src[:, r0 * stride : (r1 - 1) * stride + kh, :, :]
                    bc = band_cols[: n * (r1 - r0) * ow]
                    im2col_nhwc(src_band, kernel, stride, out=bc[:, :k])
                    bt = tile[: len(bc)]
                    if single:
                        np.matmul(bc, w_blocks[0], out=bt)
                    else:
                        span_gemm(bc, bt, partial[: len(bc)])
                    acc4[:, r0:r1] = bt.reshape(n, r1 - r0, ow, c_out)

        else:
            cols = arena.take_filled(
                f"{self.tag}:cols", (n * oh * ow, k + extra), cols_dtype, 1.0
            )
            cols_k = cols[:, :k]
            if blocked:
                if single:

                    def gemm():
                        np.matmul(cols, w_blocks[0], out=acc)

                else:
                    partial = arena.take(
                        f"{self.tag}:pp", (n * oh * ow, c_out), np.float32
                    )

                    def gemm():
                        span_gemm(cols, acc, partial)

            elif kernel_name == "numba":

                def gemm():
                    int8_gemm_int32_numba(cols, w_q8, acc)

            else:  # "reference": exact integer dtypes, reference-grade speed

                def gemm():
                    acc[...] = int8_gemm_int32(cols, w_q8)

            def compute(src):
                im2col_nhwc(src, kernel, stride, out=cols_k)
                gemm()

        bias = None if folded else self.bias_q
        p = self.padding
        if p > 0:
            h, w = x.shape[1], x.shape[2]
            pad = arena.take_filled(
                f"{self.tag}:pad", (n, h + 2 * p, w + 2 * p, self.c_in), np.int8, 0.0
            )
            interior = pad[:, p : p + h, p : p + w, :]

            if fused is not None:

                def thunk(x_in):
                    if x_in.base is not pad:
                        interior[...] = x_in
                    compute(pad)
                    return fused

            else:

                def thunk(x_in):
                    if x_in.base is not pad:
                        interior[...] = x_in
                    compute(pad)
                    if bias is not None:
                        np.add(acc, bias, out=acc)
                    return self._finish(acc4, arena)

        elif fused is not None:

            def thunk(x_in):
                compute(x_in)
                return fused

        else:

            def thunk(x_in):
                compute(x_in)
                if bias is not None:
                    np.add(acc, bias, out=acc)
                return self._finish(acc4, arena)

        return thunk

    def _run_dense_q(self, x, state):
        from ..nn.functional import im2col_nhwc

        arena = state.arena
        plan = self._plan(x, state)
        n = plan.batch
        kh, kw = self.kernel
        oh, ow = plan.out_hw
        k = kh * kw * self.c_in
        gemm_dtype = np.result_type(x.dtype, self.weight_t.dtype)
        xp = self._padded_input(x, arena)
        out = arena.take(f"{self.tag}:out", (n, oh, ow, self.c_out), gemm_dtype)
        rows = self._slab_rows(plan, n * ow * (k + self.bias_rows), x.dtype.itemsize)
        if rows >= oh:
            cols = arena.take_filled(
                f"{self.tag}:cols", (n * oh * ow, k + self.bias_rows), x.dtype, 1.0
            )
            im2col_nhwc(xp, self.kernel, self.stride, out=cols[:, :k])
            out_mat = out.reshape(n * oh * ow, self.c_out)
            np.matmul(cols, self.weight_t, out=out_mat)
            if self.bias_q is not None and not self.bias_rows:
                np.add(out_mat, self.bias_q, out=out_mat)
            return self._finish(out, arena)
        q_out = None
        if self._emits_int8():  # slab epilogue hands off integer codes
            q_out = arena.take(f"{self.tag}:q8", out.shape, np.int8)
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
            np.matmul(cols, self.weight_t, out=tile)
            if self.bias_q is not None and not self.bias_rows:
                np.add(tile, self.bias_q, out=tile)
            self._requant(tile)
            dest = out if q_out is None else q_out
            dest[:, r0:r1] = tile.reshape(n, r1 - r0, ow, self.c_out)
        return out if q_out is None else q_out

    def _run_gather_q(self, x, state):
        from ..nn.functional import im2col_nhwc

        arena = state.arena
        plan = self._plan(x, state)
        n = plan.batch
        kh, kw = self.kernel
        k2 = kh * kw
        oh, ow = plan.out_hw
        # self.encoded carries the CODE values, so the memoized gather
        # plan / grouped matrix machinery serves the int8 path untouched.
        gather = self.encoded.gather_plan()
        grouped = self.encoded.grouped_weight_matrix()
        gemm_dtype = np.result_type(x.dtype, grouped.dtype)
        if gemm_dtype.kind != "f":  # int8-carried codes meet float grouped ops
            gemm_dtype = np.dtype(grouped.dtype)
        xp = self._padded_input(x, arena)
        out_dtype = np.dtype(np.int8) if self._emits_int8() else gemm_dtype
        out = arena.take(f"{self.tag}:out", (n, oh, ow, self.c_out), out_dtype)
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
            cols_r = cols.reshape(-1, k2, self.c_in)
            gathered = cols_r[:, gather.positions_by_code, :]
            a_mat = gathered.transpose(0, 1, 3, 2).reshape(len(cols_r), -1)
            if a_mat.dtype != gemm_dtype:
                a_mat = a_mat.astype(gemm_dtype)
            tile = a_mat @ grouped
            if self.bias_q is not None:
                tile += self.bias_q.astype(tile.dtype, copy=False)
            self._requant(tile)
            out[:, r0:r1] = tile.reshape(n, r1 - r0, ow, self.c_out)
        return out

    def describe(self) -> str:
        """Human-readable op label, e.g. ``qconv[blocked]+bias+relu->int8``."""
        kind = "spm-qconv" if self.encoded is not None else "qconv"
        if self.int8_kernel:
            kind += f"[{self.int8_kernel}]"
        dest = "float" if self.out_scale is None else f"int{_bits_of(self.qmax)}"
        fused = []
        if self.bias_rows or self.bias_q is not None:
            fused.append("bias")
        if self.relu:
            fused.append("relu")
        return f"{kind}" + (f"+{'+'.join(fused)}" if fused else "") + f"->{dest}"

    def schedule_kind(self) -> str:
        """Per-layer schedule annotation, suffixed with the GEMM datapath:
        ``+int8:<kernel>`` for the true-integer kernels, ``+int8:float``
        for float-carried codes."""
        base = super().schedule_kind()
        return f"{base}+int8:{self.int8_kernel or 'float'}"


def _bits_of(qmax: int) -> int:
    """Bit width whose symmetric signed range ends at ``qmax``."""
    return int(qmax + 1).bit_length()


# ---------------------------------------------------------------------
# The compile-time quantization pass
# ---------------------------------------------------------------------
@dataclass
class QuantizationReport:
    """What the quantization pass did to one compiled pipeline."""

    bits: int
    granularity: str
    mode: str
    error_threshold: float
    int8_kernel: str = "float"  # resolved GEMM kernel serving dense convs
    layers: List[dict] = field(default_factory=list)

    @property
    def quantized_layers(self) -> int:
        """How many convs execute on int8 codes."""
        return sum(1 for row in self.layers if row["quantized"])

    @property
    def fallback_layers(self) -> int:
        """How many convs stayed float (error threshold or policy)."""
        return sum(1 for row in self.layers if not row["quantized"])

    def describe(self) -> str:
        """One line per conv: quantized or why not."""
        lines = [
            f"int{self.bits} {self.granularity} ({self.mode}, "
            f"kernel={self.int8_kernel}), "
            f"{self.quantized_layers} quantized / {self.fallback_layers} float"
        ]
        for row in self.layers:
            status = "int8" if row["quantized"] else f"float ({row['reason']})"
            lines.append(f"  {row['tag']}: {status}, w_err={row['error']:.4f}")
        return "\n".join(lines)


#: Ops that commute with a positive per-tensor activation scale, so int8
#: codes flow through them unchanged: max-pool (max of codes is the code
#: of the max) and ReLU (clipping codes at zero).
_SCALE_TRANSPARENT = (MaxPoolOp, ReluOp)


def _calibrate_edges(
    ops: List[_InferenceOp], x: np.ndarray, dtype
) -> List[float]:
    """Run one float forward, recording each inter-op edge's |x| peak.

    ``edge[i]`` is the absolute peak of the activation flowing *into*
    ``ops[i]`` (so a conv at position ``i`` reads its input range at
    ``edge[i]`` and its output range at ``edge[i + 1]``).
    """
    state = _ExecState(arena=Arena(), plans=PlanCache())
    if dtype is not None and x.dtype != np.dtype(dtype):
        x = x.astype(dtype)
    edges: List[float] = []
    cur = x
    for op in ops:
        edges.append(float(np.abs(cur).max()) if cur.size else 0.0)
        cur = op.run(cur, state, None)
    edges.append(float(np.abs(cur).max()) if cur.size else 0.0)
    return edges


@dataclass
class _LayerQuant:
    """One conv's eligibility verdict plus its (reused) weight codes."""

    ok: bool
    reason: str
    error: float
    codes: Optional[np.ndarray] = None  # weight or SPM-value codes
    scales: Optional[np.ndarray] = None  # (C_out,)


def _assess(op: _InferenceOp, config: QuantizationConfig) -> _LayerQuant:
    """Quantize a conv's weights once: eligibility verdict + the codes.

    The codes/scales computed for the error check are the same ones the
    lowering needs, so they ride along instead of being recomputed.
    """
    if not isinstance(op, ConvOp) or isinstance(op, QuantConvOp):
        return _LayerQuant(False, "not a conv", 0.0)
    if op.backend is not None:
        return _LayerQuant(False, "forced backend", 0.0)
    op.prepare()  # codes quantize from the (folded, cast) GEMM operand
    if op.encoded is not None:
        codes, scales, error = quantize_encoded_values(op.encoded, config)
    else:
        k = op.weight_t.shape[0] - op.bias_rows
        codes, scales, error = quantize_weight_codes(op.weight_t[:k].T, config)
    if error > config.error_threshold:
        return _LayerQuant(
            False, f"weight error {error:.4f} > {config.error_threshold}", error
        )
    return _LayerQuant(True, "", error, codes=codes, scales=scales)


def _quantize_conv(
    op: ConvOp,
    config: QuantizationConfig,
    quant: _LayerQuant,
    in_scale: float,
    out_scale: Optional[float],
    dtype,
    kernel: Optional[str] = None,
) -> QuantConvOp:
    """Build the :class:`QuantConvOp` replacing a float :class:`ConvOp`.

    ``quant`` carries the weight codes/scales already computed by
    :func:`_assess`, so the weights are quantized exactly once.
    ``kernel`` is the resolved int8 GEMM kernel name (None for the
    float-carried datapath); with a true-integer kernel the bias never
    rides the GEMM operand (it is not an int8 code) — it is applied in
    code space after the integer accumulation instead. The winograd
    marker is deliberately *not* carried over from the float conv: the
    F(m,3) transforms produce non-integer intermediates, which would
    void the int8 path's exact-integer-accumulation contract.
    """
    carry = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
    int8_dense = kernel is not None and not op.use_gather
    scales = quant.scales
    if op.encoded is not None:
        from ..core.spm import EncodedLayer

        value_codes = quant.codes
        # Re-wrap the CODES as an EncodedLayer: the memoized gather plan
        # and grouped/decoded matrices then serve the int8 path, and the
        # dense float weight tensor is never materialised.
        q_encoded = EncodedLayer(
            codes=op.encoded.codes,
            values=value_codes.astype(carry),
            codebook=op.encoded.codebook,
            shape=op.encoded.shape,
        )
        bias = op.epilogue.bias
        if op.use_gather:
            weight_t = None
            bias_rows = 0
            bias_q = None
            if bias is not None:
                bias_q = (bias / (scales * in_scale)).astype(carry)[None, :]
            codes_store = value_codes.astype(np.int8 if config.bits <= 8 else np.int32)
        else:
            decoded_codes = (
                q_encoded.decoded_weight()
                .transpose(0, 2, 3, 1)
                .reshape(op.c_out, -1)
                .T
            )
            weight_t = np.ascontiguousarray(decoded_codes, dtype=carry)
            bias_rows = 0
            bias_q = None
            if bias is not None:
                row = (bias / (scales * in_scale)).astype(carry)[None, :]
                if int8_dense:
                    bias_q = np.rint(row)  # integer accumulator codes
                else:
                    weight_t = np.ascontiguousarray(np.vstack([weight_t, row]))
                    bias_rows = 1
            codes_store = None  # SPM artifact is the value codes on q_encoded
        encoded = q_encoded
    else:
        codes = quant.codes
        weight_t = np.ascontiguousarray(codes.T, dtype=carry)
        bias_rows = 0
        bias_q = None
        bias = op.epilogue.bias
        if bias is not None:
            # Bias rides in the GEMM as a code-space row (real bias
            # divided by the column's fold-back scale) against the
            # column buffer's ones column, exactly like the float path —
            # unless a true-integer kernel runs the GEMM, in which case
            # it is rounded to integer accumulator codes (the classic
            # int32-bias of integer inference) so it can fold into the
            # exact integer accumulation.
            row = (bias / (scales * in_scale)).astype(carry)[None, :]
            if int8_dense:
                bias_q = np.rint(row)
            else:
                weight_t = np.ascontiguousarray(np.vstack([weight_t, row]))
                bias_rows = 1
        encoded = None
        codes_store = codes
    return QuantConvOp(
        weight_t=weight_t,
        bias_rows=bias_rows,
        encoded=encoded,
        use_gather=op.use_gather,
        slab_bytes=op.slab_bytes,
        schedule=op.schedule,
        epilogue=op.epilogue,
        relu=op.relu,
        stride=op.stride,
        padding=op.padding,
        backend=None,
        kernel=op.kernel,
        c_in=op.c_in,
        c_out=op.c_out,
        tag=op.tag,
        dtype=op.dtype,
        _prepared=True,  # the int8 operands above ARE the derived state
        w_scale=np.asarray(scales, dtype=np.float64)[None, :],
        in_scale=in_scale,
        out_scale=out_scale,
        qmax=config.qmax,
        codes_int8=codes_store,
        bias_q=bias_q,
        int8_kernel=kernel if int8_dense else None,
        emit_int8=kernel is not None,
    )


def quantize_pipeline(
    ops: List[_InferenceOp],
    dtype,
    calibration: np.ndarray,
    config: QuantizationConfig,
) -> Tuple[List[_InferenceOp], QuantizationReport]:
    """Rewrite a lowered float op list into its int8 execution form.

    Runs the calibration batch through the float ops once to record
    per-edge activation peaks, then walks the top-level op list tracking
    the activation domain (float vs codes): eligible convs become
    :class:`QuantConvOp` (requantizing straight to the next conv's code
    space in ``"requantize"`` mode), scale-transparent ops (max-pool,
    ReLU) pass codes through unchanged, and everything else — linears,
    average pools, residual blocks, module fallbacks, error-threshold
    fallbacks — gets :class:`QuantizeOp`/:class:`DequantizeOp`
    boundaries inserted around it. Returns the new op list and a
    :class:`QuantizationReport`.
    """
    calibration = np.asarray(calibration)
    if calibration.ndim != 4 or calibration.shape[0] == 0:
        raise ValueError(
            "quantize= needs a non-empty (N, C, H, W) calibration batch "
            "to derive activation scales from"
        )
    calibration = calibration[: config.calibration_images]
    edges = _calibrate_edges(ops, calibration, dtype)
    qmax = config.qmax
    # Resolve the GEMM datapath once for the whole pipeline: int8 codes
    # only fit the int8 kernels at <= 8 bits (wider codes fall back to
    # the float-carried GEMM, which is exact for them in float64).
    if config.bits <= 8:
        kernel = get_int8_kernel(None if config.kernel == "auto" else config.kernel)
    else:
        kernel = "float"
    kernel_name = None if kernel == "float" else kernel
    carry_dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)

    assessed = {}
    report = QuantizationReport(
        bits=config.bits,
        granularity=config.granularity,
        mode=config.mode,
        error_threshold=config.error_threshold,
        int8_kernel=kernel,
    )
    for i, op in enumerate(ops):
        if isinstance(op, ConvOp):
            quant = _assess(op, config)
            assessed[i] = quant
            report.layers.append(
                {
                    "tag": op.tag,
                    "quantized": quant.ok,
                    "reason": quant.reason,
                    "error": quant.error,
                }
            )

    def scale_at(i: int) -> float:
        peak = edges[i]
        return peak / qmax if peak > 0 else 1.0

    def next_is_quant_conv(i: int) -> bool:
        j = i + 1
        while j < len(ops) and isinstance(ops[j], _SCALE_TRANSPARENT):
            j += 1
        return j < len(ops) and j in assessed and assessed[j].ok

    new_ops: List[_InferenceOp] = []
    domain_scale: Optional[float] = None  # None -> float domain
    boundary = 0
    for i, op in enumerate(ops):
        if i in assessed and assessed[i].ok:
            if domain_scale is None:
                in_scale = scale_at(i)
                new_ops.append(
                    QuantizeOp(
                        scale=in_scale,
                        qmax=qmax,
                        tag=f"q{boundary}",
                        int8=kernel_name is not None,
                    )
                )
                boundary += 1
            else:
                in_scale = domain_scale
            requant = config.mode == "requantize" and next_is_quant_conv(i)
            out_scale = scale_at(i + 1) if requant else None
            new_ops.append(
                _quantize_conv(
                    op, config, assessed[i], in_scale, out_scale, dtype,
                    kernel=kernel_name,
                )
            )
            domain_scale = out_scale
            continue
        if isinstance(op, _SCALE_TRANSPARENT) and domain_scale is not None:
            new_ops.append(op)  # codes flow through unchanged
            continue
        if domain_scale is not None:
            # Leaving the quantized region (requantize-mode tails only
            # reach here if a transparent op trails the last conv).
            new_ops.append(
                DequantizeOp(
                    scale=domain_scale, tag=f"q{boundary}", dtype=carry_dtype
                )
            )
            boundary += 1
            domain_scale = None
        new_ops.append(op)
    if domain_scale is not None:
        new_ops.append(
            DequantizeOp(scale=domain_scale, tag=f"q{boundary}", dtype=carry_dtype)
        )
    return new_ops, report


# Registration lives in backends.py (bottom-of-module import) so the
# registry is complete for anyone importing repro.runtime.backends alone.
