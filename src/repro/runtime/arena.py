"""Preallocated workspace arenas for the compiled inference pipeline.

A :class:`Arena` owns the large scratch buffers a steady-state serving
loop needs — im2col column matrices, GEMM outputs, zero-padded input
copies — keyed by ``(tag, shape, dtype)``. The first request for a key
allocates; every later request returns the same buffer, so a compiled
model's hot loop does zero large allocations once warm.

Buffers are plain ``np.empty`` storage except for :meth:`take_filled`,
which fills the buffer with a constant exactly once at allocation. That
is the padding trick: a conv's zero-padded input buffer is zeroed once,
then every call only overwrites the interior region — the border stays
zero forever without a per-call ``np.pad``.

Arenas are deliberately **not** thread-safe: concurrent micro-batches
(``predict(..., workers=N)``) each run on their own thread-local arena,
and the shards of a sharded call each on their shard's arena (see
:class:`repro.runtime.compile.CompiledModel`), which also keeps buffer
reuse free of cross-request aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["Arena", "ArenaStats"]

ArenaKey = Tuple[str, Tuple[int, ...], np.dtype]


@dataclass
class ArenaStats:
    """Allocation accounting for one :class:`Arena`."""

    allocations: int = 0
    reuses: int = 0
    bytes_allocated: int = 0
    by_tag: Dict[str, int] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        """Total buffer requests served (allocations + reuses)."""
        return self.allocations + self.reuses

    @property
    def reuse_rate(self) -> float:
        """Fraction of requests served from an existing buffer;
        approaches 1.0 once a serving loop is warm."""
        return self.reuses / self.requests if self.requests else 0.0


class Arena:
    """Reusable scratch buffers keyed by ``(tag, shape, dtype)``.

    Tags namespace the buffers per consumer (one per compiled op and
    role), so two ops never hand out the same storage — the aliasing
    guarantee the compiled executor's in-place epilogues rely on.
    """

    def __init__(self) -> None:
        self._buffers: Dict[ArenaKey, np.ndarray] = {}
        self.stats = ArenaStats()

    def __len__(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def _get(self, tag: str, shape: Tuple[int, ...], dtype, factory) -> np.ndarray:
        """Cache lookup + allocation/stats bookkeeping shared by take*."""
        key = (tag, tuple(shape), np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = factory(key[1], key[2])
            self._buffers[key] = buffer
            self.stats.allocations += 1
            self.stats.bytes_allocated += buffer.nbytes
            self.stats.by_tag[tag] = self.stats.by_tag.get(tag, 0) + buffer.nbytes
        else:
            self.stats.reuses += 1
        return buffer

    def take(self, tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Return the reusable buffer for ``(tag, shape, dtype)``.

        Contents are undefined on first allocation and whatever the last
        user left behind afterwards — callers must overwrite fully.
        """
        return self._get(tag, shape, dtype, np.empty)

    def take_filled(
        self, tag: str, shape: Tuple[int, ...], dtype, fill: float
    ) -> np.ndarray:
        """Like :meth:`take`, but filled with ``fill`` once at allocation.

        Callers that only ever write an interior sub-region (padded conv
        inputs, -inf-padded pool inputs) get constant borders for free on
        every reuse.
        """
        return self._get(tag, shape, dtype, lambda s, d: np.full(s, fill, dtype=d))

    def padded(self, tag: str, x: np.ndarray, padding: int) -> np.ndarray:
        """Zero-padded copy of ``x`` in a reused buffer (NCHW, symmetric).

        The border is zeroed once at allocation; each call copies only the
        interior, replacing a per-call ``np.pad`` with a single memcpy.
        """
        if padding <= 0:
            return x
        n, c, h, w = x.shape
        buffer = self.take_filled(
            tag, (n, c, h + 2 * padding, w + 2 * padding), x.dtype, 0.0
        )
        buffer[:, :, padding : padding + h, padding : padding + w] = x
        return buffer

    def padded_nhwc(self, tag: str, x: np.ndarray, padding: int) -> np.ndarray:
        """Channels-last variant of :meth:`padded` (pads H and W axes)."""
        if padding <= 0:
            return x
        n, h, w, c = x.shape
        buffer = self.take_filled(
            tag, (n, h + 2 * padding, w + 2 * padding, c), x.dtype, 0.0
        )
        buffer[:, padding : padding + h, padding : padding + w, :] = x
        return buffer

    def release(self, tag: Optional[str] = None) -> int:
        """Drop all buffers, or only those registered under ``tag``.

        Returns the bytes released, so residency demotion can reconcile
        its ledger against what actually came off the heap.
        """
        if tag is None:
            freed = self.nbytes
            self._buffers.clear()
            return freed
        freed = 0
        for key in [k for k in self._buffers if k[0] == tag]:
            freed += self._buffers[key].nbytes
            del self._buffers[key]
        return freed
