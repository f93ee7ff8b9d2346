"""Process-pool executor serving compiled models past the GIL.

:class:`WorkerPool` is the multi-process counterpart of the thread pool
behind ``predict(workers=N)``: N forked inference workers, each holding
a private :class:`~repro.runtime.arena.Arena` and plan cache but all
mapping the *same* :class:`~repro.runtime.shm.SharedModelImage` —
weights, SPM grouped matrices and int8 code bundles exist once in
physical memory. Chunks travel over per-worker SPSC
:class:`~repro.runtime.shm.TensorRing` pairs (struct-packed headers +
raw activation bytes; no pickling on the hot path), with
``multiprocessing.Semaphore`` doorbells so neither side burns CPU
polling — which matters as much on a one-core CI box as on a 32-core
server.

The pool satisfies the ``predict(executor=)`` seam: ``predict``
recognises :attr:`WorkerPool.is_process_pool` and routes chunks through
:meth:`run_chunks` instead of ``ThreadPoolExecutor.map`` (a closure
cannot cross a process boundary; a tensor record can). Worker death is
survivable: rings are lock-free so a crash never strands a lock, the
collector notices the dead process, redispatches its in-flight chunks
to survivors once, and fails them with :class:`WorkerCrashed` only when
no capacity remains.

Lifecycle discipline: the creating process owns both shared segments
(image + rings) and unlinks them in :meth:`shutdown`; a
``weakref.finalize`` backstop unlinks on interpreter exit, so neither a
forgotten ``shutdown()`` nor a crashed worker leaks ``/dev/shm``
entries. The creating process also runs BLAS on one thread from
construction to :meth:`shutdown` (the fork rule of
:mod:`repro.runtime.blas`): it forks at every respawn, and a fork can
hang a multithreaded OpenBLAS GEMM running on another of its threads.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import struct
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .blas import (
    blas_threads,
    hold_one_blas_thread,
    release_blas_thread,
    serving_blas_threads,
    set_blas_threads,
)
from .shm import (
    KIND_CONTROL,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESULT,
    KIND_STOP,
    RingTimeout,
    SharedModelImage,
    TensorRing,
    attach_segment,
    create_segment,
    destroy_segment,
    pack_tensor,
    unpack_tensor,
)

__all__ = ["WorkerPool", "WorkerCrashed", "BrokenWorkerPool", "DEFAULT_RING_BYTES"]

#: Default per-direction ring capacity. Sized for a handful of
#: float64 serving chunks; :class:`~repro.serving.server.ModelServer`
#: derives a tighter figure from its batch geometry.
DEFAULT_RING_BYTES = 4 * 2**20

#: Per-worker live-counter slot in the pool segment (written by the
#: worker, read lock-free by the router's /stats snapshots and the
#: supervisor's wedge detector). The heartbeat is a CLOCK_MONOTONIC
#: nanosecond stamp — shared across processes on Linux, so the router
#: can age it against its own ``time.monotonic_ns()``.
_STATS_SLOT = struct.Struct("<QQQQ")  # chunks, images, busy_ns, heartbeat_ns
_STATS_SLOT_BYTES = 64


class WorkerCrashed(RuntimeError):
    """An inference worker died with chunks in flight."""


class BrokenWorkerPool(RuntimeError):
    """The pool is shut down (or lost every worker) and cannot serve."""


@dataclass
class _Pending:
    """One in-flight chunk awaiting its result record."""

    future: Future
    chunk: np.ndarray
    worker: int
    enqueued: float
    redispatched: bool = False


@dataclass
class _WorkerHandle:
    process: multiprocessing.process.BaseProcess
    request_ring: TensorRing
    response_ring: TensorRing
    doorbell: object  # ctx.Semaphore(0) waking the worker's request loop
    ring_lock: threading.Lock = field(default_factory=threading.Lock)
    alive: bool = True
    #: Deliberately stopped via retire_worker() — not a crash, so the
    #: supervisor must not resurrect it.
    retired: bool = False
    #: Set when the worker's KIND_CONTROL ready record has been read
    #: (initial startup and every respawn).
    ready: threading.Event = field(default_factory=threading.Event)
    attach: dict = field(default_factory=dict)
    #: (completion stamp, enqueue->response-write seconds), recent window
    completions: "deque" = field(default_factory=lambda: deque(maxlen=512))


def _wait_for_data(ring: TensorRing, doorbell, timeout: float, should_abort=None) -> bool:
    """Sleep on the doorbell semaphore until the ring has data (or timeout).

    The doorbell is a raw ``multiprocessing.Semaphore`` rather than an
    ``Event`` deliberately: Event wraps a lock that a SIGKILLed peer can
    die holding (deadlocking every other waiter forever), while
    ``sem_post``/``sem_timedwait`` are single atomic syscalls with no
    lock to orphan. Producers post once per record *after* writing it,
    so an acquired permit implies visible data; permits drained out of
    order only cost a spurious loop iteration.
    """
    deadline = time.monotonic() + timeout
    while True:
        if ring.has_data():
            return True
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        doorbell.acquire(timeout=min(0.05, remaining))
        if should_abort is not None:
            should_abort()


# ---------------------------------------------------------------------
# Worker process entry point (module-level: importable under spawn)
# ---------------------------------------------------------------------
def _worker_main(
    image_name: str,
    segment_name: str,
    worker_id: int,
    ring_bytes: int,
    cpus: int,
    doorbell,
    response_doorbell,
    parent_pid: int,
    worker_blas_threads: Optional[int],
) -> None:
    # The router handles Ctrl-C for the whole tree; workers exit via the
    # STOP record (or by noticing the router is gone).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Inherit the router's resolved tuning-cache CPU key, so any compile
    # a worker ever performs agrees with the router's cache entries
    # instead of re-probing under a different affinity view.
    os.environ["REPRO_TUNE_CPUS"] = str(cpus)
    # Each worker is one core's worth of serving: the pool, not BLAS,
    # supplies the parallelism (docs/SERVING.md, "Threads vs. processes").
    # Set explicitly: a forked worker inherits the owner's held count.
    if worker_blas_threads is not None:
        set_blas_threads(worker_blas_threads)

    segment = attach_segment(segment_name)
    request_ring, response_ring, stats_offset = _pool_layout(
        segment.buf, worker_id, ring_bytes
    )
    image = SharedModelImage.attach(image_name)
    model = image.model()

    def router_gone() -> None:
        if os.getppid() != parent_pid:
            raise SystemExit(0)

    ready = {
        "worker": worker_id,
        "pid": os.getpid(),
        "attach": image.attach_stats.snapshot(),
        "blas_threads": blas_threads(),
    }
    response_ring.write(KIND_CONTROL, [pickle.dumps(ready)], timeout=30.0)
    response_doorbell.release()

    chunks = images = busy_ns = 0

    def beat() -> None:
        # Heartbeat + counters in one 32-byte write. Stamped every loop
        # iteration (idle ticks included) and right before compute, so a
        # wedged worker — SIGSTOPped, deadlocked, stuck in a syscall —
        # shows a stale stamp within one supervisor interval while a
        # merely busy worker shows the stamp of its compute start.
        _STATS_SLOT.pack_into(
            segment.buf, stats_offset, chunks, images, busy_ns,
            time.monotonic_ns(),
        )

    beat()
    try:
        while True:
            if not _wait_for_data(request_ring, doorbell, 0.25):
                router_gone()
                beat()
                continue
            item = request_ring.try_read()
            if item is None:
                continue
            kind, payload, record = item
            if kind == KIND_STOP:
                request_ring.consume(record)
                # Drop every ring view still referenced by frame locals
                # so the finally-close below can release the mapping.
                del item, payload
                return
            if kind != KIND_REQUEST:
                request_ring.consume(record)
                continue
            req_id, enqueued, _, x = unpack_tensor(payload)
            received = time.monotonic()
            beat()
            try:
                out = model(x)  # owned copy; the ring slot is free after this
            except BaseException as error:  # noqa: BLE001 - forwarded
                request_ring.consume(record)
                response_ring.write(
                    KIND_ERROR,
                    [pickle.dumps((req_id, f"{type(error).__name__}: {error}"))],
                    timeout=30.0,
                    should_abort=router_gone,
                )
                response_doorbell.release()
                continue
            request_ring.consume(record)
            done = time.monotonic()
            chunks += 1
            images += x.shape[0]
            busy_ns += int((done - received) * 1e9)
            beat()
            header, data = pack_tensor(req_id, enqueued, time.monotonic(), out)
            response_ring.write(
                KIND_RESULT, [header, data], timeout=60.0, should_abort=router_gone
            )
            response_doorbell.release()
            # Release this iteration's ring views eagerly: a STOP (or
            # crash) next iteration must not find exported pointers.
            del item, payload, x
    finally:
        image.close()
        try:
            segment.close()
        except BufferError:  # pragma: no cover - stray view; process exits
            pass


def _pool_layout(
    buf, worker_id: int, ring_bytes: int
) -> Tuple[TensorRing, TensorRing, int]:
    """One worker's (request ring, response ring, stats offset)."""
    per_worker = 2 * TensorRing.footprint(ring_bytes) + _STATS_SLOT_BYTES
    base = worker_id * per_worker
    request_ring = TensorRing(buf, base, ring_bytes)
    response_ring = TensorRing(buf, base + TensorRing.footprint(ring_bytes), ring_bytes)
    stats_offset = base + 2 * TensorRing.footprint(ring_bytes)
    return request_ring, response_ring, stats_offset


def _release_pool(names: Sequence[str]) -> None:
    """Finalizer: unlink any pool segments the owner never shut down and
    end the pool's BLAS hold."""
    from multiprocessing import shared_memory

    for name in names:
        try:
            leaked = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        destroy_segment(leaked)
    release_blas_thread()


class WorkerPool:
    """N inference processes serving one shared compiled model.

    Parameters
    ----------
    compiled:
        The :class:`~repro.runtime.compile.CompiledModel` to serve. Its
        parameters are exported to a :class:`SharedModelImage` once;
        workers attach read-only views (never copies — see
        :meth:`stats_snapshot`'s attach counters).
    procs:
        Worker process count (>= 1).
    ring_bytes:
        Per-direction ring capacity per worker. Must hold the largest
        single chunk (tensor bytes + a small header); serving derives
        this from its batch geometry.
    start_method:
        ``multiprocessing`` start method; default ``"fork"`` where
        available (no re-import, instant start), else ``"spawn"``. The
        worker entry point is spawn-safe either way.
    """

    #: predict()'s executor seam keys on this instead of the type, so
    #: tests can substitute doubles.
    is_process_pool = True

    def __init__(
        self,
        compiled,
        procs: int,
        *,
        ring_bytes: int = DEFAULT_RING_BYTES,
        start_method: Optional[str] = None,
        ready_timeout: float = 60.0,
    ) -> None:
        from .tune import effective_cpu_count

        if procs < 1:
            raise ValueError("procs must be >= 1")
        ring_bytes = (int(ring_bytes) + 7) // 8 * 8
        self.compiled = compiled
        self.procs = procs
        self.ring_bytes = ring_bytes
        self._closed = False
        self._lock = threading.Lock()
        self._drain_lock = threading.Lock()
        self._foreground = 0
        self._pending: Dict[int, _Pending] = {}
        self._outstanding: List[int] = [0] * procs
        self._next_id = 0
        self._submit_timeout = 30.0
        #: Optional crash hook (set by the serving supervisor): called
        #: with ``(worker_id, exitcode, orphaned, redispatched)`` from
        #: the collector thread whenever a worker death is detected.
        #: Must not block — it runs inside the response-drain sweep.
        self.on_worker_death = None

        self.image = SharedModelImage.export(compiled)
        per_worker = 2 * TensorRing.footprint(ring_bytes) + _STATS_SLOT_BYTES
        self._segment = create_segment("pool", procs * per_worker)

        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        ctx = multiprocessing.get_context(start_method)
        # Kept for respawn_worker(): resurrected workers must start the
        # same way (and share the same doorbell semantics) as originals.
        self._ctx = ctx
        self._response_doorbell = ctx.Semaphore(0)
        cpus = effective_cpu_count()
        self._cpus = cpus
        # The fork rule (repro.runtime.blas): this process forks workers
        # now and on every respawn, so it runs BLAS on one thread until
        # shutdown; the workers run the serving rule's count.
        self._worker_blas_threads = serving_blas_threads(hold_one_blas_thread())

        self._workers: List[_WorkerHandle] = []
        try:
            for worker_id in range(procs):
                request_ring, response_ring, _ = _pool_layout(
                    self._segment.buf, worker_id, ring_bytes
                )
                doorbell = ctx.Semaphore(0)
                process = self._spawn_process(worker_id, doorbell)
                self._workers.append(
                    _WorkerHandle(
                        process=process,
                        request_ring=request_ring,
                        response_ring=response_ring,
                        doorbell=doorbell,
                    )
                )
            self._await_ready(ready_timeout)
        except BaseException:
            self._teardown_processes()
            destroy_segment(self._segment)
            self.image.close()
            self.image.unlink()
            release_blas_thread()
            raise

        # Unlink-on-exit backstop; shutdown() detaches it after doing
        # the same work deliberately.
        self._finalizer = weakref.finalize(
            self, _release_pool, (self._segment.name, self.image.name)
        )
        self._collector_stop = False
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-pool-collector", daemon=True
        )
        self._collector.start()

    # -- startup -------------------------------------------------------
    def _spawn_process(self, worker_id: int, doorbell) -> multiprocessing.process.BaseProcess:
        """Start one worker process on worker ``worker_id``'s rings."""
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self.image.name,
                self._segment.name,
                worker_id,
                self.ring_bytes,
                self._cpus,
                doorbell,
                self._response_doorbell,
                os.getpid(),
                self._worker_blas_threads,
            ),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        return process

    def _await_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            self._await_worker_ready(worker, deadline - time.monotonic())

    def _await_worker_ready(self, worker: _WorkerHandle, timeout: float) -> None:
        """Block until ``worker``'s KIND_CONTROL ready record arrives.

        The record may be consumed by this thread's own drain sweep or —
        during a respawn, when the pool is already live — by the
        background collector; either path lands in
        :meth:`_handle_record`, which stores the attach info and sets
        ``worker.ready``.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        while not worker.ready.is_set():
            if not worker.process.is_alive():
                raise BrokenWorkerPool(
                    f"worker {worker.process.name} died during startup "
                    f"(exitcode {worker.process.exitcode})"
                )
            if time.monotonic() > deadline:
                raise BrokenWorkerPool(
                    f"worker {worker.process.name} not ready after {timeout:.0f}s"
                )
            _wait_for_data(worker.response_ring, self._response_doorbell, 0.05)
            self._drain_responses(liveness=False)

    # -- dispatch ------------------------------------------------------
    def _pick_worker(self) -> int:
        alive = [
            (self._outstanding[i], i)
            for i, w in enumerate(self._workers)
            if w.alive
        ]
        if not alive:
            raise BrokenWorkerPool("no live workers remain")
        return min(alive)[1]

    def _submit(self, chunk: np.ndarray, worker_id: Optional[int] = None) -> Future:
        chunk = np.ascontiguousarray(chunk)
        future: Future = Future()
        future.set_running_or_notify_cancel()
        with self._lock:
            if self._closed:
                raise BrokenWorkerPool("worker pool is shut down")
            target = self._pick_worker() if worker_id is None else worker_id
            req_id = self._next_id
            self._next_id += 1
            enqueued = time.monotonic()
            self._pending[req_id] = _Pending(
                future=future, chunk=chunk, worker=target, enqueued=enqueued
            )
            self._outstanding[target] += 1
        worker = self._workers[target]
        header, data = pack_tensor(req_id, enqueued, 0.0, chunk)
        try:
            with worker.ring_lock:
                worker.request_ring.write(
                    KIND_REQUEST,
                    [header, data],
                    timeout=self._submit_timeout,
                    should_abort=lambda: self._abort_if_dead(worker),
                )
            worker.doorbell.release()
        except BaseException as error:
            with self._lock:
                if self._pending.pop(req_id, None) is not None:
                    self._outstanding[target] -= 1
            if isinstance(error, WorkerCrashed) and worker_id is None:
                # The chosen worker died before accepting the chunk; any
                # survivor can take it instead.
                return self._submit(chunk)
            raise
        return future

    def _abort_if_dead(self, worker: _WorkerHandle) -> None:
        if not worker.process.is_alive():
            raise WorkerCrashed(
                f"{worker.process.name} died (exitcode {worker.process.exitcode})"
            )

    def submit_chunk(self, chunk: np.ndarray) -> Future:
        """Dispatch one ``(n, ...)`` chunk; future resolves to its output."""
        inner = self._submit(chunk)
        outer: Future = Future()
        outer.set_running_or_notify_cancel()

        def _unwrap(done: Future) -> None:
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
            else:
                outer.set_result(done.result()[0])

        inner.add_done_callback(_unwrap)
        return outer

    def run_chunks(
        self,
        chunks: Sequence[np.ndarray],
        chunk_seconds: Optional[List[float]] = None,
    ) -> List[np.ndarray]:
        """Run every chunk across the pool; outputs in submission order.

        ``chunk_seconds`` (when given, one slot per chunk) is filled
        with each chunk's enqueue→response-write time as measured on the
        shared monotonic clock — ring transit and worker compute both
        included.
        """
        futures = [self._submit(chunk) for chunk in chunks]
        if chunk_seconds is not None:
            chunk_seconds.extend(0.0 for _ in range(len(futures) - len(chunk_seconds)))
        # Foreground collection: this thread drains the response rings
        # itself instead of sleeping behind the background collector —
        # the worker's doorbell release wakes the thread that actually
        # wants the result, saving a full thread hop per chunk (which is
        # most of the ring overhead on a 1-core host).
        with self._lock:
            self._foreground += 1
        try:
            outputs = []
            for index, future in enumerate(futures):
                while not future.done():
                    # Block first: the token released right after the
                    # response write is the expected wake, and sweeping
                    # before the worker could possibly have answered
                    # only burns an empty pass over every ring. Skip
                    # the per-worker waitpid liveness probes unless the
                    # wait timed out — a crashed worker never releases
                    # the doorbell, so the timeout path (and the 10 ms
                    # polling collector) is where death shows up.
                    woken = self._response_doorbell.acquire(timeout=0.005)
                    self._drain_responses(liveness=not woken)
                output, rtt = future.result()
                if chunk_seconds is not None:
                    chunk_seconds[index] = rtt
                outputs.append(output)
        finally:
            with self._lock:
                self._foreground -= 1
        return outputs

    def warmup(self, geometries: Sequence[Tuple[int, ...]]) -> None:
        """Run a zero chunk of every geometry on *every* worker.

        Targeted dispatch (not least-loaded), so each worker's private
        plan cache and arena are warm for every chunk geometry serving
        will produce — the first real request never pays plan building
        in any process.
        """
        futures = []
        for shape in dict.fromkeys(tuple(g) for g in geometries):
            zeros = np.zeros(shape)
            for worker_id, worker in enumerate(self._workers):
                if worker.alive:
                    futures.append(self._submit(zeros, worker_id=worker_id))
        for future in futures:
            future.result()

    # -- dynamic membership (supervision) ------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`shutdown` has run (pool can no longer serve)."""
        return self._closed

    @property
    def alive_workers(self) -> int:
        """Workers currently accepting dispatch (not dead, not retired)."""
        return sum(1 for w in self._workers if w.alive)

    def worker_health(self) -> Dict[int, dict]:
        """Supervisor-facing liveness view, one row per worker slot.

        ``heartbeat_age_s`` ages the worker's shared-clock heartbeat
        stamp against the router's monotonic clock; a live-but-wedged
        worker (SIGSTOP, deadlock) shows a growing age while
        ``process_alive`` stays true — the signal :class:`~repro.serving.supervisor.Supervisor`
        uses to kill and resurrect it. ``alive`` is the *dispatch* flag:
        False once a crash was observed (or the worker was retired),
        which is the supervisor's cue to respawn. ``blas_threads`` is
        the BLAS thread count the worker reported when it started.
        """
        health: Dict[int, dict] = {}
        now_ns = time.monotonic_ns()
        with self._lock:
            closed = self._closed
            outstanding = list(self._outstanding)
        for worker_id, worker in enumerate(self._workers):
            heartbeat_age = None
            if not closed:
                _, _, stats_offset = _pool_layout(
                    self._segment.buf, worker_id, self.ring_bytes
                )
                _, _, _, beat_ns = _STATS_SLOT.unpack_from(
                    self._segment.buf, stats_offset
                )
                if beat_ns:
                    heartbeat_age = max(0.0, (now_ns - beat_ns) / 1e9)
            health[worker_id] = {
                "alive": worker.alive,
                "retired": worker.retired,
                "process_alive": worker.process.is_alive(),
                "pid": worker.process.pid,
                "exitcode": worker.process.exitcode,
                "outstanding": outstanding[worker_id],
                "heartbeat_age_s": heartbeat_age,
                "blas_threads": worker.attach.get("blas_threads"),
            }
        return health

    def kill_worker(self, worker_id: int, sig: int = signal.SIGKILL) -> None:
        """Send ``sig`` to one worker process (wedge recovery, chaos tests).

        The death is *not* processed here — the collector's next sweep
        notices it, redispatches in-flight chunks and fires the
        ``on_worker_death`` hook exactly as for an external kill.
        """
        worker = self._workers[worker_id]
        if worker.process.pid is not None and worker.process.is_alive():
            os.kill(worker.process.pid, sig)

    def retire_worker(self, worker_id: int, timeout: float = 10.0) -> None:
        """Gracefully remove one worker from the dispatch set.

        New chunks stop routing to it immediately; its in-flight chunks
        drain normally, then it receives a STOP record and exits. The
        slot stays in the pool (``retired``) and can be brought back
        with :meth:`respawn_worker`.
        """
        with self._lock:
            if self._closed:
                raise BrokenWorkerPool("worker pool is shut down")
            worker = self._workers[worker_id]
            if not worker.alive:
                raise ValueError(f"worker {worker_id} is not serving")
            if self.alive_workers <= 1:
                raise ValueError(
                    "cannot retire the last live worker (shut the pool down "
                    "instead)"
                )
            worker.alive = False
            worker.retired = True
        deadline = time.monotonic() + timeout
        while (
            self._outstanding[worker_id] > 0
            and worker.process.is_alive()
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        if worker.process.is_alive():
            try:
                with worker.ring_lock:
                    worker.request_ring.write(KIND_STOP, [], timeout=1.0)
                worker.doorbell.release()
            except (RingTimeout, ValueError):
                worker.process.terminate()
        worker.process.join(max(0.1, deadline - time.monotonic()))
        if worker.process.is_alive():  # pragma: no cover - last resort
            worker.process.kill()
            worker.process.join(1.0)

    def respawn_worker(self, worker_id: int, *, ready_timeout: float = 60.0) -> int:
        """Resurrect a dead or retired worker slot; returns the new pid.

        The replacement process attaches the *same*
        :class:`SharedModelImage` and serves over the slot's existing
        rings, which are drained of any responses the old worker wrote
        before dying and then reset — the old process can no longer
        touch them (it is dead and joined), so the reset is race-free.
        Requires the slot's crash to have been observed already
        (``alive`` False): in-flight chunk replay happens at death
        detection, not here.
        """
        with self._lock:
            if self._closed:
                raise BrokenWorkerPool("worker pool is shut down")
            old = self._workers[worker_id]
        if old.alive:
            # Maybe the death simply has not been swept yet; one probe
            # sweep settles it (and replays the orphaned chunks).
            self._drain_responses()
            if old.alive:
                raise ValueError(f"worker {worker_id} is still serving")
        old.process.join(5.0)
        if old.process.is_alive():
            raise ValueError(
                f"worker {worker_id} process (pid {old.process.pid}) has not "
                f"exited; kill it before respawning"
            )
        with self._drain_lock, old.ring_lock:
            # Collect responses the dead worker finished before it died
            # (they are still valid results), then reset both rings and
            # the stats slot to a clean state for the replacement.
            while True:
                item = old.response_ring.try_read()
                if item is None:
                    break
                self._handle_record(worker_id, old, item)
            old.request_ring.head = 0
            old.request_ring.tail = 0
            old.response_ring.head = 0
            old.response_ring.tail = 0
            _, _, stats_offset = _pool_layout(
                self._segment.buf, worker_id, self.ring_bytes
            )
            _STATS_SLOT.pack_into(self._segment.buf, stats_offset, 0, 0, 0, 0)
            with self._lock:
                self._outstanding[worker_id] = 0
            doorbell = self._ctx.Semaphore(0)
            handle = _WorkerHandle(
                process=self._spawn_process(worker_id, doorbell),
                request_ring=old.request_ring,
                response_ring=old.response_ring,
                doorbell=doorbell,
                alive=False,  # no dispatch until the ready handshake lands
            )
            self._workers[worker_id] = handle
        try:
            self._await_worker_ready(handle, ready_timeout)
        except BaseException:
            handle.process.terminate()
            handle.process.join(1.0)
            raise
        handle.alive = True
        return handle.process.pid

    # -- result collection ---------------------------------------------
    def _drain_responses(self, liveness: bool = True) -> bool:
        """One sweep over every response ring (+ death detection).

        Serialised by ``_drain_lock`` so the background collector and a
        foreground waiter never double-read a ring. Returns whether any
        record was consumed or a death was handled. ``liveness=False``
        skips the per-worker ``waitpid`` probes — the foreground hot
        path passes it when a doorbell token proved a worker just
        responded; crash detection stays with the timeout path and the
        polling collector.
        """
        progressed = False
        with self._drain_lock:
            for worker_id, worker in enumerate(self._workers):
                while True:
                    item = worker.response_ring.try_read()
                    if item is None:
                        break
                    progressed = True
                    self._handle_record(worker_id, worker, item)
                if liveness and worker.alive and not worker.process.is_alive():
                    self._on_worker_death(worker_id, worker)
                    progressed = True
        return progressed

    def _collect_loop(self) -> None:
        # The background collector is a polling backstop, NOT a doorbell
        # consumer: if it blocked on the response doorbell, a worker's
        # release would race between it and a foreground run_chunks()
        # waiter — and whenever the collector won, the foreground thread
        # would sleep out its whole timeout while the collector relayed
        # the result through an extra thread hop. Leaving the doorbell
        # exclusively to foreground waiters keeps the hot path at one
        # wakeup; the 10 ms poll only bounds latency for async
        # submit_chunk() futures and crash detection.
        while not self._collector_stop:
            if not self._foreground:
                # Eat tokens nobody is waiting for so they cannot pile
                # up and turn a later foreground wait into a spin.
                while self._response_doorbell.acquire(block=False):
                    pass
            self._drain_responses()
            time.sleep(0.01)

    def _handle_record(
        self, worker_id: int, worker: _WorkerHandle, item: Tuple[int, memoryview, int]
    ) -> None:
        kind, payload, record = item
        if kind == KIND_RESULT:
            req_id, enqueued, done, view = unpack_tensor(payload)
            output = np.array(view, copy=True)
            del view, payload
            worker.response_ring.consume(record)
            rtt = max(0.0, done - enqueued)
            worker.completions.append((time.perf_counter(), rtt))
            self._resolve(req_id, worker_id, result=(output, rtt))
        elif kind == KIND_ERROR:
            req_id, message = pickle.loads(bytes(payload))
            worker.response_ring.consume(record)
            self._resolve(
                req_id, worker_id, error=RuntimeError(f"worker {worker_id}: {message}")
            )
        elif kind == KIND_CONTROL:
            # Ready handshake (initial startup or a supervisor respawn).
            worker.attach = pickle.loads(bytes(payload))
            worker.response_ring.consume(record)
            worker.ready.set()
        else:  # stray record
            worker.response_ring.consume(record)

    def _resolve(self, req_id, worker_id, result=None, error=None) -> None:
        with self._lock:
            pending = self._pending.pop(req_id, None)
            if pending is not None:
                self._outstanding[pending.worker] -= 1
        if pending is None:
            return
        if error is not None:
            pending.future.set_exception(error)
        else:
            pending.future.set_result(result)

    def _on_worker_death(self, worker_id: int, worker: _WorkerHandle) -> None:
        worker.alive = False
        with self._lock:
            orphaned = [
                (req_id, p)
                for req_id, p in self._pending.items()
                if p.worker == worker_id
            ]
            for req_id, pending in orphaned:
                del self._pending[req_id]
                self._outstanding[worker_id] -= 1
        crash = WorkerCrashed(
            f"{worker.process.name} died (exitcode {worker.process.exitcode}) "
            f"with {len(orphaned)} chunk(s) in flight"
        )
        redispatched = 0
        for _, pending in orphaned:
            if pending.redispatched:
                pending.future.set_exception(crash)
                continue
            # One retry on a survivor: transient single-worker deaths
            # (OOM kill, operator SIGTERM) stay invisible to callers.
            try:
                replacement = self._submit(pending.chunk)
            except BaseException:  # noqa: BLE001 - no capacity left
                pending.future.set_exception(crash)
                continue
            redispatched += 1
            with self._lock:
                for req_id, entry in self._pending.items():
                    if entry.future is replacement:
                        entry.future = pending.future
                        entry.redispatched = True
                        break
                else:
                    replacement.add_done_callback(
                        _forward_future(pending.future)
                    )
        callback = self.on_worker_death
        if callback is not None:
            try:
                callback(
                    worker_id, worker.process.exitcode, len(orphaned), redispatched
                )
            except Exception:  # noqa: BLE001 - a hook must not kill the drain
                pass

    # -- observability -------------------------------------------------
    def stats_snapshot(self) -> dict:
        """JSON-ready per-worker view for ``/stats``'s ``workers`` block.

        Safe to call after :meth:`shutdown` — the shared segment is gone
        then, so the live ring/counter fields read as zero while the
        per-worker completion windows and attach counters (router-side
        state) stay intact.
        """
        per_worker = {}
        now = time.perf_counter()
        segment_buf = None if self._closed else self._segment.buf
        for worker_id, worker in enumerate(self._workers):
            if segment_buf is not None:
                _, _, stats_offset = _pool_layout(
                    segment_buf, worker_id, self.ring_bytes
                )
                chunks, images, busy_ns, _ = _STATS_SLOT.unpack_from(
                    segment_buf, stats_offset
                )
                ring = {
                    "request_used": worker.request_ring.used_bytes,
                    "response_used": worker.response_ring.used_bytes,
                    "capacity": self.ring_bytes,
                }
            else:
                chunks = images = busy_ns = 0
                ring = {"request_used": 0, "response_used": 0,
                        "capacity": self.ring_bytes}
            window = list(worker.completions)
            recent = [stamp for stamp, _ in window if now - stamp <= 60.0]
            span = (recent[-1] - recent[0]) if len(recent) >= 2 else 0.0
            rtts = [rtt for _, rtt in window]
            per_worker[str(worker_id)] = {
                "alive": worker.alive and worker.process.is_alive(),
                "pid": worker.process.pid,
                "chunks": chunks,
                "images": images,
                "busy_seconds": round(busy_ns / 1e9, 4),
                "requests_per_second": round(
                    (len(recent) - 1) / span if span > 0 else 0.0, 2
                ),
                "rtt_p50_ms": round(float(np.median(rtts)) * 1e3, 3) if rtts else 0.0,
                "outstanding": self._outstanding[worker_id],
                "ring": ring,
                "attach": worker.attach.get("attach", {}),
            }
        stats = self.image.attach_stats
        return {
            "procs": self.procs,
            "alive": sum(1 for w in self._workers if w.alive),
            "image": {
                "segment": self.image.name,
                "arrays": stats.arrays,
                "bytes": stats.nbytes,
                "attached_total": sum(
                    w.attach.get("attach", {}).get("attached", 0)
                    for w in self._workers
                ),
                "copied_total": sum(
                    w.attach.get("attach", {}).get("copied", 0)
                    for w in self._workers
                ),
            },
            "per_worker": per_worker,
        }

    # -- lifecycle -----------------------------------------------------
    def _teardown_processes(self, timeout: float = 5.0) -> None:
        for worker in self._workers:
            if worker.process.is_alive():
                try:
                    with worker.ring_lock:
                        worker.request_ring.write(KIND_STOP, [], timeout=0.2)
                    worker.doorbell.release()
                except (RingTimeout, ValueError):
                    pass
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.process.join(max(0.1, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            if worker.process.is_alive():  # pragma: no cover - last resort
                worker.process.kill()
                worker.process.join(1.0)
            worker.alive = False

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop workers, fail leftover futures, unlink both segments."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._teardown_processes(timeout)
        self._collector_stop = True
        self._response_doorbell.release()
        collector = getattr(self, "_collector", None)
        if collector is not None and collector.is_alive():
            collector.join(timeout)
        with self._lock:
            leftover = list(self._pending.values())
            self._pending.clear()
        for pending in leftover:
            pending.future.set_exception(BrokenWorkerPool("worker pool shut down"))
        destroy_segment(self._segment)
        self.image.close()
        self.image.unlink()
        release_blas_thread()
        finalizer = getattr(self, "_finalizer", None)
        if finalizer is not None:
            finalizer.detach()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        alive = sum(1 for w in self._workers if w.alive)
        return (
            f"WorkerPool(procs={self.procs}, alive={alive}, "
            f"ring_bytes={self.ring_bytes}, closed={self._closed})"
        )


def _forward_future(target: Future):
    def _done(done: Future) -> None:
        error = done.exception()
        if error is not None:
            target.set_exception(error)
        else:
            target.set_result(done.result())

    return _done
