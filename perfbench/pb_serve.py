"""Serving workload: ``repro.cli serve`` driven open-loop from one process.

The server runs as a subprocess (patternnet, n=2, |P|=4, CLI defaults
otherwise). One single-threaded generator drives it on seeded Poisson
schedules, with at most ``nproc`` connections:

1. stream at ``STREAM_RPS`` (the reference operating point),
2. HTTP at ``HTTP_RPS``,
3. a stream rate ladder, stopped after two steps in a row miss the SLO.

Latency is timed from each request's due time. Server-side numbers are
differences of ``/stats`` and ``/metrics`` scraped at phase boundaries
and of ``/proc/<pid>/stat`` CPU time. Every response is compared with
the float64 eager reference prediction of its own frame.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import re
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time

import numpy as np

from pb_common import (
    OUT_DIR, ROOT, SRC, BenchError, Tracer, cpu_seconds, percentile,
    supports, tail_percentile, vm_hwm_mb,
)
from pb_offline import build, reference, runtime_metrics, weight_compression

MODEL = "patternnet"
N_NONZERO = 2
PATTERNS = 4
MAX_QUEUE = 512
#: Latency limit on a ladder step's p90 for the capacity figure (p99 on
#: this class of machine is set by sporadic ~40 ms stalls and does not repeat).
SLO_MS = 50.0
SLO_PERCENTILE = 90.0
HTTP_RPS = 100.0
STREAM_RPS = 800.0
#: Stream ladder rates (req/s) across the knee, about 7% apart near it.
LADDER = (1150, 1300, 1500, 1700, 1850, 2000, 2150, 2300, 2450, 2600, 2800,
          3000, 3250, 3500, 4000, 4600)
#: The ladder stops after this many missing steps in a row: a stall can
#: spoil one step, a saturated server spoils every step after the knee.
LADDER_MISSES = 2
#: Share of ``--seconds`` given to the fixed-rate stream and HTTP phases
#: and to each ladder step.
STREAM_SHARE = 0.3
HTTP_SHARE = 0.5
STEP_SHARE = 0.04
#: Latency percentiles are medians over slices: quarter-second slices of
#: the fixed-rate stream phase, this many slices of a ladder step.
STEP_WINDOWS = 4
#: A phase whose generator sent its p99 request later than this is invalid.
LATE_BOUND_MS = 25.0
#: Distinct frames the requests cycle through (consecutive frames on a
#: connection always differ, so the per-stream delta cache never hits).
FRAME_POOL = 2048
#: Server spawns per run; setup_s is their median (a spawn takes ~0.5 s,
#: so single spawns vary by a quarter with host load).
SETUP_REPEATS = 5
#: Correctness gate on max|out - ref| / max|ref| per response.
TOLERANCE = 1e-4
#: A ladder step stops sending once this many seconds of arrivals (at
#: most half of ``MAX_QUEUE``) are outstanding, so the probe sheds nothing.
ABORT_BACKLOG_S = 0.2
#: How long stragglers may take after a phase's last due time.
DRAIN_S = 5.0
SPAWN_TIMEOUT_S = 120.0
TAIL_TARGET = 99.0

_TAGS = {"stream": 1, "http": 2, "ladder": 3}


# -- inputs --------------------------------------------------------------
def make_frames(seed: int, shape, size: int = FRAME_POOL) -> np.ndarray:
    """Seeded frames on a 1/64 grid: exact in float32 and short in JSON."""
    rng = np.random.default_rng([seed, 0x5E4E])
    return (np.round(rng.standard_normal((size, *shape)) * 64) / 64).astype(np.float32)


def poisson_schedule(seed: int, phase: str, index: int, rate: float, count: int) -> np.ndarray:
    """``count`` Poisson arrival offsets (seconds) at ``rate`` req/s."""
    rng = np.random.default_rng([seed, _TAGS[phase], index])
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def phase_plan(seed: int, seconds: float) -> list:
    """Every phase's ``(phase, rate, offsets)``, fixed by seed and seconds."""
    plan = [
        ("stream", STREAM_RPS,
         poisson_schedule(seed, "stream", 0, STREAM_RPS, max(1, int(STREAM_RPS * seconds * STREAM_SHARE)))),
        ("http", HTTP_RPS,
         poisson_schedule(seed, "http", 0, HTTP_RPS, max(1, int(HTTP_RPS * seconds * HTTP_SHARE)))),
    ]
    for index, rate in enumerate(LADDER):
        plan.append(("ladder", float(rate),
                     poisson_schedule(seed, "ladder", index, rate,
                                      max(1, int(rate * seconds * STEP_SHARE)))))
    return plan


# -- server process --------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def http_get(port: int, path: str, timeout: float = 10.0) -> tuple:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One ``repro.cli serve`` subprocess; ``setup_s`` is spawn to /healthz."""

    def __init__(self, log_path: str) -> None:
        self.port = _free_port()
        self.stream_port = _free_port()
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--model", MODEL, "--n", str(N_NONZERO), "--patterns", str(PATTERNS),
            "--port", str(self.port), "--stream-port", str(self.stream_port),
            "--max-queue", str(MAX_QUEUE),
        ]
        env = dict(os.environ, PYTHONPATH=SRC)
        self._log = open(log_path, "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=self._log,
                                     stderr=subprocess.STDOUT)
        try:
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + SPAWN_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited with code {self.proc.returncode} before /healthz")
            try:
                status, _ = http_get(self.port, "/healthz", timeout=1.0)
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise BenchError(f"server not healthy after {SPAWN_TIMEOUT_S:g}s")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


# -- scrapes -----------------------------------------------------------------
_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_metrics(text: str) -> dict:
    """Prometheus text -> ``{(name, ((label, value), ...)): float}``."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        key = tuple(sorted(_LABEL.findall(labels or "")))
        samples[(name, key)] = float(value)
    return samples


def scrape(server: Server, tracer: Tracer, label: str) -> dict:
    with tracer.span("scrape", at=label):
        _, stats = http_get(server.port, "/stats")
        _, metrics = http_get(server.port, "/metrics")
        return {
            "t": time.perf_counter(),
            "cpu": cpu_seconds(server.proc.pid),
            "stats": json.loads(stats)[MODEL],
            "metrics": parse_metrics(metrics.decode()),
        }


def _metric(scraped: dict, name: str, **labels) -> float:
    key = tuple(sorted(labels.items()))
    return scraped["metrics"].get((name, key), 0.0)


def histogram_p50_ms(before: dict, after: dict) -> float:
    """Server-side latency p50 of the requests between two scrapes,
    interpolated inside the ``/metrics`` histogram bucket."""
    name = "repro_request_latency_seconds_bucket"
    bounds = sorted(
        float(dict(key)["le"]) for (metric, key) in after["metrics"]
        if metric == name and dict(key).get("model") == MODEL
    )
    cum = [
        _metric(after, name, le=_le(b), model=MODEL) - _metric(before, name, le=_le(b), model=MODEL)
        for b in bounds
    ]
    total = cum[-1]
    if total <= 0:
        raise BenchError("no server-side latencies between scrapes")
    target = 0.5 * total
    lower, below = 0.0, 0.0
    for bound, count in zip(bounds, cum):
        if count >= target:
            upper = bound if np.isfinite(bound) else lower
            share = (target - below) / max(count - below, 1e-12)
            return (lower + share * (upper - lower)) * 1e3
        lower, below = bound, count
    raise BenchError("histogram p50 not found")


def _le(bound: float) -> str:
    if not np.isfinite(bound):
        return "+Inf"
    return str(int(bound)) if float(bound) == int(bound) else repr(float(bound))


def _batch_mix(before: dict, after: dict) -> tuple:
    """(flushes, requests) coalesced between two scrapes."""
    h0 = before["stats"]["batch_histogram"]
    h1 = after["stats"]["batch_histogram"]
    flushes = sum(v - h0.get(k, 0) for k, v in h1.items())
    requests = sum(int(k) * (v - h0.get(k, 0)) for k, v in h1.items())
    return flushes, requests


# -- open-loop generator -----------------------------------------------------
class Phase:
    """Per-request outcome arrays of one phase."""

    def __init__(self, name: str, rate: float, offsets: np.ndarray, first_frame: int) -> None:
        n = len(offsets)
        self.name, self.rate, self.offsets = name, rate, offsets
        self.frames = (first_frame + np.arange(n)) % FRAME_POOL
        self.due = np.zeros(n)
        self.sent = np.full(n, np.nan)
        self.answered = np.full(n, np.nan)
        self.ok = np.zeros(n, dtype=bool)
        self.errors = collections.Counter()
        self.outputs = [None] * n
        #: Requests outstanding (sent or waiting, not answered) at each send.
        self.backlog = np.zeros(n)
        #: Set when sending stopped early because the queue diverged.
        self.aborted = False

    @property
    def n(self) -> int:
        return len(self.offsets)

    def latency_ms(self) -> np.ndarray:
        return (self.answered[self.ok] - self.due[self.ok]) * 1e3

    def windowed_ms(self, q: float, windows: int) -> float:
        """Median over equal slices of the phase (by due time) of each
        slice's ``q``-th latency percentile: one stall spoils one slice,
        while a diverging queue spoils the later half."""
        edges = np.linspace(self.offsets[0], self.offsets[-1], windows + 1)
        slot = np.clip(np.searchsorted(edges, self.offsets, side="right") - 1, 0, windows - 1)
        lat = (self.answered - self.due) * 1e3
        per_slice = []
        for w in range(windows):
            sample = lat[self.ok & (slot == w)]
            per_slice.append(percentile(sample, q) if supports(len(sample), q) else np.inf)
        return statistics.median(per_slice)

    def late_ms(self) -> np.ndarray:
        sent = ~np.isnan(self.sent)
        return (self.sent[sent] - self.due[sent]) * 1e3

    def failed(self) -> int:
        return int(self.n - self.ok.sum())

    def truncate(self, k: int) -> None:
        """Keep only the first ``k`` requests (the rest were never sent)."""
        self.aborted = True
        for name in ("offsets", "frames", "due", "sent", "answered", "ok", "outputs", "backlog"):
            setattr(self, name, getattr(self, name)[:k])


class _StreamConn:
    def __init__(self, port: int) -> None:
        from repro.serving.wire import FrameReader, KIND_HELLO, KIND_HELLO_ACK, encode_meta_frame

        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = FrameReader()
        self.sock.sendall(encode_meta_frame(KIND_HELLO, 0, {"model": MODEL}))
        while True:
            data = self.sock.recv(1 << 16)
            if not data:
                raise BenchError("stream server closed during handshake")
            events = self.reader.feed(data)
            if any(getattr(e, "kind", None) == KIND_HELLO_ACK for e in events):
                break
        self.sock.setblocking(False)
        self.out = bytearray()
        self.seq = 0

    def close(self) -> None:
        self.sock.close()


def _flush(conn) -> None:
    try:
        sent = conn.sock.send(conn.out)
    except BlockingIOError:
        return
    del conn.out[:sent]


def run_stream(conns: list, phase: Phase, frames: np.ndarray, max_backlog=None) -> None:
    """Drive one stream phase: send on schedule, read whatever arrives.

    With ``max_backlog``, sending stops once more requests than that are
    outstanding: the step has already missed, and going on would only
    overflow the server's admission queue.
    """
    from repro.serving.wire import FrameError, KIND_REQUEST, KIND_RESPONSE, encode_tensor_frame

    sel = selectors.DefaultSelector()
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    pending = {}
    rid = 0
    k = 0
    answered = 0
    start = time.perf_counter() + 0.01
    phase.due = start + phase.offsets
    end = phase.due[-1] + DRAIN_S
    limit = phase.n
    try:
        while answered < limit:
            now = time.perf_counter()
            if now > end:
                break
            while k < limit and phase.due[k] <= now:
                if max_backlog is not None and k - answered > max_backlog:
                    limit = k
                    break
                conn = conns[k % len(conns)]
                rid += 1
                pending[rid] = k
                conn.out += encode_tensor_frame(
                    KIND_REQUEST, rid, frames[phase.frames[k]], seq=conn.seq
                )
                conn.seq += 1
                _flush(conn)
                phase.sent[k] = time.perf_counter()
                phase.backlog[k] = k - answered
                k += 1
            for conn in conns:
                mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
                sel.modify(conn.sock, mask, conn)
            timeout = 0.05 if k >= limit else max(0.0, phase.due[k] - time.perf_counter())
            for key, mask in sel.select(timeout):
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    _flush(conn)
                if not mask & selectors.EVENT_READ:
                    continue
                try:
                    data = conn.sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                if not data:
                    raise BenchError("stream connection closed by server")
                stamp = time.perf_counter()
                for event in conn.reader.feed(data):
                    if isinstance(event, FrameError):
                        raise BenchError(f"undecodable frame from server: {event}")
                    i = pending.pop(event.request_id, None)
                    if i is None:
                        raise BenchError(f"response for unknown request {event.request_id}")
                    answered += 1
                    phase.answered[i] = stamp
                    if event.kind == KIND_RESPONSE:
                        phase.ok[i] = True
                        phase.outputs[i] = event.tensor
                    else:
                        phase.errors[str((event.meta or {}).get("kind", "error"))] += 1
    finally:
        sel.close()
    if limit < phase.n:
        phase.truncate(limit)
    phase.errors["timeout"] += len(pending)


class _HttpCall:
    def __init__(self, index: int, request: bytes, port: int) -> None:
        self.index = index
        self.out = bytearray(request)
        self.buf = bytearray()
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.sock.connect_ex(("127.0.0.1", port))


def http_request(body: bytes) -> bytes:
    head = (
        "POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode() + body


def parse_http_response(raw: bytes) -> tuple:
    head, _, body = bytes(raw).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body) if body else {}


def run_http(port: int, slots: int, phase: Phase, bodies: dict) -> None:
    """Drive the HTTP phase: at most ``slots`` requests in flight, one
    connection each (the server answers HTTP/1.0 and closes)."""
    sel = selectors.DefaultSelector()
    waiting = collections.deque()
    active = 0
    k = 0
    done = 0
    start = time.perf_counter() + 0.01
    phase.due = start + phase.offsets
    end = phase.due[-1] + DRAIN_S
    try:
        while done < phase.n:
            now = time.perf_counter()
            if now > end:
                break
            while k < phase.n and phase.due[k] <= now:
                # Issued now; the wait for a free connection is latency.
                phase.sent[k] = time.perf_counter()
                phase.backlog[k] = active + len(waiting)
                waiting.append(k)
                k += 1
            while waiting and active < slots:
                i = waiting.popleft()
                call = _HttpCall(i, http_request(bodies[phase.frames[i]]), port)
                sel.register(call.sock, selectors.EVENT_WRITE, call)
                active += 1
            timeout = 0.05 if k >= phase.n else max(0.0, phase.due[k] - time.perf_counter())
            for key, mask in sel.select(timeout):
                call = key.data
                try:
                    if mask & selectors.EVENT_WRITE:
                        del call.out[:call.sock.send(call.out)]
                        if not call.out:
                            sel.modify(call.sock, selectors.EVENT_READ, call)
                        continue
                    data = call.sock.recv(1 << 16)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError:  # refused or reset: the request gets no answer
                    data, call.buf = b"", bytearray()
                if data:
                    call.buf += data
                    continue
                phase.answered[call.index] = time.perf_counter()
                sel.unregister(call.sock)
                call.sock.close()
                active -= 1
                done += 1
                if not call.buf:
                    phase.errors["no_response"] += 1
                    continue
                status, payload = parse_http_response(call.buf)
                if status == 200:
                    phase.ok[call.index] = True
                    phase.outputs[call.index] = np.asarray(payload["outputs"][0])
                else:
                    phase.errors[str(payload.get("error", {}).get("kind", status))] += 1
    finally:
        for key in list(sel.get_map().values()):
            key.fileobj.close()
        sel.close()
    phase.errors["timeout"] += phase.n - done


# -- evaluation ------------------------------------------------------------------
def check_phase(phase: Phase, refs: np.ndarray) -> np.ndarray:
    """Relative error of every answered response; wrong answers stop counting as ok."""
    rel = np.full(phase.n, np.nan)
    for i in np.flatnonzero(phase.ok):
        ref = refs[phase.frames[i]]
        out = np.asarray(phase.outputs[i], dtype=np.float64).reshape(ref.shape)
        rel[i] = np.max(np.abs(out - ref)) / np.max(np.abs(ref))
        if not rel[i] <= TOLERANCE:
            phase.ok[i] = False
            phase.errors["wrong_answer"] += 1
    return rel


def backlog_grows(phase: Phase) -> bool:
    """True when the queue diverges: the outstanding count over the last
    quarter of the phase exceeds that of the second quarter by more than
    half the SLO's worth of arrivals."""
    q = phase.n // 4
    if q < 10:
        return False
    growth = float(np.mean(phase.backlog[3 * q:]) - np.mean(phase.backlog[q:2 * q]))
    return growth / phase.rate > 0.5 * SLO_MS / 1e3


def step_verdict(phase: Phase) -> dict:
    """SLO verdict of one stream phase at a fixed rate."""
    late = phase.late_ms()
    late_tail = percentile(late, min(TAIL_TARGET, tail_percentile(len(late))))
    verdict = {
        "rate": phase.rate, "requests": phase.n, "failed": phase.failed(),
        "slo_ms": phase.windowed_ms(SLO_PERCENTILE, STEP_WINDOWS), "late_ms": late_tail,
        "valid": late_tail <= LATE_BOUND_MS,
        "backlog_grows": phase.aborted or backlog_grows(phase),
    }
    verdict["meets_slo"] = (
        verdict["valid"] and verdict["failed"] == 0 and verdict["slo_ms"] <= SLO_MS
        and not verdict["backlog_grows"]
    )
    return verdict


def knee_rps(steps: list) -> float:
    """Highest rate meeting the SLO, interpolated towards the next step.

    ``steps`` are the stream phases in rising rate order. Between the
    highest passing step (p90 ``a`` at rate ``r_a``) and the step after
    it (p90 ``b`` at ``r_b``), the rate where the p90 crosses the SLO is
    interpolated linearly. When that step missed only on failures,
    backlog or an invalid generator (``b`` within the SLO), or there is
    none, the result is ``r_a``.
    """
    passed = [i for i, step in enumerate(steps) if step["meets_slo"]]
    if not passed:
        return 0.0
    passing = steps[passed[-1]]
    if passed[-1] + 1 == len(steps):
        return passing["rate"]
    a, b = passing["slo_ms"], steps[passed[-1] + 1]["slo_ms"]
    if not b > SLO_MS:
        return passing["rate"]
    return passing["rate"] + (SLO_MS - a) / (b - a) * (steps[passed[-1] + 1]["rate"] - passing["rate"])


# -- the workload -----------------------------------------------------------------
def run_serve(*, seed: int, seconds: float, tracer: Tracer) -> dict:
    from repro.models import model_input_shape

    shape = model_input_shape(MODEL)
    frames = make_frames(seed, shape)
    planned, first = [], 0
    for name, rate, offsets in phase_plan(seed, seconds):
        planned.append(Phase(name, rate, offsets, first))
        first += len(offsets)
    http_frames = next(p for p in planned if p.name == "http").frames
    bodies = {i: json.dumps({"input": frames[i].tolist()}).encode() for i in set(http_frames.tolist())}

    # The reference model: the same registry weights and pruning the server uses.
    built = build(MODEL, N_NONZERO, PATTERNS, quantize=None, calibration=None,
                  example=frames[:32], tracer=tracer)
    refs = np.concatenate([reference(built.model, frames[i:i + 256])
                           for i in range(0, FRAME_POOL, 256)])

    os.makedirs(OUT_DIR, exist_ok=True)
    log_path = os.path.join(OUT_DIR, f"server-seed{seed}.log")
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        with tracer.span("serve.spawn"):
            probe = Server(log_path)
        probe.stop()
        setups.append(probe.setup_s)
    with tracer.span("serve.spawn"):
        server = Server(log_path)
    setups.append(server.setup_s)
    conns = []
    try:
        _, models = http_get(server.port, "/models")
        schedules = json.loads(models)[MODEL].get("schedules", [])
        slots = min(2, len(os.sched_getaffinity(0)))
        conns = [_StreamConn(server.stream_port) for _ in range(slots)]
        phases, scrapes = [], [scrape(server, tracer, "start")]
        for phase in planned:
            label = f"{phase.name}@{phase.rate:g}"
            if phase.name == "ladder" and all(
                    p.name == "ladder" and not p.verdict["meets_slo"] for p in phases[-LADDER_MISSES:]):
                break
            with tracer.span("phase", phase=label):
                if phase.name == "http":
                    run_http(server.port, slots, phase, bodies)
                elif phase.name == "ladder":
                    run_stream(conns, phase, frames,
                               max_backlog=int(min(phase.rate * ABORT_BACKLOG_S, MAX_QUEUE / 2)))
                else:
                    run_stream(conns, phase, frames)
            scrapes.append(scrape(server, tracer, label))
            phase.rel = check_phase(phase, refs)
            phase.verdict = step_verdict(phase)
            phases.append(phase)
            tracer.record_requests(label, phase.due, phase.sent, phase.answered)
        peak = vm_hwm_mb(server.proc.pid)
    finally:
        for conn in conns:
            conn.close()
        server.stop()

    stream, http_ph = phases[0], phases[1]
    for fixed in (stream, http_ph):
        if not fixed.verdict["valid"]:
            raise BenchError(
                f"{fixed.name} phase invalid: generator p99 lateness "
                f"{fixed.verdict['late_ms']:.1f} ms > {LATE_BOUND_MS:g} ms"
            )
    s0, s_stream, s_http = scrapes[0], scrapes[1], scrapes[2]
    lat = stream.latency_ms()
    tail_q = min(TAIL_TARGET, tail_percentile(len(lat)))
    tail = percentile(lat, tail_q)
    # Quarter-second slices (about 200 requests, so each supports its
    # p90): host CPU steal comes in bursts, and the median slice misses them.
    stream_windows = max(1, int(4 * stream.offsets[-1]))
    rel = np.concatenate([p.rel[~np.isnan(p.rel)] for p in phases])
    agree = np.concatenate([
        [np.argmax(p.outputs[i]) == np.argmax(refs[p.frames[i]]) for i in np.flatnonzero(p.ok)]
        for p in phases
    ])
    # Answered per second at the fixed stream rate: the offered rate while
    # the server keeps up. Capacity is the ladder's serving.max_rps_at_slo,
    # a per-layer figure: it moves 10-20% between runs on a 2-core box.
    completed = int(stream.ok.sum())
    cpu_stream = s_stream["cpu"] - s0["cpu"]
    ladder_steps = [stream.verdict] + [p.verdict for p in phases[2:]]
    attempted = sum(p.n for p in phases)
    failed = sum(p.failed() for p in phases)
    wrong = sum(p.errors["wrong_answer"] for p in phases)

    end_to_end = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (peak, "MB", 1),
        "rel_err": (float(np.median(rel)), "ratio", len(rel)),
        "top1_agree": (float(np.mean(agree)), "ratio", len(agree)),
        "weight_compression_x": (weight_compression(built.encodings, 32), "x", len(built.encodings)),
        "images_per_s": (completed / (np.nanmax(stream.answered) - stream.due[0]), "1/s", completed),
        "cpu_ms_per_image": (cpu_stream * 1e3 / max(completed, 1), "ms", completed),
    }
    latency = {"latency_p50_ms": stream.windowed_ms(50, stream_windows),
               "latency_p90_ms": stream.windowed_ms(90, stream_windows)}
    notes = {
        "latency": f"stream at {STREAM_RPS:g} req/s: p50 {latency['latency_p50_ms']:.2f} ms, "
                   f"p90 {latency['latency_p90_ms']:.2f} ms over {len(lat)} requests",
        "serving.max_rps_at_slo": "stream ladder, p%g <= %g ms: %s" % (SLO_PERCENTILE, SLO_MS, ", ".join(
            f"{s['rate']:g}:{'ok' if s['meets_slo'] else 'miss'}(p90={s['slo_ms']:.1f}ms,"
            f"late={s['late_ms']:.1f}ms,failed={s['failed']}"
            f"{',backlog' if s['backlog_grows'] else ''})"
            for s in ladder_steps)),
        "stream.tail_ms": f"p{tail_q:g} of {len(lat)} stream requests at {STREAM_RPS:g} req/s",
        "rel_err": f"median over {len(rel)} responses; max {np.max(rel):.3g} (gate {TOLERANCE:g})",
        "failures": {p.name + f"@{p.rate:g}": dict(p.errors) for p in phases if p.failed()},
    }

    per_layer = {}
    if tracer.enabled:
        compiled = built.compiled
        batch = frames[:32]
        calls = []
        for _ in range(20):
            with tracer.span("runtime.call"):
                t = time.perf_counter()
                compiled(batch)
                calls.append(time.perf_counter() - t)
        per_layer = runtime_metrics(
            tracer, built, statistics.median(calls) * 1e3, len(batch),
            [{p.name: p.seconds for p in compiled.passes}], schedules, compiled.memory_report(),
        )
        flushes, coalesced = _batch_mix(s0, s_stream)
        model_s = s_stream["stats"]["model_seconds"] - s0["stats"]["model_seconds"]
        end_stats = scrapes[-1]["stats"]
        frames_total = (_metric(scrapes[-1], "repro_stream_frames_total", model=MODEL)
                        - _metric(s0, "repro_stream_frames_total", model=MODEL))
        hits_total = (_metric(scrapes[-1], "repro_stream_cache_hits_total", model=MODEL)
                      - _metric(s0, "repro_stream_cache_hits_total", model=MODEL))
        http_lat = http_ph.latency_ms()
        http_q = min(TAIL_TARGET, tail_percentile(len(http_lat)))
        per_layer.update({
            "serving.max_rps_at_slo": knee_rps(ladder_steps),
            "serving.mean_batch": coalesced / max(flushes, 1),
            "serving.queue_p50_ms": s_stream["stats"]["queue_p50_ms"],
            "serving.queue_p95_ms": s_stream["stats"]["queue_p95_ms"],
            "serving.forward_ms_per_batch": model_s * 1e3 / max(flushes, 1),
            "serving.shed.queue_full": end_stats["shed"].get("queue_full", 0),
            "serving.shed.slo": end_stats["shed"].get("slo", 0),
            "serving.cpu_util": cpu_stream / (s_stream["t"] - s0["t"]),
            "http.p50_ms": percentile(http_lat, 50),
            "http.tail_ms": percentile(http_lat, http_q),
            "http.transport_ms": percentile(http_lat, 50) - histogram_p50_ms(s_stream, s_http),
            "stream.tail_ms": tail,
            "stream.transport_ms": percentile(lat, 50) - histogram_p50_ms(s0, s_stream),
            "stream.cache_hit_rate": hits_total / max(frames_total, 1),
            "gen.late_p99_ms": max(v["late_ms"] for v in [p.verdict for p in phases]),
            "trace.images_per_s": end_to_end["images_per_s"][0],
        })
        per_layer.update(latency)
        notes["http.tail_ms"] = f"p{http_q:g} of {len(http_lat)} requests at {HTTP_RPS:g} req/s"
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "notes": notes,
    }
