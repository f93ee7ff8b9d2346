"""Tests for runtime BLAS thread control, the serving one-thread rule and
the fork rule of worker-pool owners."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import cli, runtime
from repro.cli import main
from repro.models import patternnet
from repro.runtime import WorkerPool, blas

managed = pytest.mark.skipif(
    blas.blas_threads() is None, reason="BLAS library not controllable here"
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


@pytest.fixture
def no_thread_env(monkeypatch):
    """Unset the operator's BLAS thread variables so the serving rule fires."""
    for var in blas.THREAD_ENV_VARS:
        monkeypatch.delenv(var, raising=False)


@pytest.fixture
def restore_threads():
    """Put the process's BLAS thread count back after the test."""
    before = blas.blas_threads()
    yield before
    if before is not None:
        blas.set_blas_threads(before)


@managed
def test_get_set_round_trip(restore_threads):
    info = blas.blas_info()
    assert info["threads"] == restore_threads
    assert "blas" in info["library"].lower()
    assert blas.set_blas_threads(1) == restore_threads
    assert blas.blas_threads() == 1
    assert blas.set_blas_threads(2) == 1
    assert blas.blas_threads() == 2


@managed
def test_non_positive_count_changes_nothing(restore_threads):
    assert blas.set_blas_threads(0) is None
    assert blas.set_blas_threads(-1) is None
    assert blas.blas_threads() == restore_threads


@managed
def test_holds_nest_and_last_release_restores(restore_threads):
    blas.set_blas_threads(2)
    assert blas.hold_one_blas_thread() == 2
    assert blas.hold_one_blas_thread() == 2
    assert blas.blas_threads() == 1
    blas.release_blas_thread()
    assert blas.blas_threads() == 1
    blas.release_blas_thread()
    assert blas.blas_threads() == 2
    blas.release_blas_thread()  # unmatched: no effect
    assert blas.blas_threads() == 2


def _finds_nothing():
    return []


def _maps_unreadable():
    raise OSError("no /proc/self/maps on this host")


@pytest.mark.parametrize("discovery", [_finds_nothing, _maps_unreadable])
def test_unmanaged_returns_none_without_raising(monkeypatch, no_thread_env, discovery):
    monkeypatch.setattr(blas, "_mapped_blas_paths", discovery)
    blas._controls.cache_clear()
    try:
        assert blas.blas_threads() is None
        assert blas.set_blas_threads(1) is None
        assert blas.hold_one_blas_thread() is None
        blas.release_blas_thread()
        assert blas.serving_blas_threads(None) is None
        assert blas.blas_info() == {"library": None, "threads": None}
    finally:
        blas._controls.cache_clear()


@managed
def test_explicit_thread_env_is_respected(monkeypatch, restore_threads):
    blas.set_blas_threads(2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert blas.serve_on_one_blas_thread() is False
    assert blas.serving_blas_threads(2) == 2
    assert blas.blas_threads() == 2

    seen = []

    def run(args, server, served):
        seen.append(blas.blas_threads())
        server.stop()
        return 0

    monkeypatch.setattr(cli, "_run_server", run)
    assert main(["serve", "--model", "patternnet"]) == 0
    assert seen == [2]
    assert blas.blas_threads() == 2


@managed
def test_serve_restores_thread_count_after_exit(no_thread_env, restore_threads):
    blas.set_blas_threads(2)
    assert main(["serve", "--model", "patternnet", "--port", "70000"]) == 2
    assert blas.blas_threads() == 2


@managed
def test_serve_runs_one_blas_thread_and_restores_on_error(
    monkeypatch, no_thread_env, restore_threads
):
    seen = []

    def failing_run(args, server, served):
        seen.append(blas.blas_threads())
        server.stop()
        raise RuntimeError("serve loop died")

    blas.set_blas_threads(2)
    monkeypatch.setattr(cli, "_run_server", failing_run)
    with pytest.raises(RuntimeError):
        main(["serve", "--model", "patternnet"])
    assert seen == [1]
    assert blas.blas_threads() == 2


@pytest.fixture(scope="module")
def compiled():
    return runtime.compile_model(
        patternnet(rng=np.random.default_rng(0)), input_shape=(3, 16, 16)
    )


# A forked worker inherits the owner's held count; a spawned one starts
# from the environment, so only "spawn" shows a worker that skips the rule.
@managed
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_worker_pool_processes_run_one_blas_thread(
    compiled, no_thread_env, restore_threads, start_method
):
    blas.set_blas_threads(2)
    with WorkerPool(compiled, 1, ring_bytes=1 << 20, start_method=start_method) as pool:
        assert pool.worker_health()[0]["blas_threads"] == 1
        assert blas.blas_threads() == 1  # the owner, by the fork rule
    assert blas.blas_threads() == 2


@managed
def test_worker_pool_keeps_operator_count_in_workers(
    compiled, monkeypatch, restore_threads
):
    blas.set_blas_threads(2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    with WorkerPool(compiled, 1, ring_bytes=1 << 20) as pool:
        assert pool.worker_health()[0]["blas_threads"] == 2
        assert blas.blas_threads() == 1  # the fork rule overrides the owner's
    assert blas.blas_threads() == 2


# A GEMM running on two OpenBLAS threads in one thread while another
# thread forks hangs for good (OpenBLAS's fork handler stops its thread
# pool under the call). The pool owner's fork rule must keep GEMMs in
# the owner running through worker respawns; a subprocess keeps a hang
# out of the test process.
_RESPAWN_UNDER_GEMMS = textwrap.dedent(
    """
    import os, signal, threading, time
    import numpy as np
    from repro import runtime
    from repro.models import patternnet
    from repro.runtime import WorkerPool, blas

    blas.set_blas_threads(2)
    compiled = runtime.compile_model(
        patternnet(rng=np.random.default_rng(0)), input_shape=(3, 16, 16)
    )
    a = np.random.default_rng(1).standard_normal((192, 192)).astype(np.float32)
    done = [0]

    def gemms():
        while True:
            a @ a
            done[0] += 1

    with WorkerPool(compiled, 1, ring_bytes=1 << 20) as pool:
        threading.Thread(target=gemms, daemon=True).start()
        for _ in range(5):
            os.kill(pool.worker_health()[0]["pid"], signal.SIGKILL)
            while pool.worker_health()[0]["alive"]:
                time.sleep(0.01)
            pool.respawn_worker(0)
            before, deadline = done[0], time.monotonic() + 5
            while done[0] == before and time.monotonic() < deadline:
                time.sleep(0.01)
            if done[0] == before:
                print("owner GEMM hung after a respawn fork", flush=True)
                os._exit(1)
    print("ok", blas.blas_threads(), flush=True)
    """
)


@managed
def test_owner_gemms_survive_worker_respawns(no_thread_env):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    result = subprocess.run(
        [sys.executable, "-c", _RESPAWN_UNDER_GEMMS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.split() == ["ok", "2"]
