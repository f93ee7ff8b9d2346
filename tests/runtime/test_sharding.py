"""Tests for sharded compiled calls: one shard per BLAS thread, each on
one BLAS thread, plus the per-op lock on lazily derived operands.

The thread count is forced through the reader in ``repro.runtime.blas``
rather than the environment, so these tests shard on every BLAS leg,
including ``OPENBLAS_NUM_THREADS=1``.
"""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from repro import runtime
from repro.core import PCNNConfig, PCNNPruner
from repro.models import patternnet, resnet18_cifar, vgg16_cifar
from repro.runtime import blas
from repro.runtime import compile as compile_module
from repro.runtime.winograd import F32_REL_TOL

REAL_READER = blas.blas_threads


def force_blas_threads(monkeypatch, count):
    """Make the sharding rule see ``count`` BLAS threads."""
    monkeypatch.setattr(blas, "blas_threads", lambda: count)


def pruned_vgg16():
    model = vgg16_cifar(rng=np.random.default_rng(1))
    pruner = PCNNPruner(model, PCNNConfig.uniform(2, 13))
    pruner.apply()
    pruner.attach_encodings()
    return runtime.compile_model(model)


def small_model():
    """patternnet at 3x16x16: 0.7 M MAC/image, so 6 images per shard."""
    return runtime.compile_model(
        patternnet(rng=np.random.default_rng(0)), input_shape=(3, 16, 16)
    )


def images(n, shape=(3, 16, 16), seed=0):
    return np.random.default_rng(seed).standard_normal((n, *shape)).astype(np.float32)


def trace_keys(state):
    return set(state.traces)


class TestShardRule:
    def test_one_thread_never_shards(self, monkeypatch):
        compiled = small_model()
        force_blas_threads(monkeypatch, 1)
        assert compiled.shard_count((64, 3, 16, 16)) == 1
        force_blas_threads(monkeypatch, None)  # unmanaged BLAS
        assert compiled.shard_count((64, 3, 16, 16)) == 1

    def test_shards_get_two_images_at_least(self, monkeypatch):
        compiled = runtime.compile_model(vgg16_cifar(rng=np.random.default_rng(1)))
        force_blas_threads(monkeypatch, 2)
        assert compiled.shard_count((2, 3, 32, 32)) == 1
        assert compiled.shard_count((3, 3, 32, 32)) == 1
        assert compiled.shard_count((4, 3, 32, 32)) == 2

    def test_every_shard_clears_the_floor(self, monkeypatch):
        compiled = small_model()
        force_blas_threads(monkeypatch, 4)
        macs = compiled._image_macs  # filled by shard_count
        assert compiled.shard_count((11, 3, 16, 16)) == 1
        (per_image,) = list(macs.values())
        assert 5 * per_image < compile_module.SHARD_FLOOR_MACS <= 6 * per_image
        assert compiled.shard_count((12, 3, 16, 16)) == 2
        assert compiled.shard_count((18, 3, 16, 16)) == 3
        assert compiled.shard_count((1000, 3, 16, 16)) == 4

    @pytest.mark.parametrize("make", [vgg16_cifar, resnet18_cifar])
    def test_macs_match_the_flops_profile(self, make):
        from repro.models import profile_model

        model = make(rng=np.random.default_rng(1))
        compiled = runtime.compile_model(model)
        convs = []
        compiled._walk_geometry(compiled.ops, (3, 32, 32), convs)
        assert sum(c.macs for c in convs) == profile_model(model, (3, 32, 32)).conv_macs

    def test_predict_fan_out_holds_one_thread(self, monkeypatch):
        compiled = small_model()
        seen = []
        original = compile_module.CompiledModel.shard_count

        def spy(self, shape):
            seen.append(REAL_READER())
            return original(self, shape)

        monkeypatch.setattr(compile_module.CompiledModel, "shard_count", spy)
        before = REAL_READER()
        runtime.predict(compiled, images(24), workers=2)
        assert REAL_READER() == before
        if before is not None:
            assert seen == [1, 1]


class TestShardedCalls:
    @pytest.mark.parametrize("batch", [32, 4])
    def test_matches_the_unsharded_call(self, monkeypatch, batch):
        """At the benchmark's batch the shards' GEMMs run the same BLAS
        kernels as the whole batch's, so the output is bit-identical to
        the unsharded one-thread call. At 2 images per shard the deep
        layers' GEMMs cross OpenBLAS's small-matrix threshold and may
        round differently; every batch stays within the float32 error
        contract of the default-thread call."""
        compiled = pruned_vgg16()
        x = images(batch, (3, 32, 32), seed=3)
        force_blas_threads(monkeypatch, 2)
        compiled(x)  # records both shard traces
        sharded = compiled(x)
        assert len(compiled._shards) == 2
        force_blas_threads(monkeypatch, 1)
        default = compiled(x)  # unsharded, BLAS at its default count
        blas.hold_one_blas_thread()
        try:
            one_thread = compiled(x)
        finally:
            blas.release_blas_thread()
        if batch == 32:
            np.testing.assert_array_equal(sharded, one_thread)
        for reference in (one_thread, default):
            error = np.max(np.abs(sharded - reference))
            assert error <= F32_REL_TOL * np.max(np.abs(reference))

    def test_ragged_batch_keeps_one_geometry_per_shard(self, monkeypatch):
        compiled = small_model()
        force_blas_threads(monkeypatch, 2)
        x = images(33)
        compiled(x)  # records on the process's BLAS count
        allocations = sum(state.arena.stats.allocations for state in compiled._states)
        first = compiled(x)
        np.testing.assert_array_equal(compiled(x), first)
        shard0, shard1 = compiled._shards
        assert trace_keys(shard0) == {((17, 3, 16, 16), np.dtype(np.float32))}
        assert trace_keys(shard1) == {((16, 3, 16, 16), np.dtype(np.float32))}
        assert (
            sum(state.arena.stats.allocations for state in compiled._states)
            == allocations
        )

    @pytest.mark.parametrize("shard", [0, 1])
    def test_blas_count_restored_after_an_exception(self, monkeypatch, shard):
        compiled = small_model()
        force_blas_threads(monkeypatch, 2)
        x = images(24)
        compiled(x)
        expected = compiled(x)
        before = REAL_READER()
        trace = compiled._shards[shard].traces[((12, 3, 16, 16), np.dtype(np.float32))]
        saved = trace[2]

        def boom(x_in):
            raise RuntimeError("shard failed")

        trace[2] = boom
        with pytest.raises(RuntimeError, match="shard failed"):
            compiled(x)
        assert REAL_READER() == before
        assert blas._holds == 0
        trace[2] = saved
        np.testing.assert_array_equal(compiled(x), expected)  # crew free again

    def test_concurrent_callers_neither_deadlock_nor_leak_the_hold(self, monkeypatch):
        compiled = small_model()
        force_blas_threads(monkeypatch, 2)
        x = images(24)
        expected = compiled(x)
        before = REAL_READER()
        results, errors = [], []

        def caller():
            try:
                for _ in range(10):
                    results.append(compiled(x))
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 40
        for out in results:
            np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)
        assert REAL_READER() == before
        assert blas._holds == 0

    def test_forked_child_completes_a_sharded_call(self, monkeypatch):
        compiled = small_model()
        force_blas_threads(monkeypatch, 2)
        x = images(24)
        compiled(x)
        expected = compiled(x)  # the parent's crew thread is running
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)

        def child():
            writer.send(compiled(x))

        process = context.Process(target=child)
        process.start()
        try:
            assert reader.poll(60), "forked child never finished its sharded call"
            np.testing.assert_array_equal(reader.recv(), expected)
        finally:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
        assert process.exitcode == 0

    def test_releases_free_the_shard_states(self, monkeypatch):
        compiled = small_model()
        force_blas_threads(monkeypatch, 2)
        x = images(24)
        expected = compiled(x)
        report = compiled.memory_report()
        assert report["shards"] == 2 and report["arenas"] > 0
        assert compiled.release_derived() > 0
        assert all(not state.traces for state in compiled._shards)
        np.testing.assert_array_equal(compiled(x), expected)
        assert compiled.release_workspaces() >= report["arenas"]
        assert all(not state.traces for state in compiled._shards)
        assert all(state.arena.nbytes == 0 for state in compiled._states)
        assert compiled.memory_report()["arenas"] == 0
        np.testing.assert_array_equal(compiled(x), expected)

    def test_describe_reports_the_shard_count(self, monkeypatch):
        compiled = small_model()
        force_blas_threads(monkeypatch, 2)
        compiled(images(2))
        assert "shards: up to 2, one per BLAS thread" in compiled.describe()
        assert "3x16x16: from batch 12" in compiled.describe()
        force_blas_threads(monkeypatch, 1)
        assert "shards: 1 (BLAS on one thread)" in compiled.describe()


def closure(thunk):
    """A thunk's free variables by name."""
    cells = thunk.__closure__ or ()
    return {
        name: cell.cell_contents
        for name, cell in zip(thunk.__code__.co_freevars, cells)
    }


def test_concurrent_first_calls_share_the_derived_operands(monkeypatch):
    """Two first calls at once record traces that hold the op's own
    memoized operands, not private copies (the transform is slowed so
    the two calls overlap inside it)."""
    compiled = pruned_vgg16()
    transform = compile_module.wino_weight_transform

    def slow_transform(*args, **kwargs):
        time.sleep(0.02)
        return transform(*args, **kwargs)

    monkeypatch.setattr(compile_module, "wino_weight_transform", slow_transform)
    compiled.release_derived()
    runtime.predict(compiled, images(4, (3, 32, 32)), workers=2)
    states = [state for state in compiled._states if state.traces]
    assert len(states) == 2
    winograd = dense = 0
    for state in states:
        for trace in state.traces.values():
            for thunk in trace:
                cells = closure(thunk)
                op = cells.get("self")
                if "u" in cells:
                    winograd += 1
                    assert cells["u"] is op._wino_u
                elif "weight_t" in cells and "cols" in cells:
                    dense += 1
                    assert cells["weight_t"] is op._operand_weight_t()
    assert winograd == 24 and dense == 2
