"""Tests for the compiled inference pipeline (BN folding, fused
epilogues, buffer arenas, parallel micro-batch serving)."""

import threading

import numpy as np
import pytest

from repro import nn, runtime
from repro.core import PCNNConfig, PCNNPruner
from repro.models import patternnet, resnet18_cifar, vgg16_cifar


def _pruned(model, layers):
    pruner = PCNNPruner(model, PCNNConfig.uniform(2, layers))
    pruner.apply()
    pruner.attach_encodings()
    return model


MODELS = {
    "simplecnn": lambda: patternnet(
        channels=(8, 16), num_classes=4, rng=np.random.default_rng(0)
    ),
    "vgg16": lambda: vgg16_cifar(rng=np.random.default_rng(1)),
    "resnet18": lambda: resnet18_cifar(rng=np.random.default_rng(2)),
}
INPUT_SHAPES = {"simplecnn": (3, 12, 12), "vgg16": (3, 32, 32), "resnet18": (3, 32, 32)}
PRUNE_LAYERS = {"simplecnn": 2, "vgg16": 13, "resnet18": 17}


class TestCompiledEquivalence:
    """Compiled output matches eager eval-mode output within 1e-5,
    across models, with/without SPM encodings, float32/float64 inputs."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("encoded", [False, True], ids=["dense", "spm"])
    @pytest.mark.parametrize("in_dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_matches_eager(self, name, encoded, in_dtype):
        model = MODELS[name]()
        if encoded:
            _pruned(model, PRUNE_LAYERS[name])
        x = np.random.default_rng(3).normal(size=(2, *INPUT_SHAPES[name]))
        reference = runtime.predict(model, x)  # float64 eager eval
        compiled = runtime.compile_model(model)
        out = compiled(x.astype(in_dtype))
        assert out.shape == reference.shape
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_float64_compile_is_exact(self, name):
        """dtype=None keeps training precision: agreement to ~1e-12."""
        model = MODELS[name]()
        x = np.random.default_rng(4).normal(size=(2, *INPUT_SHAPES[name]))
        reference = runtime.predict(model, x)
        out = runtime.compile_model(model, dtype=None)(x)
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-12)

    def test_repeated_calls_are_deterministic(self):
        """Arena reuse must not leak state between calls."""
        model = MODELS["vgg16"]()
        compiled = runtime.compile_model(model)
        rng = np.random.default_rng(5)
        x1 = rng.normal(size=(2, 3, 32, 32))
        x2 = rng.normal(size=(2, 3, 32, 32))
        first = compiled(x1)
        compiled(x2)  # overwrite every arena buffer with other data
        np.testing.assert_array_equal(compiled(x1), first)

    def test_spm_gather_path_when_narrower_than_dense(self):
        """n=1/|P|=4 keeps the grouped contraction narrower than the
        dense one, so compiled convs serve straight from SPM storage."""
        model = patternnet(
            channels=(8, 16), num_classes=4, rng=np.random.default_rng(21)
        )
        pruner = PCNNPruner(model, PCNNConfig.uniform(1, 2, num_patterns=4))
        pruner.apply()
        pruner.attach_encodings()
        x = np.random.default_rng(22).normal(size=(2, 3, 12, 12))
        reference = runtime.predict(model, x)
        compiled = runtime.compile_model(model)
        spm_ops = [op for op in compiled.ops if getattr(op, "encoded", None) is not None]
        assert spm_ops and all(op.use_gather for op in spm_ops)
        np.testing.assert_allclose(compiled(x), reference, rtol=1e-4, atol=1e-5)

    def test_spm_wide_codebook_lowers_to_decoded_dense(self):
        """n=2/|P|=8 gathers 16 columns/channel vs 9 dense — the compiled
        pipeline decodes at compile time and runs the dense GEMM."""
        model = _pruned(
            patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(23)),
            2,
        )
        compiled = runtime.compile_model(model)
        spm_ops = [op for op in compiled.ops if getattr(op, "encoded", None) is not None]
        assert spm_ops and not any(op.use_gather for op in spm_ops)

    def test_forced_backend_matches(self):
        model = _pruned(MODELS["simplecnn"](), 2)
        x = np.random.default_rng(6).normal(size=(2, 3, 12, 12))
        reference = runtime.predict(model, x)
        compiled = runtime.compile_model(model)
        for backend in ("dense", "tiled", "pattern"):
            np.testing.assert_allclose(
                compiled(x, backend=backend), reference, rtol=1e-4, atol=1e-5
            )

    def test_features_only_model_keeps_nchw_layout(self):
        from repro.models.vgg import VGG16

        model = VGG16(classifier="none", rng=np.random.default_rng(7))
        x = np.random.default_rng(8).normal(size=(1, 3, 32, 32))
        reference = runtime.predict(model, x)
        out = runtime.compile_model(model)(x)
        assert out.shape == reference.shape  # (1, 512, 1, 1) NCHW
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)

    def test_unknown_module_falls_back(self):
        class Odd(nn.Module):
            def forward(self, x):
                return x * nn.Tensor(2.0)

        model = nn.Sequential(
            nn.Conv2d(3, 4, kernel_size=3, padding=1, rng=np.random.default_rng(9)),
            Odd(),
            nn.GlobalAvgPool2d(),
        )
        x = np.random.default_rng(10).normal(size=(2, 3, 8, 8))
        reference = runtime.predict(model, x)
        compiled = runtime.compile_model(model)
        assert any(op.describe().startswith("module:Odd") for op in compiled.ops)
        np.testing.assert_allclose(compiled(x), reference, rtol=1e-4, atol=1e-5)

    def test_bad_input_rejected(self):
        compiled = runtime.compile_model(MODELS["simplecnn"]())
        with pytest.raises(ValueError, match="N, C, H, W"):
            compiled(np.zeros((3, 12, 12)))


class TestBatchNormFolding:
    def test_fold_batchnorm_math(self):
        rng = np.random.default_rng(11)
        bn = nn.BatchNorm2d(6)
        bn.gamma.data[...] = rng.normal(size=6)
        bn.beta.data[...] = rng.normal(size=6)
        bn.running_mean[...] = rng.normal(size=6)
        bn.running_var[...] = rng.uniform(0.5, 2.0, size=6)
        weight = rng.normal(size=(6, 3, 3, 3))
        bias = rng.normal(size=6)
        folded_w, folded_b = runtime.fold_batchnorm(weight, bias, bn)

        conv = nn.Conv2d(3, 6, kernel_size=3, padding=1, rng=rng)
        conv.weight.data[...] = weight
        conv.bias.data[...] = bias
        x = nn.Tensor(rng.normal(size=(2, 3, 8, 8)))
        with nn.no_grad():
            expected = bn.eval()(conv.eval()(x)).data
        got = runtime.dispatch(x.data, folded_w, bias=folded_b, padding=1)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_fold_params_is_affine_map(self):
        bn = nn.BatchNorm2d(4)
        bn.running_mean[...] = [0.5, -1.0, 0.0, 2.0]
        bn.running_var[...] = [1.0, 4.0, 0.25, 9.0]
        scale, shift = bn.fold_params()
        x = np.random.default_rng(12).normal(size=(2, 4, 3, 3))
        with nn.no_grad():
            expected = bn.eval()(nn.Tensor(x)).data
        got = x * scale[None, :, None, None] + shift[None, :, None, None]
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_bn_stats_change_requires_recompile(self):
        """Compilation snapshots BN stats: the compiled model keeps the
        old output until compiled again (documented behaviour)."""
        model = MODELS["simplecnn"]()
        x = np.random.default_rng(13).normal(size=(2, 3, 12, 12))
        compiled = runtime.compile_model(model)
        before = compiled(x)
        for module in model.modules():
            if isinstance(module, nn.BatchNorm2d):
                module.running_mean += 1.0
        np.testing.assert_array_equal(compiled(x), before)
        recompiled = runtime.compile_model(model)
        assert np.abs(recompiled(x) - before).max() > 1e-3
        np.testing.assert_allclose(
            recompiled(x), runtime.predict(model, x), rtol=1e-4, atol=1e-5
        )

    def test_folded_ops_fuse_bias_and_relu(self):
        compiled = runtime.compile_model(MODELS["vgg16"]())
        conv_ops = [op for op in compiled.ops if op.describe().startswith("conv")]
        assert len(conv_ops) == 13
        # Every VGG conv is conv→bn→relu: all fold to conv+bias+relu
        # (a winograd schedule annotation may follow the fused label).
        assert all(op.describe().startswith("conv+bias+relu") for op in conv_ops)
        # No standalone BN or ReLU ops survive lowering.
        assert not any("batchnorm" in op.describe() for op in compiled.ops)
        assert not any(op.describe() == "relu" for op in compiled.ops)


class TestEpilogue:
    def test_bias_add_in_place_and_dtype_stable(self):
        mat = np.random.default_rng(14).normal(size=(6, 3)).astype(np.float32)
        before = mat.copy()
        epi = runtime.Epilogue(bias=np.array([1.0, -2.0, 0.5]))  # float64 bias
        out = epi.apply(mat)
        assert out is mat  # in place, no allocation
        assert mat.dtype == np.float32
        np.testing.assert_allclose(mat, before + np.array([1.0, -2.0, 0.5], np.float32))

    def test_relu_applied_after_bias(self):
        mat = np.array([[-1.0, 1.0]])
        runtime.Epilogue(bias=np.array([0.5, -3.0]), relu=True).apply(mat)
        np.testing.assert_array_equal(mat, [[0.0, 0.0]])

    def test_dispatch_bias_and_epilogue_conflict(self):
        x = np.zeros((1, 2, 4, 4))
        w = np.zeros((3, 2, 3, 3))
        with pytest.raises(ValueError, match="not both"):
            runtime.dispatch(
                x, w, bias=np.zeros(3),
                epilogue=runtime.Epilogue(bias=np.zeros(3)),
            )


class TestArena:
    def test_take_reuses_buffers(self):
        arena = runtime.Arena()
        a = arena.take("x", (4, 4), np.float32)
        b = arena.take("x", (4, 4), np.float32)
        assert a is b
        assert arena.stats.allocations == 1 and arena.stats.reuses == 1
        c = arena.take("x", (4, 4), np.float64)  # different dtype, new buffer
        assert c is not a
        assert arena.stats.allocations == 2

    def test_padded_keeps_zero_border_across_reuse(self):
        arena = runtime.Arena()
        x = np.ones((1, 2, 3, 3))
        padded = arena.padded("p", x, 1)
        assert padded.shape == (1, 2, 5, 5)
        assert padded[0, 0, 0].sum() == 0
        padded2 = arena.padded("p", np.full((1, 2, 3, 3), 7.0), 1)
        assert padded2 is padded
        assert padded2[0, 0, 0].sum() == 0  # border still zero after reuse
        assert padded2[0, 0, 1, 1] == 7.0

    def test_compiled_steady_state_allocates_nothing(self):
        model = MODELS["vgg16"]()
        compiled = runtime.compile_model(model)
        x = np.random.default_rng(15).normal(size=(2, 3, 32, 32))
        compiled(x)  # warm-up allocates every buffer

        def totals():
            # Every execution state's arena: the caller's, and the shard
            # states' when the call shards over several BLAS threads.
            stats = [state.arena.stats for state in compiled._states]
            return sum(s.allocations for s in stats), sum(s.reuses for s in stats)

        allocations, _ = totals()
        compiled(x)
        compiled(x)
        assert totals()[0] == allocations
        assert totals()[1] > 0


class TestParallelServing:
    def test_workers_match_sequential(self):
        model = MODELS["vgg16"]()
        compiled = runtime.compile_model(model)
        x = np.random.default_rng(16).normal(size=(8, 3, 32, 32))
        sequential = runtime.predict(compiled, x, micro_batch=2)
        parallel = runtime.predict(compiled, x, micro_batch=2, workers=4)
        np.testing.assert_array_equal(parallel, sequential)

    def test_workers_on_eager_model(self):
        model = MODELS["simplecnn"]()
        x = np.random.default_rng(17).normal(size=(6, 3, 12, 12))
        reference = runtime.predict(model, x)
        out = runtime.predict(model, x, micro_batch=2, workers=3)
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-12)

    def test_workers_default_chunking(self):
        model = MODELS["simplecnn"]()
        x = np.random.default_rng(18).normal(size=(5, 3, 12, 12))
        stats = runtime.PredictStats()
        runtime.predict(model, x, workers=2, stats=stats)
        assert stats.workers == 2
        assert stats.chunks == 2  # ceil(5/2)=3 -> chunks of 3+2
        assert stats.micro_batch == 3

    def test_thread_local_arenas(self):
        compiled = runtime.compile_model(MODELS["simplecnn"]())
        x = np.random.default_rng(19).normal(size=(2, 3, 12, 12))
        arenas = {}

        def worker(key):
            compiled(x)
            arenas[key] = compiled.arena

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert arenas[0] is not arenas[1]

    def test_predict_compile_flag(self):
        model = MODELS["simplecnn"]()
        x = np.random.default_rng(20).normal(size=(4, 3, 12, 12))
        reference = runtime.predict(model, x)
        stats = runtime.PredictStats()
        out = runtime.predict(model, x, compile=True, stats=stats)
        assert stats.compiled
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)

    def test_worker_pool_persists_across_calls(self):
        """Worker threads (and so their thread-local arenas) survive
        between predict() calls — a fresh pool per call would rebuild
        every arena every call."""
        import sys

        predict_module = sys.modules["repro.runtime.predict"]
        assert predict_module._shared_pool(2) is predict_module._shared_pool(2)
        # Distinct sizes get distinct pools (never shut down mid-flight).
        assert predict_module._shared_pool(3) is not predict_module._shared_pool(2)

    def test_no_grad_is_thread_local(self):
        """One worker's no_grad must not toggle recording for others
        (the ModuleOp fallback enters/exits it per chunk under workers)."""
        from repro.nn.tensor import is_grad_enabled

        seen = {}
        with nn.no_grad():
            t = threading.Thread(
                target=lambda: seen.setdefault("worker", is_grad_enabled())
            )
            t.start()
            t.join()
            seen["main"] = is_grad_enabled()
        assert seen["main"] is False
        assert seen["worker"] is True  # untouched by main thread's context

    def test_module_fallback_with_workers_keeps_grad_off(self):
        """Compiled models with ModuleOp fallbacks serve correctly from a
        thread pool — no worker forward ever records a graph."""

        class Odd(nn.Module):
            def forward(self, x):
                return x * nn.Tensor(0.5)

        model = nn.Sequential(
            nn.Conv2d(3, 4, kernel_size=3, padding=1, rng=np.random.default_rng(27)),
            Odd(),
            nn.GlobalAvgPool2d(),
        )
        x = np.random.default_rng(28).normal(size=(8, 3, 8, 8))
        reference = runtime.predict(model, x)
        compiled = runtime.compile_model(model)
        out = runtime.predict(compiled, x, micro_batch=1, workers=4)
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)
        assert all(p.grad is None for p in model.parameters())

    def test_residual_without_post_relu(self):
        """lowering_branches() can return (body, shortcut, False) for
        blocks whose sum is not ReLU-clamped."""
        rng = np.random.default_rng(25)

        class PreActBlock(nn.Module):
            def __init__(self):
                super().__init__()
                self.conv = nn.Conv2d(4, 4, kernel_size=3, padding=1, rng=rng)

            def forward(self, x):
                return self.conv(x) + x  # no activation after the add

            def lowering_branches(self):
                return [self.conv], [], False

        model = nn.Sequential(
            nn.Conv2d(3, 4, kernel_size=3, padding=1, rng=rng),
            PreActBlock(),
            nn.GlobalAvgPool2d(),
        )
        x = np.random.default_rng(26).normal(size=(2, 3, 8, 8))
        reference = runtime.predict(model, x)
        assert (reference < 0).any()  # the clamp would be observable
        np.testing.assert_allclose(
            runtime.compile_model(model)(x), reference, rtol=1e-4, atol=1e-5
        )

    def test_bad_workers_rejected(self):
        model = MODELS["simplecnn"]()
        with pytest.raises(ValueError, match="workers"):
            runtime.predict(model, np.zeros((2, 3, 12, 12)), workers=0)
