"""Offline workloads: pruned VGG-16 through the compiled runtime, closed loop.

One caller runs batches of 32 back to back for the measured seconds.
Every output is checked against the float64 eager ``runtime.predict``
reference of its batch, computed after the timed loop (outside
``setup_s`` and the timed region).
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

import numpy as np

from pb_common import Tracer, percentile, vm_hwm_mb

#: Weights are fixed; the seed varies only the inputs.
MODEL_SEED = 0
BATCH = 32
#: Distinct input batches the closed loop cycles through (each gets a
#: float64 reference, which costs about one second on VGG-16).
POOL_BATCHES = 4
CALIBRATION_IMAGES = 8
#: Build/prune/encode/compile/first-call repetitions; setup_s is their median.
SETUP_REPEATS = 3
#: Correctness gate on max|out - ref| / max|ref| of every call.
TOLERANCE = {"f32": 1e-4, "int8": 0.1}
#: The timed loop runs at least this many batches, so p90 has ten beyond it.
MIN_CALLS = 100
#: Consecutive slices of the timed loop for the throughput and CPU medians.
SLICES = 10

PASS_NAMES = ("lower", "fold_bn", "fuse_epilogues", "winograd", "quantize",
              "link_halos", "assign_arenas", "finalize")
SCHEDULES = ("winograd4", "winograd2", "im2col", "gather", "int8")


def make_inputs(seed: int, shape, *, batches: int = POOL_BATCHES, batch: int = BATCH):
    """Seeded input batches and calibration images (float32)."""
    rng = np.random.default_rng([seed, 0x0FF1])
    pool = [rng.standard_normal((batch, *shape)).astype(np.float32) for _ in range(batches)]
    calibration = rng.standard_normal((CALIBRATION_IMAGES, *shape)).astype(np.float32)
    return pool, calibration


def schedule_counts(rows) -> dict:
    """Conv counts per schedule family from ``schedule_summary()`` rows."""
    counts = dict.fromkeys(SCHEDULES, 0)
    for row in rows:
        kind = row["kind"]
        key = "int8" if "int8" in kind else kind
        if key in counts:
            counts[key] += 1
    return counts


@dataclass
class Built:
    model: object
    profile: object
    encodings: dict
    compiled: object
    seconds: float


def build(model_name: str, n: int, patterns, *, quantize, calibration, example,
          tracer: Tracer) -> Built:
    """Build, prune, encode, compile and run the model once (one set-up)."""
    from repro import runtime
    from repro.core import PCNNConfig, PCNNPruner
    from repro.models import create_model, model_input_shape, profile_model

    start = time.perf_counter()
    model = create_model(model_name, rng=np.random.default_rng(MODEL_SEED))
    profile = profile_model(model, model_input_shape(model_name), model_name=model_name)
    pruner = PCNNPruner(
        model, PCNNConfig.uniform(n, len(profile.prunable()), num_patterns=patterns)
    )
    with tracer.span("core.prune"):
        pruner.apply()
    with tracer.span("core.encode"):
        encodings = pruner.attach_encodings()
    with tracer.span("runtime.compile"):
        compiled = runtime.compile_model(
            model, quantize=quantize,
            calibration=calibration if quantize else None,
        )
    with tracer.span("runtime.first_call"):
        compiled(example)
    return Built(model, profile, encodings, compiled, time.perf_counter() - start)


def weight_compression(encodings: dict, weight_bits: int) -> float:
    """Dense float32 conv weight bits over SPM storage bits."""
    dense = sum(e.num_kernels * e.codebook.kernel_size ** 2 * 32 for e in encodings.values())
    stored = sum(e.storage_bits(weight_bits) for e in encodings.values())
    return dense / stored


def reference(model, x: np.ndarray) -> np.ndarray:
    from repro import runtime

    return runtime.predict(model, x.astype(np.float64))


def check_outputs(outputs, references) -> tuple:
    """Per-image errors max|out - ref| over the image's logits, divided by
    max|ref| over its batch, and top-1 agreement against the references.
    A batch's largest value is that batch's max|out - ref| / max|ref|."""
    rel = np.concatenate([
        np.max(np.abs(out - ref), axis=1) / np.max(np.abs(ref))
        for out, ref in zip(outputs, references)
    ])
    agree = np.concatenate([
        out.argmax(axis=1) == ref.argmax(axis=1) for out, ref in zip(outputs, references)
    ])
    return rel, agree


def runtime_metrics(tracer: Tracer, built: Built, forward_ms: float, batch: int,
                    passes: list, schedules: list, memory: dict) -> dict:
    """Per-layer metrics of ``core`` and ``runtime`` from a traced run:
    set-up span medians, pass times (median over ``passes`` rows),
    schedule counts, forward time and rate, and the memory report."""
    metrics = {
        f"{name}_s": statistics.median(tracer.durations(name))
        for name in ("core.prune", "core.encode", "runtime.compile", "runtime.first_call")
    }
    metrics["runtime.forward_ms"] = forward_ms
    metrics["runtime.gflops"] = 2 * built.profile.conv_macs * batch / (forward_ms / 1e3) / 1e9
    for name in PASS_NAMES:
        metrics[f"runtime.pass.{name}_s"] = statistics.median(row.get(name, 0.0) for row in passes)
    for kind, count in schedule_counts(schedules).items():
        metrics[f"runtime.sched.{kind}"] = count
    for key in ("parameters", "derived", "plans", "arenas"):
        metrics[f"runtime.mem.{key}_mb"] = memory[key] / 1e6
    return metrics


def run_offline(*, leg: str, seed: int, seconds: float, tracer: Tracer,
                import_s: float) -> dict:
    from repro.models import model_input_shape

    shape = model_input_shape("vgg16_cifar")
    pool, calibration = make_inputs(seed, shape)
    quantize = "int8" if leg == "int8" else None

    setups, passes = [], []
    built = None
    for _ in range(SETUP_REPEATS):
        built = None  # free the previous set-up first: peak RSS is one model's
        gc.collect()
        built = build("vgg16_cifar", 2, None, quantize=quantize, calibration=calibration,
                      example=pool[0], tracer=tracer)
        setups.append(built.seconds)
        passes.append({p.name: p.seconds for p in built.compiled.passes})
    compiled = built.compiled

    # Timed closed loop: one caller, back-to-back batches.
    outputs, which, lat, cpu = [], [], [], []
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    i = 0
    while True:
        x = pool[i % len(pool)]
        with tracer.span("runtime.call", batch=i % len(pool)):
            c = time.process_time()
            t = time.perf_counter()
            y = compiled(x)
            lat.append(time.perf_counter() - t)
            cpu.append(time.process_time() - c)
        outputs.append(y)
        which.append(i % len(pool))
        i += 1
        if i >= MIN_CALLS and time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - loop_start
    peak = vm_hwm_mb()
    memory = compiled.memory_report()

    # Correctness, outside the timed region and set-up.
    refs = [reference(built.model, x) for x in pool]
    rel, agree = check_outputs(outputs, [refs[k] for k in which])
    tolerance = TOLERANCE[leg]
    wrong = int(np.sum(np.max(rel.reshape(len(lat), BATCH), axis=1) > tolerance))

    images = len(lat) * BATCH
    lat_ms = np.asarray(lat) * 1e3
    # Throughput and CPU cost are medians over consecutive slices of the
    # loop, so a burst of interference from outside spoils one slice.
    slices = np.array_split(np.arange(len(lat)), SLICES)
    slice_ips = [BATCH * len(k) / float(np.sum(np.asarray(lat)[k])) for k in slices]
    slice_cpu = [float(np.sum(np.asarray(cpu)[k])) * 1e3 / (BATCH * len(k)) for k in slices]
    end_to_end = {
        "setup_s": (import_s + statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (peak, "MB", 1),
        "rel_err": (float(np.median(rel)), "ratio", len(rel)),
        "top1_agree": (float(np.mean(agree)), "ratio", int(agree.size)),
        "weight_compression_x": (
            weight_compression(built.encodings, 8 if quantize else 32), "x", len(built.encodings)
        ),
        "images_per_s": (statistics.median(slice_ips), "1/s", len(lat)),
        "cpu_ms_per_image": (statistics.median(slice_cpu), "ms", images),
    }
    latency = {"latency_p50_ms": percentile(lat_ms, 50), "latency_p90_ms": percentile(lat_ms, 90)}
    notes = {
        "latency": f"batch p50 {latency['latency_p50_ms']:.2f} ms, p90 "
                   f"{latency['latency_p90_ms']:.2f} ms over {len(lat)} batches of {BATCH}",
        "rel_err": f"median over {len(rel)} images; max {rel.max():.3g} (gate {tolerance:g})",
        "loop_wall_s": round(wall, 3),
    }

    per_layer = {}
    if tracer.enabled:
        per_layer = runtime_metrics(tracer, built, percentile(lat_ms, 50), BATCH, passes,
                                    compiled.schedule_summary(), memory)
        per_layer["trace.images_per_s"] = end_to_end["images_per_s"][0]
        per_layer.update(latency)
    return {
        "attempted": len(lat),
        "failed": wrong,
        "correct": wrong == 0,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "notes": notes,
    }
