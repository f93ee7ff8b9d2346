"""Command-line interface: ``pcnn-repro``.

Gives downstream users the paper's numbers without writing code:

- ``pcnn-repro report --model vgg16_cifar --n 4`` — one table row;
- ``pcnn-repro sweep --model vgg16_cifar`` — the full Table I/II sweep;
- ``pcnn-repro speedup --model vgg16_cifar --n 1`` — Sec. IV-E estimates;
- ``pcnn-repro prune --model patternnet --n 2 --out bundle.npz`` — prune a
  model and write a deployment bundle (optionally 8-bit quantized);
- ``pcnn-repro predict --model patternnet --n 2 --batch 16`` — batched
  inference through the runtime engine (micro-batching, backend choice;
  ``--compile`` for the fused float32 pipeline, ``--quantize`` for the
  int8 execution path, ``--workers N`` for parallel micro-batch
  serving);
- ``pcnn-repro serve --model patternnet --n 2 --port 8100`` — dynamic-
  batching JSON model server on the compiled pipeline (``--bundle`` to
  serve a deployment bundle, ``--quantize`` to serve it int8;
  ``--max-batch``/``--max-latency-ms`` tune the coalescing policy;
  ``--worker-procs N`` fans flushes out to inference worker processes
  over shared-memory rings — the multi-core configuration);
- ``pcnn-repro chip`` — Table IX breakdown + Fig. 6 floorplan.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from .analysis import format_compression_table, format_table
from .arch import PAPER_TECH, floorplan_ascii, simulate_network_analytic, tops_per_watt
from .core import PCNNConfig, PCNNPruner, pcnn_compression
from .core.deploy import bundle_from_pruner
from .models import MODEL_REGISTRY, create_model, model_input_shape, profile_model
from .runtime.blas import blas_info, release_blas_thread, serve_on_one_blas_thread
from .utils.timing import Timer

__all__ = ["main"]


def _profile(model_name: str):
    model = create_model(model_name, rng=np.random.default_rng(0))
    return model, profile_model(model, model_input_shape(model_name), model_name=model_name)


def _config_for(args, num_layers: int) -> PCNNConfig:
    if args.layers:
        return PCNNConfig.from_string(args.layers)
    return PCNNConfig.uniform(args.n, num_layers, num_patterns=args.patterns)


def cmd_report(args) -> int:
    _, profile = _profile(args.model)
    config = _config_for(args, len(profile.prunable()))
    report = pcnn_compression(profile, config)
    print(format_compression_table([report], title=f"{args.model}: {config.describe()}"))
    return 0


def cmd_sweep(args) -> int:
    _, profile = _profile(args.model)
    layers = len(profile.prunable())
    reports = [
        pcnn_compression(profile, PCNNConfig.uniform(n, layers), setting=f"n = {n}")
        for n in (4, 3, 2, 1)
    ]
    print(format_compression_table(reports, title=f"{args.model}: PCNN sweep (Table I/II style)"))
    return 0


def cmd_speedup(args) -> int:
    _, profile = _profile(args.model)
    config = _config_for(args, len(profile.prunable()))
    sim = simulate_network_analytic(profile, config, activation_density=args.act_density)
    efficiency = tops_per_watt(effective_speedup=sim.speedup)
    print(
        format_table(
            ["setting", "speedup vs dense", "TOPS/W"],
            [[config.describe(), f"{sim.speedup:.2f}x", f"{efficiency:.2f}"]],
            title=f"{args.model}: architecture estimate (Sec. IV-E)",
        )
    )
    return 0


def cmd_prune(args) -> int:
    model, profile = _profile(args.model)
    config = _config_for(args, len(profile.prunable()))
    pruner = PCNNPruner(model, config)
    pruner.apply()
    pruner.verify_regularity()
    from .analysis import assert_valid

    assert_valid(model)
    bundle = bundle_from_pruner(pruner, quantize_bits=args.quantize)
    bundle.save(args.out)
    total_bits = bundle.storage_bits()
    print(f"pruned {len(bundle.layers)} layers with {config.describe()}")
    print(f"bundle written to {args.out} ({total_bits / 8 / 1024:.1f} KiB payload)")
    for name, row in bundle.storage_report().items():
        print(
            f"  {name}: {row['kernels']} kernels x n={row['n']} @ {row['weight_bits']}b "
            f"+ {row['index_bits']}b SPM -> {row['compression']:.1f}x vs fp32"
        )
    return 0


def cmd_predict(args) -> int:
    from . import runtime

    if args.no_trace:
        os.environ["REPRO_TRACE"] = "0"
    if args.repeat < 1 or args.batch < 1:
        print("error: --repeat and --batch must be >= 1", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    model, profile = _profile(args.model)
    if args.n or args.layers:
        config = _config_for(args, len(profile.prunable()))
        pruner = PCNNPruner(model, config)
        pruner.apply()
        # With encodings attached, pruned convs execute straight from
        # SPM storage (pattern backend) on the inference fast path.
        pruner.attach_encodings()
        setting = config.describe()
    else:
        setting = "dense"

    shape = model_input_shape(args.model)
    rng = np.random.default_rng(args.seed)
    x = rng.normal(size=(args.batch, *shape))

    if args.compile or args.quantize or args.tune:
        # Compile once up front: BN folding, fused epilogues, float32
        # parameters and buffer arenas; the timed loop then serves from
        # the compiled pipeline. --quantize additionally lowers the conv
        # trunk to int8 codes, calibrating on the benchmark inputs;
        # --tune picks per-layer schedules (cost model or measured,
        # persisted in the tuning cache).
        try:
            model = runtime.compile_model(
                model,
                quantize="int8" if args.quantize else None,
                calibration=x if args.quantize else None,
                tune=args.tune,
                input_shape=shape,
                winograd=not args.no_winograd,
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        labels = [
            label
            for label, on in (("int8", args.quantize), (f"tune={args.tune}", args.tune))
            if on
        ]
        setting += f" [compiled{' ' + ' '.join(labels) if labels else ''}]"

    runtime.default_cache.clear()
    # Warm-up pass builds the execution plans (and compiled-path arena
    # buffers); the timed passes then run the steady-state throughput.
    warm_stats = runtime.PredictStats()
    try:
        runtime.predict(
            model, x, micro_batch=args.micro_batch, backend=args.backend,
            workers=args.workers, stats=warm_stats,
        )
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with Timer() as timer:
        for _ in range(args.repeat):
            out = runtime.predict(
                model, x, micro_batch=args.micro_batch, backend=args.backend,
                workers=args.workers,
            )
    cache = (
        model.plans if isinstance(model, runtime.CompiledModel) else runtime.default_cache
    ).stats
    print(
        format_table(
            ["setting", "backend", "batch", "micro-batch", "workers",
             "latency (ms)", "images/s", "plan cache"],
            [[
                setting,
                args.backend or "auto",
                str(args.batch),
                # The effective chunk size (predict derives one chunk per
                # worker when --micro-batch is not given).
                str(warm_stats.micro_batch or args.batch),
                str(args.workers or 1),
                f"{timer.elapsed / args.repeat * 1e3:.1f}",
                f"{args.batch * args.repeat / timer.elapsed:.1f}",
                f"{cache.hits} hits / {cache.misses} misses",
            ]],
            title=f"{args.model}: runtime.predict ({args.repeat} timed runs)",
        )
    )
    print(f"output shape: {out.shape}")
    return 0


def parse_tenant_spec(spec: str) -> tuple:
    """Parse one ``--tenant NAME=MODEL[,key=value,...]`` fleet entry.

    Keys: ``n``/``patterns`` (PCNN pruning), ``seed``, ``weight``
    (fair-share weight under the flush scheduler), ``rate`` (req/s
    quota, 429 ``quota_exceeded`` past it), ``max_queue`` and ``slo_ms``
    (per-tenant admission overrides). Example::

        --tenant hot=patternnet,weight=3,rate=200 \\
        --tenant cold=patternnet,n=2,weight=1
    """
    head, _, rest = spec.partition(",")
    name, eq, model = head.partition("=")
    if not eq or not name or not model:
        raise ValueError(
            f"tenant spec {spec!r} must start with NAME=MODEL "
            "(e.g. a=patternnet,weight=2)"
        )
    from .models import get_spec  # fail fast on unknown models

    get_spec(model)
    parsers = {
        "n": int, "patterns": int, "seed": int, "max_queue": int,
        "weight": float, "rate": float, "slo_ms": float,
    }
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip().replace("-", "_")
            if not eq or key not in parsers:
                raise ValueError(
                    f"tenant spec key {item!r} not understood; "
                    f"known: {sorted(parsers)}"
                )
            kwargs[key] = parsers[key](value)
    return name, model, kwargs


def build_model_server(args):
    """Build, load and warm the :class:`ModelServer` for ``serve``.

    Separated from :func:`cmd_serve` so tests can stand the server up
    without entering the blocking accept loop. With ``--tenant`` specs
    the server loads a whole fleet (per-tenant weights/quotas/pruning);
    otherwise the single ``--model`` path applies.
    """
    from .serving import ModelServer

    server = ModelServer(
        workers=args.workers,
        worker_procs=getattr(args, "worker_procs", None),
        max_batch=args.max_batch,
        max_latency_ms=args.max_latency_ms,
        compile=not args.no_compile,
        quantize="int8" if args.quantize else None,
        tune=args.tune,
        max_queue=getattr(args, "max_queue", None),
        slo_ms=getattr(args, "slo_ms", None),
        memory_budget_mb=getattr(args, "memory_budget_mb", None),
    )
    tenants = [parse_tenant_spec(spec) for spec in (getattr(args, "tenant", None) or [])]
    if tenants:
        for name, model, kwargs in tenants:
            server.load_registry(model, name=name, **kwargs)
        served = server.get(tenants[0][0])
    elif args.bundle:
        served = server.load_bundle(args.bundle, args.model)
    elif args.n is not None:
        served = server.load_registry(args.model, n=args.n, patterns=args.patterns)
    else:
        served = server.load_registry(args.model)
    server.warmup()
    return server, served


def cmd_serve(args) -> int:
    if args.list_models:
        from .models import registered_models

        for name, info in registered_models().items():
            shape = "x".join(str(s) for s in info["input_shape"])
            print(f"{name}  ({shape})  {info['description']}")
        return 0
    if args.max_batch < 1 or args.max_latency_ms < 0:
        print(
            "error: --max-batch must be >= 1 and --max-latency-ms >= 0",
            file=sys.stderr,
        )
        return 2
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.worker_procs is not None and args.worker_procs < 1:
        print("error: --worker-procs must be >= 1", file=sys.stderr)
        return 2
    if args.max_queue is not None and args.max_queue < 1:
        print("error: --max-queue must be >= 1", file=sys.stderr)
        return 2
    if args.slo_ms is not None and args.slo_ms <= 0:
        print("error: --slo-ms must be > 0", file=sys.stderr)
        return 2
    if args.memory_budget_mb is not None and args.memory_budget_mb <= 0:
        print("error: --memory-budget-mb must be > 0", file=sys.stderr)
        return 2
    if args.tenant and args.bundle:
        print("error: --tenant fleets load registry models (drop --bundle)",
              file=sys.stderr)
        return 2
    if args.worker_procs is not None and args.no_compile:
        print(
            "error: --worker-procs requires the compiled pipeline "
            "(drop --no-compile)",
            file=sys.stderr,
        )
        return 2
    if args.patterns is not None and args.n is None and not args.bundle:
        print("error: --patterns requires --n (the pruning density)", file=sys.stderr)
        return 2
    if args.stream_delta is not None and args.stream_port is None:
        print("error: --stream-delta requires --stream-port", file=sys.stderr)
        return 2
    # Serving runs on one BLAS thread (docs/SERVING.md), build and
    # warm-up included, so warm-up records the traces the server
    # replays. Released on every exit path, since the command also runs
    # in-process (tests, embedders calling main).
    held = serve_on_one_blas_thread()
    try:
        try:
            server, served = build_model_server(args)
        except (KeyError, ValueError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return _run_server(args, server, served)
    finally:
        if held:
            release_blas_thread()


def _describe_blas() -> str:
    info = blas_info()
    if info["library"] is None:
        return "unmanaged"
    threads = info["threads"]
    return f"{info['library']}, {threads} thread{'s' if threads != 1 else ''}"


def _run_server(args, server, served) -> int:
    from .serving import ServingHTTPServer

    server.start()
    try:
        httpd = ServingHTTPServer(server, args.host, args.port)
    except (OSError, OverflowError) as error:
        # EADDRINUSE, or a port outside 0-65535 (OverflowError from
        # socket.bind): exit the same clean way as load errors.
        server.stop()
        print(f"error: cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    stream_server = None
    if args.stream_port is not None:
        from .serving import DEFAULT_DELTA_THRESHOLD, StreamServer

        delta = (
            DEFAULT_DELTA_THRESHOLD
            if args.stream_delta is None else args.stream_delta
        )
        try:
            stream_server = StreamServer(
                server, args.host, args.stream_port, delta_threshold=delta
            ).start()
        except (OSError, OverflowError) as error:
            httpd.server_close()
            server.stop()
            print(
                f"error: cannot bind stream port "
                f"{args.host}:{args.stream_port}: {error}",
                file=sys.stderr,
            )
            return 2
    if args.tenant:
        fleet = ", ".join(
            f"{name}:{row['weight']:g}x" for name, row in
            sorted(server.describe_models().items())
        )
        budget = (
            f"{args.memory_budget_mb:g} MiB budget"
            if args.memory_budget_mb is not None else "unbudgeted"
        )
        print(f"serving fleet [{fleet}] ({budget}) at {httpd.url}")
    else:
        print(
            f"serving {served.name!r} ({served.meta.get('setting', served.source)}) "
            f"at {httpd.url}"
        )
    pipeline = "eager" if args.no_compile else (
        "compiled int8" if args.quantize else "compiled"
    )
    execution = (
        f"worker_procs={args.worker_procs} (shared-memory rings)"
        if args.worker_procs
        else f"workers={args.workers or 1}"
    )
    print(
        f"  batching: max_batch={args.max_batch}, "
        f"max_latency_ms={args.max_latency_ms}, {execution}, "
        f"{pipeline} pipeline (warm)"
    )
    if args.max_queue is not None or args.slo_ms is not None:
        print(
            f"  admission: max_queue={args.max_queue} (429 past the mark), "
            f"slo_ms={args.slo_ms} (503 when blown)"
        )
    if stream_server is not None:
        print(
            f"  streaming: binary protocol on {args.host}:{stream_server.port} "
            f"(delta cache L-inf <= {stream_server.delta_threshold:g})"
        )
    print(f"  blas: {_describe_blas()}")
    print(
        "  POST /predict /models | DELETE /models/<name> | "
        "GET /stats /metrics /incidents /workers /models /healthz   "
        "(Ctrl-C stops)"
    )
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if stream_server is not None:
            stream_server.stop()
        httpd.server_close()
        server.stop()
        print(server.render_stats())
    return 0


def cmd_chip(args) -> int:
    rows = PAPER_TECH.table_rows()
    print(
        format_table(
            ["component", "area (mm2)", "area %", "power (mW)", "power %"],
            [
                [r["component"], f"{r['area_mm2']:.2f}", f"{r['area_share']:.1%}",
                 f"{r['power_mw']:.1f}", f"{r['power_share']:.1%}"]
                for r in rows
            ],
            title="Table IX (55 nm, 300 MHz, 1 V)",
        )
    )
    print("\nFig. 6 floorplan:")
    print(floorplan_ascii())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcnn-repro", description="PCNN (DAC 2020) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument(
            "--model", default="vgg16_cifar", choices=sorted(MODEL_REGISTRY),
            help="registered model name",
        )
        p.add_argument("--n", type=int, default=4, help="non-zeros per kernel")
        p.add_argument("--patterns", type=int, default=None, help="pattern budget |P|")
        p.add_argument(
            "--layers", default=None,
            help="per-layer n string, e.g. 2-1-1-... (overrides --n)",
        )

    p_report = sub.add_parser("report", help="compression accounting for one setting")
    add_model_args(p_report)
    p_report.set_defaults(func=cmd_report)

    p_sweep = sub.add_parser("sweep", help="Table I/II style n sweep")
    p_sweep.add_argument(
        "--model", default="vgg16_cifar", choices=sorted(MODEL_REGISTRY)
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_speed = sub.add_parser("speedup", help="architecture speedup / TOPS/W")
    add_model_args(p_speed)
    p_speed.add_argument("--act-density", type=float, default=0.8)
    p_speed.set_defaults(func=cmd_speedup)

    p_prune = sub.add_parser("prune", help="prune a model and write a bundle")
    add_model_args(p_prune)
    p_prune.add_argument("--out", required=True, help="output .npz bundle path")
    p_prune.add_argument(
        "--quantize", type=int, default=None,
        help="quantize values to this many bits (e.g. 8)",
    )
    p_prune.set_defaults(func=cmd_prune)

    p_pred = sub.add_parser(
        "predict", help="batched inference through the runtime engine"
    )
    p_pred.add_argument(
        "--model", default="patternnet", choices=sorted(MODEL_REGISTRY),
        help="registered model name",
    )
    p_pred.add_argument(
        "--n", type=int, default=None,
        help="prune with this many non-zeros per kernel (default: stay dense)",
    )
    p_pred.add_argument("--patterns", type=int, default=None, help="pattern budget |P|")
    p_pred.add_argument(
        "--layers", default=None,
        help="per-layer n string, e.g. 2-1-1-... (overrides --n)",
    )
    p_pred.add_argument("--batch", type=int, default=8, help="input batch size")
    p_pred.add_argument(
        "--micro-batch", type=int, default=None,
        help="split the batch into chunks of this size",
    )
    p_pred.add_argument(
        "--backend", default=None,
        help="force a conv backend (default: auto-select per layer)",
    )
    p_pred.add_argument(
        "--compile", action="store_true",
        help="serve through the compiled pipeline (BN folding, fused "
        "epilogues, float32, buffer arenas)",
    )
    p_pred.add_argument(
        "--quantize", action="store_true",
        help="compile to the int8 execution path (int8 weight/activation "
        "codes, requantizing epilogues; implies --compile)",
    )
    p_pred.add_argument(
        "--tune", choices=("cost", "measure"), default=None,
        help="pick per-layer conv schedules: 'cost' via the analytic "
        "accelerator model, 'measure' via short timed probes persisted "
        "in ~/.cache/repro-tune.json (implies --compile)",
    )
    p_pred.add_argument(
        "--workers", type=int, default=None,
        help="run micro-batches on a thread pool of this size",
    )
    p_pred.add_argument(
        "--no-winograd", action="store_true",
        help="disable the Winograd F(m,3) schedules on the compiled "
        "pipeline (keep every 3x3 conv on im2col)",
    )
    p_pred.add_argument(
        "--no-trace", action="store_true",
        help="disable the trace executor (sets REPRO_TRACE=0: every "
        "call walks per-op dispatch instead of replaying the recorded "
        "thunk list)",
    )
    p_pred.add_argument("--repeat", type=int, default=3, help="timed repetitions")
    p_pred.add_argument("--seed", type=int, default=0, help="input RNG seed")
    p_pred.set_defaults(func=cmd_predict)

    p_serve = sub.add_parser(
        "serve", help="dynamic-batching JSON model server (compiled pipeline)"
    )
    p_serve.add_argument(
        "--model", default="patternnet", choices=sorted(MODEL_REGISTRY),
        help="registered model name (also the bundle's architecture)",
    )
    p_serve.add_argument(
        "--bundle", default=None,
        help="serve a deployment bundle .npz restored into --model "
        "(weights, masks and SPM encodings)",
    )
    p_serve.add_argument(
        "--n", type=int, default=None,
        help="prune with this many non-zeros per kernel before serving "
        "(ignored with --bundle; default: stay dense)",
    )
    p_serve.add_argument("--patterns", type=int, default=None, help="pattern budget |P|")
    p_serve.add_argument(
        "--workers", type=int, default=None,
        help="thread-pool width each coalesced flush fans out over",
    )
    p_serve.add_argument(
        "--worker-procs", type=int, default=None,
        help="serve flushes through this many inference worker *processes* "
        "over shared-memory rings (compiled weights mapped once, "
        "read-only, into every worker); scales past the GIL on "
        "multi-core hosts (incompatible with --no-compile)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=32,
        help="largest coalesced micro-batch (default: 32)",
    )
    p_serve.add_argument(
        "--max-latency-ms", type=float, default=2.0,
        help="how long a flush waits for more requests (default: 2.0)",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=None,
        help="admission-control high-water mark: shed requests with "
        "HTTP 429 + Retry-After once this many are queued "
        "(default: unbounded queue)",
    )
    p_serve.add_argument(
        "--slo-ms", type=float, default=None,
        help="per-request latency SLO: flushes fire early to make the "
        "oldest request's deadline, and requests that blew the SLO "
        "while queued are shed with HTTP 503 (default: no SLO)",
    )
    p_serve.add_argument(
        "--tenant", action="append", default=None, metavar="NAME=MODEL[,k=v...]",
        help="serve a multi-tenant fleet: repeatable per-tenant spec "
        "(keys: n, patterns, seed, weight, rate, max-queue, slo-ms), "
        "e.g. --tenant hot=patternnet,weight=3 --tenant "
        "cold=patternnet,n=2; overrides --model/--n",
    )
    p_serve.add_argument(
        "--memory-budget-mb", type=float, default=None,
        help="fleet-wide budget (MiB) for reclaimable resident bytes "
        "(plan caches, arenas, derived GEMM operands): over it, cold "
        "tenants are demoted then evicted LRU-first and re-promoted "
        "warm on their next request (default: unenforced)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=8100, help="bind port")
    p_serve.add_argument(
        "--stream-port", type=int, default=None,
        help="also serve the persistent-connection binary streaming "
        "protocol (length-prefixed tensor frames, out-of-order "
        "completion, per-stream delta cache) on this TCP port "
        "(default: HTTP only)",
    )
    p_serve.add_argument(
        "--stream-delta", type=float, default=None,
        help="per-stream near-duplicate threshold (L-infinity, input "
        "scale) for the streaming delta cache: frames within it of "
        "their stream's reference frame answer from the cached result "
        "without touching the batcher; negative disables the cache "
        "(default: 1e-3)",
    )
    p_serve.add_argument(
        "--no-compile", action="store_true",
        help="serve the eager float64 module graph instead of the "
        "compiled pipeline",
    )
    p_serve.add_argument(
        "--quantize", action="store_true",
        help="compile served models to the int8 execution path "
        "(incompatible with --no-compile)",
    )
    p_serve.add_argument(
        "--tune", choices=("cost", "measure"), default=None,
        help="compile served models with per-layer schedule tuning "
        "(measure persists winners in the tuning cache, so warm "
        "restarts skip the measurement; incompatible with --no-compile)",
    )
    p_serve.add_argument(
        "--list-models", action="store_true",
        help="list servable registry models and exit",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_chip = sub.add_parser("chip", help="Table IX breakdown and floorplan")
    p_chip.set_defaults(func=cmd_chip)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
