"""The repository's benchmark: one workload per run, metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vgg16_f32 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer ones (and writes the spans to
``perfbench/out/``). The last line of standard output is the result
object; the lines before it give each metric with its unit and sample
count, the notes, and the machine fingerprint. The exit code is 1 when
an output was wrong and 2 when no valid result could be produced.
``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from pb_common import OUT_DIR, ROOT, BenchError, StealMeter, Tracer, fingerprint, require_src  # noqa: E402

WORKLOADS = ("vgg16_f32", "vgg16_int8", "serve_patternnet")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Per-layer metric prefixes of layers a workload does not load; they read 0.
NOT_LOADED = {
    "vgg16_f32": ("serving.", "http.", "stream.", "gen."),
    "vgg16_int8": ("serving.", "http.", "stream.", "gen."),
    "serve_patternnet": (),
}


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def collect(spec: dict, workload: str, trace: bool, result: dict) -> dict:
    """The reported metrics, in BENCHMARK.json order, with their units."""
    section = "per_layer" if trace else "end_to_end"
    measured = result["per_layer"] if trace else result["end_to_end"]
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        if name in measured:
            value = measured[name]
            value = value[0] if isinstance(value, tuple) else value
        elif trace and name.startswith(NOT_LOADED[workload]):
            value = 0
        else:
            raise BenchError(f"workload {workload} did not measure {name}")
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
    extra = set(measured) - {e["name"] for e in spec[section]}
    if extra:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    return metrics


def run_workload(args) -> int:
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"workload {args.workload} is not in BENCHMARK.json")
    require_src()
    import repro.models  # noqa: F401 - import cost belongs to setup_s
    import repro.runtime  # noqa: F401

    import_s = time.perf_counter() - _START
    steal = StealMeter()
    tracer = Tracer(enabled=bool(args.trace))
    if args.workload == "serve_patternnet":
        from pb_serve import run_serve

        result = run_serve(seed=args.seed, seconds=args.seconds, tracer=tracer)
    else:
        from pb_offline import run_offline

        leg = "int8" if args.workload == "vgg16_int8" else "f32"
        result = run_offline(leg=leg, seed=args.seed, seconds=args.seconds, tracer=tracer,
                             import_s=import_s)
    metrics = collect(spec, args.workload, bool(args.trace), result)
    machine = fingerprint()

    measured = result["per_layer"] if args.trace else result["end_to_end"]
    for name, row in metrics.items():
        count = f" (n={measured[name][2]})" if isinstance(measured.get(name), tuple) else ""
        print(f"{args.workload} {name} = {row['value']:.6g} {row['unit']}{count}")
    for key, note in result["notes"].items():
        print(f"note {key}: {note}")
    print(f"note host_cpu_steal: {steal.share():.3f} of CPU time during the run")
    print(f"fingerprint: {json.dumps(machine, sort_keys=True)}")
    if args.trace:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "fingerprint": machine})
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode == 2 or not lines:
            raise BenchError(f"workload {workload} produced no result")
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, row in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = row
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
