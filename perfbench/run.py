"""Benchmark entry point: one workload, one seed, one result line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload train-tmall --seed 1 --seconds 15 --trace 0

Workloads: ``train-tmall``, ``serve-online``, ``serve-batch`` (see
``perfbench/README.md``). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` installs timing wrappers around the program's public calls,
reports the per-layer metrics and writes the spans to
``.bench_cache/trace-<workload>-<seed>.jsonl``. Every metric is printed
by name with its unit; the last line of standard output is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

PROCESS_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE_DIR = os.path.join(ROOT, ".bench_cache")

#: name → (unit, better); mirrored by BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "data.ingest_s": ("s", "lower"),
    "data.ingest_rows_per_s": ("1/s", "higher"),
    "data.rows_dropped": ("count", "lower"),
    "data.split_s": ("s", "lower"),
    "graph.draw_ms": ("ms", "lower"),
    "graph.extract_ms": ("ms", "lower"),
    "graph.block_rows": ("count", "lower"),
    "core.forward_ms": ("ms", "lower"),
    "core.l2_ms": ("ms", "lower"),
    "core.serving_embeddings_s": ("s", "lower"),
    "tensor.backward_ms": ("ms", "lower"),
    "nn.optim_ms": ("ms", "lower"),
    "train.self_ms": ("ms", "lower"),
    "eval.candidates_s": ("s", "lower"),
    "eval.score_s": ("s", "lower"),
    "eval.hr10": ("ratio", "higher"),
    "eval.ndcg10": ("ratio", "higher"),
    "serve.recommend_ms": ("ms", "lower"),
    "serve.gemm_ms": ("ms", "lower"),
    "serve.mask_ms": ("ms", "lower"),
    "serve.select_ms": ("ms", "lower"),
    "serve.payload_ms": ("ms", "lower"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.batch_mean": ("count", "higher"),
    "serve.http_ms": ("ms", "lower"),
    "serve.swap_s": ("s", "lower"),
    "serve.verify_s": ("s", "lower"),
    "serve.swaps": ("count", "higher"),
    "serve.swap_errors": ("count", "lower"),
    "serve.rejected": ("count", "lower"),
    "serve.freshness_s": ("s", "lower"),
    "serve.swap_tail_ms": ("ms", "lower"),
    "serve.slo_miss_share": ("ratio", "lower"),
    "loadgen.late_ms": ("ms", "lower"),
    "run.fail_share": ("ratio", "lower"),
    # the workloads' tail latency; not end-to-end, because on serve-online
    # it follows the host's CPU steal (perfbench/README.md)
    "run.tail_ms": ("ms", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.span_cost_share": ("ratio", "lower"),
}
WORKLOADS = ("train-tmall", "serve-online", "serve-batch")
#: fresh interpreters that time the program's imports for ``setup_s``
IMPORT_REPS = 3
PROGRAM_MODULES = ("repro.core", "repro.serve.http", "repro.train.trainer")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be between 1 and 600")
    return args


def _import_program() -> None:
    """Import the program from ``src/``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise FileNotFoundError(
            f"no program sources at {src!r}: run from a source checkout")
    sys.path.insert(0, src)
    for module in PROGRAM_MODULES:
        importlib.import_module(module)


def _import_seconds() -> float:
    """Median time of a fresh interpreter to start and import the program.

    Taken in separate processes, because this process's own imports are a
    single sample whose time depends on what the file cache holds.
    """
    script = (f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); "
              + "; ".join(f"import {m}" for m in PROGRAM_MODULES))
    times = []
    for _ in range(IMPORT_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", script], check=True,
                       capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _print_table(title: str, values: dict) -> None:
    print(title)
    for name, (value, unit) in values.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")


def main(argv) -> int:
    args = _parse(argv)
    if args.workload != "train-tmall":
        # the server, its snapshot rebuilds and the load generator share
        # the cores; a BLAS pool per busy thread would oversubscribe them
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        _import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import spans
    import serve_bench
    import train_bench

    # set-up includes starting an interpreter and importing the program
    import_s = _import_seconds()
    os.makedirs(CACHE_DIR, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        if args.workload == "train-tmall":
            train_bench.install_wrappers(tracer)
        else:
            serve_bench.install_wrappers(tracer)
    try:
        if args.workload == "train-tmall":
            result = train_bench.run(args.seed, args.seconds, tracer,
                                     CACHE_DIR, import_s)
        else:
            mode = "open" if args.workload == "serve-online" else "closed"
            result = serve_bench.run(mode, args.seed, args.seconds, tracer,
                                     CACHE_DIR, import_s)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if result["metrics"] is None:
        for failure in result["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    _print_table(f"{args.workload} seed={args.seed} end-to-end",
                 result["metrics"])
    reported = {name: result["metrics"][name] for name in END_TO_END}
    if tracer is not None:
        layers = dict(result["layers"])
        layers["run.tail_ms"] = result["metrics"]["tail_ms"]
        layers["trace.span_cost_share"] = (
            spans.span_cost_s() * len(tracer.spans)
            / (time.perf_counter() - PROCESS_START), "ratio")
        unknown = set(layers) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"undeclared per-layer metrics {sorted(unknown)}")
        # a layer the workload never calls reports 0: the prediction
        # for it on this workload is "no change"
        reported = {name: layers.get(name, (0.0, unit))
                    for name, (unit, _) in PER_LAYER.items()}
        _print_table("per layer", reported)
        trace_path = os.path.join(
            CACHE_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write_jsonl(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print("details: " + json.dumps(result["details"], sort_keys=True))
    print(json.dumps({
        "correct": not result["failures"] and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
