"""productmix end-to-end benchmark.

    python3 perfbench/run.py --workload dense-bids --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop with a single client on inputs generated
from ``--seed``, checks every output outside the timed region, and prints one
line per metric followed by a JSON result as the last line of stdout.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` first runs
untraced for a third of ``--seconds``, replays the same operations with spans
recorded around every call into the productmix modules, and reports per-layer
metrics.  Operation and set-up times are scaled to a fixed host speed by a
reference timed beside them (see ``measure.py``); the unscaled figures are
printed too.  The package is imported from ``src/`` next to this directory;
the run fails without printing a result when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Wolfe's numpy.linalg.solve calls must not spread across cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import productmix\n"
    "print(time.perf_counter() - start)\n"
)


def _import_productmix():
    if not (SRC / "productmix" / "__init__.py").is_file():
        sys.exit(f"perfbench: no productmix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import productmix

    if Path(productmix.__file__).resolve().parent != SRC / "productmix":
        sys.exit(f"perfbench: imported productmix from {productmix.__file__}, not {SRC}")
    return productmix


def _import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(workloads, inputs, measure):
    """Median over repeats of (import productmix) + (build every BidList),
    each repeat scaled to the reference host speed measured right before it."""
    totals = []
    prepared = None
    for _ in range(SETUP_REPEATS):
        scale = measure.host_scale()
        imported = _import_seconds()
        start = time.perf_counter()
        prepared = workloads.build(inputs)
        totals.append((imported + time.perf_counter() - start) * scale)
    return statistics.median(totals), prepared


def identity(args, productmix) -> dict:
    import numpy

    from productmix import kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_lane": kernels.backend_name(),
        "PRODUCTMIX_KERNELS": os.environ.get("PRODUCTMIX_KERNELS"),
        "blas_threads": os.environ[THREAD_VARS[0]],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "productmix": productmix.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def end_to_end(loop, measure, setup_s: float) -> tuple[dict, dict]:
    latencies = loop.scaled()
    pct, tail_value, beyond = measure.tail(latencies)
    attempted = len(latencies)
    values = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "ops_per_s": attempted / sum(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "latency_tail_percentile": pct,
        "latency_samples": attempted,
        "latency_samples_beyond_tail": beyond,
        "fail_ratio": loop.failed / attempted,
        "unscaled_latency_p50_s": statistics.median(loop.latencies),
        "unscaled_ops_per_s": attempted / loop.busy,
        "reference_p50_s": statistics.median(loop.references),
    }
    return {key: (values[key], unit) for key, unit in END_TO_END_UNITS.items()}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    productmix = _import_productmix()
    import measure
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]

    start = time.perf_counter()
    inputs = workloads.generate(args.workload, args.seed)
    gen_s = time.perf_counter() - start
    setup_s, prepared = measure_setup(workloads, inputs, measure)

    run = workloads.OPERATIONS[spec.op]
    checker = workloads.Checker(inputs, prepared)
    loop = measure.Loop(lambda i: run(prepared[i]), len(prepared), checker)

    record = {"identity": identity(args, productmix), "inputs": len(inputs)}
    OUT.mkdir(exist_ok=True)
    if not args.trace:
        loop.for_seconds(args.seconds)
        metrics, extra = end_to_end(loop, measure, setup_s)
        record.update(extra)
        attempted, failed = len(loop.latencies), loop.failed
    else:
        loop.for_seconds(args.seconds / 3)
        tracer = spans.Tracer()
        name = f"op.{spec.op}"
        traced = measure.Loop(
            lambda i: tracer.run_op(name, run, prepared[i]), len(prepared), checker
        )
        saved = spans.instrument(tracer)
        try:
            traced.replay(loop.order)
        finally:
            spans.restore(saved)
        ops = len(traced.latencies)
        layer = spans.layer_metrics(tracer, ops)
        layer["testgen.gen_s"] = gen_s
        layer["trace.overhead_ratio"] = sum(traced.scaled()) / sum(loop.scaled())
        metrics = {key: (value, spans.UNITS[key]) for key, value in layer.items()}
        span_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write(span_file)
        record.update(spans=len(tracer), span_file=str(span_file.relative_to(ROOT)))
        attempted = len(loop.latencies) + ops
        failed = loop.failed + traced.failed
        record["fail_ratio"] = failed / attempted

    for key, (value, unit) in metrics.items():
        note = ""
        if key == "latency_tail_s":
            note = (
                f"  (p{record['latency_tail_percentile']:g} of "
                f"{record['latency_samples']} samples, "
                f"{record['latency_samples_beyond_tail']} beyond)"
            )
        print(f"{key:28s} {value:.6g} {unit}{note}")
    print(f"{'fail_ratio':28s} {record['fail_ratio']:.6g}  ({failed} of {attempted})")
    if not args.trace:
        print(
            f"{'unscaled':28s} latency_p50 {record['unscaled_latency_p50_s']:.6g} s, "
            f"ops {record['unscaled_ops_per_s']:.6g} 1/s, "
            f"reference p50 {record['reference_p50_s']:.6g} s "
            f"(times above are at a reference of {measure.REFERENCE_S:g} s)"
        )
    print("identity " + json.dumps(record["identity"], sort_keys=True))

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
