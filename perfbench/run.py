"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload train_10k --seed 1 --seconds 1 --trace 0

Run from the repository root; BENCHMARK.json gives the full command, which
also fixes the BLAS thread count (see README.md). The inputs are made by
prepare.py in a child process; this process then sets up, trains and serves
through the ``lshnet`` package in ``src/``, checks the outputs, and prints one
JSON line last: every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``. A traced run first makes the untraced pass, then the
same pass with wrappers installed, and prints the tracing overhead between them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")
PREPARE_TIMEOUT_S = 150

sys.path.insert(0, HERE)

from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def prepare(workload: str, seed: int, inputs: str) -> None:
    """Generate the inputs in a child process, so their memory is not counted."""
    cmd = [sys.executable, os.path.join(HERE, "prepare.py"), workload, str(seed), inputs]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=PREPARE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"input preparation exceeded {PREPARE_TIMEOUT_S} s")
    if code != 0:
        raise SystemExit(f"input preparation failed with exit code {code}")


def print_phases(label: str, outcome) -> None:
    counts = " ".join(f"{name}={p.attempted}/{p.failed}" for name, p in outcome.phases.items()
                      if p.attempted)
    seconds = " ".join(f"{name}={p.seconds:.2f}" for name, p in outcome.phases.items())
    print(f"{label} phases attempted/failed: {counts}; timed queries {outcome.latency_queries}; "
          f"checks passed {outcome.checks - len(outcome.errors)}/{outcome.checks}")
    print(f"{label} phase seconds: {seconds}")
    for err in outcome.errors:
        print(f"{label} CHECK FAILED: {err}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lshnet", "__init__.py")):
        print(f"no lshnet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bench

    w = WORKLOADS[args.workload]
    inputs = os.path.join(WORK, f"{w.name}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(inputs, exist_ok=True)
    try:
        t0 = time.perf_counter()
        prepare(w.name, args.seed, inputs)
        print(f"inputs prepared in {time.perf_counter() - t0:.2f} s")
        outcome = bench.run(w, args.seed, inputs, args.seconds)
        print_phases("untraced", outcome)
        result = {name: outcome.metrics[name] for name in END_TO_END}
        print("end-to-end: " + " ".join(f"{k}={v:.6g}" for k, v in result.items()))
        outcomes = [outcome]
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = bench.run(w, args.seed, inputs, args.seconds, tracer)
            finally:
                tracer.uninstall()
            print_phases("traced", traced)
            outcomes.append(traced)
            print("trace overhead (traced vs untraced pass): " + " ".join(
                f"{k}={traced.metrics[k] / outcome.metrics[k] - 1:+.1%}"
                for k in ("setup_s", "train_samples_per_s", "eval_samples_per_s",
                          "latency_p50_ms", "latency_p90_ms")))
            trace_path = os.path.join(WORK, f"trace-{w.name}-seed{args.seed}.npz")
            tracer.save(trace_path)
            values, absent = spans.layer_metrics(tracer)
            print(f"spans: {len(tracer.start)} written to {os.path.relpath(trace_path, ROOT)}")
            if absent:
                print("absent (their functions are gone): " + " ".join(absent))
            metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in result.items()}
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps({
        "correct": all(o.correct for o in outcomes),
        "attempted": sum(p.attempted for o in outcomes for p in o.phases.values()),
        "failed": sum(p.failed for o in outcomes for p in o.phases.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
