"""Reference figures at 10^5 x 64, not gated: the honest dense baselines.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/reference.py [--seed 1]

Times one query's top-1 four ways on the serve_100k model and its first 300
queries: a numpy GEMV ``W @ x + b`` with argmax, a batched numpy GEMM over
those queries (time per query), the program's DENSE_INFER predict, and its
sparse predict at inference sparsity 0.05. Each per-query figure is a median
over the queries.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import bench  # noqa: E402
import lshnet.data as data  # noqa: E402
import lshnet.layers as layers  # noqa: E402
import lshnet.model as lmodel  # noqa: E402
import lshnet.training as training  # noqa: E402
import prepare  # noqa: E402
from spec import INFERENCE_SPARSITY, WORKLOADS  # noqa: E402

QUERIES = 300


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    w = WORKLOADS["serve_100k"]
    inputs = os.path.join(HERE, "work", f"reference-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(inputs, exist_ok=True)
    try:
        prepare.prepare_serving(w, args.seed, inputs)
        model = lmodel.Model.load_from(os.path.join(inputs, "model.bin"))
        queries = data.load_xc(os.path.join(inputs, "queries.txt")).examples[:QUERIES]
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    layer = model.layers[0]
    weights, biases = layer.weights, layer.biases
    x = bench.dense_inputs(queries, model.input_dim)
    cfg = training.TrainConfig(inference_sparsity=INFERENCE_SPARSITY)

    def per_query(fn, items):
        for item in items[:10]:  # warm-up
            fn(item)
        times = []
        for item in items:
            t0 = perf_counter()
            fn(item)
            times.append(perf_counter() - t0)
        return 1e3 * float(np.median(times))

    figures = {
        "numpy GEMV W@x+b, argmax": per_query(lambda v: np.argmax(weights @ v + biases), list(x)),
        "program sparse predict, s=0.05": per_query(
            lambda ex: training.predict(model, ex.features, cfg), queries),
        "program DENSE_INFER predict": per_query(
            lambda ex: training.predict(model, ex.features, cfg, layers.DENSE_INFER),
            queries[:max(20, len(queries) // 10)]),
    }
    gemm = []
    for _ in range(5):
        t0 = perf_counter()
        np.argmax(x @ weights.T + biases, axis=1)
        gemm.append(perf_counter() - t0)
    figures["numpy batched GEMM, per query"] = 1e3 * float(np.median(gemm)) / len(x)
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"10^5 x 64, {len(queries)} queries, OPENBLAS_NUM_THREADS={threads}")
    for name, ms in figures.items():
        print(f"  {name:34s} {ms:9.3f} ms/query")
    return 0


if __name__ == "__main__":
    sys.exit(main())
