"""Input preparation for the benchmark, run in a child process of run.py.

Every input is generated here with numpy from the workload seed and written as
an XC text file, so the measured process receives only files and the program's
own synthetic generator cannot change what is measured. For serve_100k this
process also creates the 10^5-class model with ``Model.create``, writes it with
``save_to`` and stores what the measured process checks against: a digest of
the created weights, the exact dense top-1 of every query, and the sparse
rankings of a few queries made before the model was saved.

Usage: python3 perfbench/prepare.py WORKLOAD SEED OUTDIR
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spec import INFERENCE_SPARSITY, WORKLOADS, Workload  # noqa: E402


def write_xc(path: str, num_features: int, num_labels: int,
             labels: np.ndarray, rows: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """One single-label example per line, 0-based ids, values that round-trip."""
    with open(path, "w") as fh:
        fh.write(f"{len(rows)} {num_features} {num_labels}\n")
        for label, (idx, val) in zip(labels.tolist(), rows):
            feats = " ".join(f"{i}:{v!r}" for i, v in zip(idx.tolist(), val.tolist()))
            fh.write(f"{label} {feats}\n")


def clustered(rng: np.random.Generator, centers: np.ndarray, labels: np.ndarray,
              noise: float, top_k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Center of each label plus Gaussian noise, cut to the top_k largest
    magnitudes (all coordinates when top_k equals the feature count)."""
    dim = centers.shape[1]
    x = centers[labels] + noise * rng.standard_normal((labels.size, dim))
    rows = []
    for v in x:
        idx = np.sort(np.argpartition(np.abs(v), dim - top_k)[dim - top_k:])
        rows.append((idx, v[idx]))
    return rows


def prepare_training(w: Workload, seed: int, out: str) -> None:
    rng = np.random.default_rng([seed, 1])
    dim = w.dims[0]
    centers = rng.standard_normal((w.label_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    # the classes that carry examples are a random subset of the output layer
    class_ids = rng.permutation(w.dims[-1])[:w.label_classes]
    train_local = rng.permutation(np.repeat(np.arange(w.label_classes), w.train_per_class))
    eval_local = rng.integers(0, w.label_classes, w.eval_examples)
    write_xc(os.path.join(out, "train.txt"), dim, w.dims[-1], class_ids[train_local],
             clustered(rng, centers, train_local, w.noise, w.top_k))
    write_xc(os.path.join(out, "eval.txt"), dim, w.dims[-1], class_ids[eval_local],
             clustered(rng, centers, eval_local, w.noise, w.top_k))


def prepare_serving(w: Workload, seed: int, out: str) -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from lshnet import Model, TrainConfig, predict
    from lshnet.vectors import SparseVector

    from checks import weights_digest

    model = Model.create(list(w.dims), list(w.sparsities), list(w.activations),
                         seed=seed)
    weights = model.layers[0].weights
    rng = np.random.default_rng([seed, 2])
    sources = rng.choice(weights.shape[0], size=w.eval_examples, replace=False)
    dim = weights.shape[1]
    norms = np.linalg.norm(weights[sources], axis=1, keepdims=True)
    x = weights[sources] + w.noise * norms / np.sqrt(dim) * rng.standard_normal((sources.size, dim))
    idx = np.arange(dim)
    write_xc(os.path.join(out, "queries.txt"), dim, weights.shape[0], sources,
             [(idx, v) for v in x])
    # exact answers: dense argmax of W x + b, chunked to bound memory
    biases = model.layers[0].biases
    exact = np.concatenate([np.argmax(chunk @ weights.T + biases, axis=1)
                            for chunk in np.array_split(x, max(1, x.shape[0] // 50))])
    cfg = TrainConfig(inference_sparsity=INFERENCE_SPARSITY)
    rankings = [predict(model, SparseVector(dim, idx, v), cfg) for v in x[:w.roundtrip_queries]]
    np.savez(os.path.join(out, "expected.npz"), exact=exact,
             **{f"ranking_{i}": r for i, r in enumerate(rankings)})
    with open(os.path.join(out, "digest.json"), "w") as fh:
        json.dump({"weights": weights_digest(model)}, fh)
    model.save_to(os.path.join(out, "model.bin"))


def main(argv: list[str]) -> int:
    name, seed, out = argv[0], int(argv[1]), argv[2]
    w = WORKLOADS[name]
    (prepare_serving if w.serving else prepare_training)(w, seed, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
