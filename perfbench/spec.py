"""The benchmark's workloads (model shape, input make-up, run settings) and the
metric names and units, which BENCHMARK.json holds."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every predict runs in sparse mode at this inference sparsity
INFERENCE_SPARSITY = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple            # input dim, then each layer width
    sparsities: tuple
    activations: tuple
    serving: bool          # True: load a prepared model and serve it
    noise: float           # training: per-coordinate noise; serving: share of the row norm
    top_k: int             # stored features per example
    eval_examples: int     # eval examples, or queries when serving
    label_classes: int = 0     # classes that carry training examples
    train_per_class: int = 0
    rebuild_interval: int = 50
    setup_reps: int = 3
    eval_call_examples: int = 0  # prefix of the eval set given to evaluate(); 0 = all
    finetune_examples: int = 0   # serving: labelled queries of the closing fine-tune
    batch_size: int = 64         # training, or the fine-tune when serving
    epochs: int = 1
    lr: float = 0.01
    roundtrip_queries: int = 50
    warmup_queries: int = 50
    latency_rounds: int = 1      # timed rounds over the eval set: a fixed query count


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train_10k", dims=(64, 10_000), sparsities=(0.05,), activations=("softmax",),
        serving=False, noise=0.1, top_k=32, eval_examples=2000, eval_call_examples=250,
        label_classes=1000, train_per_class=8, latency_rounds=2),
    Workload(
        name="train_deep", dims=(64, 256, 10_000), sparsities=(1.0, 0.05),
        activations=("relu", "softmax"), serving=False, noise=0.1, top_k=32,
        eval_examples=1000, eval_call_examples=250, label_classes=125, train_per_class=16,
        rebuild_interval=16, lr=0.003, latency_rounds=2),
    Workload(
        name="serve_100k", dims=(64, 100_000), sparsities=(0.05,), activations=("softmax",),
        serving=True, noise=1.6, top_k=64, eval_examples=1000, setup_reps=2,
        eval_call_examples=150, finetune_examples=80, batch_size=16, epochs=2),
)}


def _metric_units(key: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


END_TO_END = _metric_units("end_to_end")
PER_LAYER = _metric_units("per_layer")
