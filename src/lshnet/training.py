"""Batch training loop with lazy Adam, ALN bucket maintenance and sparse inference.

The loop is phased per batch: per-sample forward/backward, then one update.
For each layer that update concatenates the samples' active ids, marks their
sorted union, reduces the batch to one weight-gradient GEMM over those rows
(deltas x layer inputs) and applies Adam to those rows only, in cache-sized
chunks of rows. It then flushes queued label insertions into the LSH buckets
and periodically rebuilds the indexes from the drifted weights.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import XcDataset
from .errors import DataError
from .layers import DENSE_INFER, SPARSE_INFER
from .model import Model
from .vectors import SparseVector


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 5
    lr: float = 0.001
    rebuild_interval: int = 50     # batches between index rebuilds
    aln_enabled: bool = False
    inference_sparsity: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.rebuild_interval < 1:
            raise ValueError("rebuild_interval must be >= 1")
        if not 0 < self.inference_sparsity <= 1:
            raise ValueError("inference_sparsity must be in (0, 1]")


@dataclass
class BatchRecord:
    epoch: int
    batch: int
    loss: float
    p_at_1: float
    seconds: float

    def line(self) -> str:
        return (f"epoch={self.epoch} batch={self.batch} loss={self.loss:.6f} "
                f"p_at_1={self.p_at_1:.4f} seconds={self.seconds:.3f}")


@dataclass
class EpochSummary:
    epoch: int
    loss: float
    p_at_1: float
    seconds: float


@dataclass
class TrainReport:
    records: list = field(default_factory=list)
    epochs: list = field(default_factory=list)


# values per temporary in one chunk of a lazy Adam update (128 KB of float64):
# small enough for every temporary of a chunk to stay in a core's L2 cache
ADAM_CHUNK_ELEMENTS = 16384


class _LayerAdam:
    """Per-layer Adam moments with lazy (touch-time only) row updates."""

    def __init__(self, dim, prev_dim):
        self.m_w = np.zeros((dim, prev_dim))
        self.v_w = np.zeros((dim, prev_dim))
        self.m_b = np.zeros(dim)
        self.v_b = np.zeros(dim)
        self.last_step = np.zeros(dim, dtype=np.int64)


class SparseAdamState:
    def __init__(self, model: Model, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.layers = [_LayerAdam(l.dim, l.prev_dim) for l in model.layers]

    def update_rows(self, model: Model, layer_idx: int, rows: np.ndarray,
                    grad_w: np.ndarray, grad_b: np.ndarray) -> None:
        """Advance moments and apply the step for the touched rows only.

        Skipped steps are NOT retroactively decayed (pure-lazy); bias
        correction uses the global step at touch time. `rows` are sorted and
        distinct, aligned with the gradient rows. They are walked in chunks of
        about ADAM_CHUNK_ELEMENTS values, so every temporary stays in cache;
        each row's arithmetic is the same for any chunk size.
        """
        st = self.layers[layer_idx]
        layer = model.layers[layer_idx]
        b1, b2 = self.beta1, self.beta2
        c1 = 1 - b1**self.t
        c2 = 1 - b2**self.t
        for m_all, v_all, params, g_all in ((st.m_w, st.v_w, layer.weights, grad_w),
                                            (st.m_b, st.v_b, layer.biases, grad_b)):
            step = max(1, ADAM_CHUNK_ELEMENTS // math.prod(g_all.shape[1:]))
            for lo in range(0, rows.size, step):
                # one gather and one scatter per array and chunk; the arithmetic runs in place
                r = rows[lo:lo + step]
                g = g_all[lo:lo + step]
                m = m_all[r]
                v = v_all[r]
                m *= b1
                m += (1 - b1) * g
                g2 = np.square(g)
                g2 *= 1 - b2
                v *= b2
                v += g2
                m_all[r] = m
                v_all[r] = v
                m /= c1
                m *= self.lr
                v /= c2
                np.sqrt(v, out=v)
                v += self.eps
                m /= v
                params[r] -= m
        st.last_step[rows] = self.t


def _validate_dataset(model: Model, dataset: XcDataset) -> None:
    if not dataset.examples:
        raise DataError("no examples to train on")
    dataset.check_width(model.input_dim)
    d = model.output_dim
    for i, ex in enumerate(dataset.examples):
        if not ex.labels or ex.labels[0] < 0 or ex.labels[-1] >= d:
            raise DataError(f"example {i}: label outside [0, {d})")


class Trainer:
    def __init__(self, model: Model, cfg: TrainConfig):
        self.model = model
        self.cfg = cfg
        self.state = SparseAdamState(model, cfg.lr)

    def train(self, dataset: XcDataset,
              checkpoint_hook=None) -> TrainReport:
        """Run the configured number of epochs; checkpoint_hook(epoch, batch,
        seconds) is invoked after each batch when provided (used by bench)."""
        cfg = self.cfg
        _validate_dataset(self.model, dataset)
        report = TrainReport()
        order_rng = np.random.default_rng(cfg.seed)
        start = time.monotonic()
        batches_per_epoch = math.ceil(len(dataset) / cfg.batch_size)
        batch_counter = 0
        for epoch in range(1, cfg.epochs + 1):
            perm = order_rng.permutation(len(dataset))
            epoch_loss = 0.0
            epoch_hits = 0
            for b in range(batches_per_epoch):
                sample_ids = perm[b * cfg.batch_size:(b + 1) * cfg.batch_size]
                batch_counter += 1
                loss, hits = self._run_batch(dataset, sample_ids, batch_counter)
                epoch_loss += loss * len(sample_ids)
                epoch_hits += hits
                seconds = time.monotonic() - start
                report.records.append(BatchRecord(
                    epoch, b + 1, loss, hits / len(sample_ids), seconds))
                if checkpoint_hook is not None:
                    # hook time (e.g. bench evaluation) is kept off the clock
                    h0 = time.monotonic()
                    checkpoint_hook(epoch, b + 1, seconds)
                    start += time.monotonic() - h0
            report.epochs.append(EpochSummary(
                epoch, epoch_loss / len(dataset), epoch_hits / len(dataset),
                time.monotonic() - start))
        return report

    def _run_batch(self, dataset: XcDataset, sample_ids, batch_counter: int):
        cfg = self.cfg
        samples = [dataset.examples[int(i)] for i in sample_ids]
        total_loss = 0.0
        hits = 0
        aln_queue = []
        grads = []
        for ex in samples:
            loss, results, sample_grads = self.model.train_step_grads(ex.features, ex.labels)
            grads.append(sample_grads)
            total_loss += loss
            out = results[-1]
            if out.activations.nnz:
                top = int(out.activations.indices[np.argmax(out.activations.values)])
                hits += int(top in ex.labels)
            if cfg.aln_enabled and out.aln_record is not None:
                aln_queue.append(out.aln_record)

        n = len(samples)
        self.state.t += 1
        # samples reduce in batch order, so a seed fixes the model bytes
        for li, layer in enumerate(self.model.layers):
            rows, gw, gb = _batch_gradient([g[li] for g in grads], layer.dim, layer.prev_dim)
            if rows.size:
                self.state.update_rows(self.model, li, rows, gw, gb)

        # flush queued label insertions into the output-layer buckets
        out_layer = self.model.layers[-1]
        if aln_queue and out_layer.index is not None:
            for labels, codes in aln_queue:
                out_layer.index.insert_labels(labels, codes)

        if batch_counter % cfg.rebuild_interval == 0:
            for layer in self.model.layers:
                if layer.index is not None:
                    layer.index.rebuild(layer.weights)
        return total_loss / n, hits


def _batch_gradient(grads: list, dim: int, prev_dim: int):
    """Average one layer's per-sample gradients over the union of their active rows.

    Returns (rows, grad_w, grad_b): the sorted union of active ids and the
    batch-mean weight and bias gradients at those rows. The union is marked in
    a length-dim mask, which needs no sort. Sample i's deltas fill row i of an
    (n, |rows|) matrix and its input fills row i of an (n, prev_dim) matrix, so
    the weight gradient is one GEMM. Each sample's active ids are distinct, so
    one scatter fills each matrix.
    """
    n = len(grads)
    ids = np.concatenate([g.active_ids for g in grads])
    mark = np.zeros(dim, dtype=bool)
    mark[ids] = True
    rows = np.flatnonzero(mark)
    pos = np.empty(dim, dtype=np.intp)
    pos[rows] = np.arange(rows.size)
    col = pos[ids]
    delta = np.zeros((n, rows.size))
    delta[np.repeat(np.arange(n), [g.active_ids.size for g in grads]), col] = \
        np.concatenate([g.bias_grad for g in grads])
    x = np.zeros((n, prev_dim))
    x[np.repeat(np.arange(n), [g.input_indices.size for g in grads]),
      np.concatenate([g.input_indices for g in grads])] = \
        np.concatenate([g.input_values for g in grads])
    grad_w = delta.T @ x
    grad_w /= n
    return rows, grad_w, delta.sum(axis=0) / n


def train(model: Model, dataset: XcDataset, cfg: TrainConfig,
          checkpoint_hook=None) -> TrainReport:
    return Trainer(model, cfg).train(dataset, checkpoint_hook)


def predict(model: Model, input: SparseVector, cfg: TrainConfig,
            mode: str = SPARSE_INFER) -> np.ndarray:
    """Ranked label ids, activation descending, ties by ascending id.

    Strictly decreasing activations have one order, so the default argsort
    is exact then; any tie or NaN takes the lexsort.
    """
    if mode == DENSE_INFER:
        results = model.forward(input, DENSE_INFER)
    else:
        out_layer = model.layers[-1]
        min_count = math.ceil(cfg.inference_sparsity * out_layer.dim)
        results = model.forward(input, SPARSE_INFER, output_min_count=min_count)
    acts = results[-1].activations
    order = np.argsort(-acts.values)
    ranked = acts.values[order]
    if not (ranked[:-1] > ranked[1:]).all():
        # a tie or a NaN: argsort leaves the order of equal values open
        order = np.lexsort((acts.indices, -acts.values))
    return acts.indices[order]


@dataclass(frozen=True)
class Latency:
    """Single-sample predict latency in seconds over the timed predicts."""
    mean: float
    p50: float
    p90: float
    p99: float
    max: float


def evaluate(model: Model, dataset: XcDataset, k: int, cfg: TrainConfig,
             mode: str = SPARSE_INFER):
    """Returns (precision@k, Latency).

    One pass: the latency is taken over the first min(1000, n) predicts.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not dataset.examples:
        raise DataError("no examples to evaluate")
    total = 0.0
    timed = np.empty(min(1000, len(dataset)))
    for i, ex in enumerate(dataset.examples):
        t0 = time.perf_counter()
        ranked = predict(model, ex.features, cfg, mode)
        if i < timed.size:
            timed[i] = time.perf_counter() - t0
        total += len(set(ranked[:k].tolist()) & set(ex.labels)) / k
    p50, p90, p99 = np.percentile(timed, [50, 90, 99]).tolist()
    return total / len(dataset), Latency(float(timed.mean()), p50, p90, p99, float(timed.max()))
