"""Sparse fully-connected layer with LSH-sampled forward and backward passes.

The forward pass only evaluates activations for a small active set of neurons
chosen by querying the layer's neuron index with the input; the backward pass
only touches the links of that active set. A dense path (active set = all
neurons) doubles as the correctness reference and the dense-inference mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autotune import AutotuneConfig, AutotunePlan, autotune
from .errors import ContractError, DimensionError
from .lsh import NeuronIndex
from .vectors import SparseVector, sparsify

IDENTITY = "identity"
RELU = "relu"
SOFTMAX = "softmax"  # normalized over the active set only
ACTIVATIONS = (IDENTITY, RELU, SOFTMAX)

# ActiveSet origin flags
SAMPLED = 0
LABEL_FORCED = 1
PADDED = 2

TRAIN = "train"
SPARSE_INFER = "sparse"
DENSE_INFER = "dense"


@dataclass
class ActiveSet:
    ids: np.ndarray     # sorted distinct neuron ids
    flags: np.ndarray   # aligned uint8 origin flags

    def __len__(self):
        return int(self.ids.size)

    def positions_of(self, neuron_ids) -> np.ndarray:
        """Positions of the given ids inside the active set; ContractError if absent."""
        neuron_ids = np.asarray(neuron_ids, dtype=np.int64)
        pos = np.searchsorted(self.ids, neuron_ids)
        ok = (pos < self.ids.size) & (self.ids[np.minimum(pos, self.ids.size - 1)] == neuron_ids)
        if not np.all(ok):
            raise ContractError(f"ids {neuron_ids[~ok].tolist()} not in active set")
        return pos


@dataclass
class ForwardResult:
    activations: SparseVector          # over d; one entry per active id, ReLU zeros included
    active: ActiveSet
    logits: np.ndarray                 # pre-activations aligned with active ids
    output: SparseVector               # what the next layer reads: activations without ReLU zeros
    aln_record: Optional[tuple] = None  # (missed label ids, per-table codes)


@dataclass
class LayerGradients:
    active_ids: np.ndarray      # rows align with these ids
    input_indices: np.ndarray   # columns of weight_grad within d_prev
    input_values: np.ndarray    # the layer input's values at input_indices
    bias_grad: np.ndarray       # (n_active,); also the delta at each active id
    input_grad: Optional[SparseVector]  # over d_prev; None when not asked for

    @property
    def weight_grad(self) -> np.ndarray:
        """(n_active, nnz of input) outer-product block, built on each read."""
        return np.outer(self.bias_grad, self.input_values)


class SparseLinearLayer:
    def __init__(self, weights, biases, sparsity, activation,
                 index: Optional[NeuronIndex] = None,
                 plan: Optional[AutotunePlan] = None):
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.biases = np.asarray(biases, dtype=np.float64)
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if not 0 < sparsity <= 1:
            raise ValueError("sparsity must be in (0, 1]")
        if (sparsity < 1) != (index is not None):
            raise ValueError("index must be present exactly when sparsity < 1")
        self.sparsity = float(sparsity)
        self.activation = activation
        self.index = index
        self.plan = plan

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def prev_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def min_count(self) -> int:
        return math.ceil(self.sparsity * self.dim)

    @classmethod
    def create(cls, dim: int, prev_dim: int, sparsity: float, activation: str,
               seed: int, tune_cfg: Optional[AutotuneConfig] = None) -> "SparseLinearLayer":
        """Fresh layer: symmetric uniform weight init, zero biases, tuned index."""
        rng = np.random.default_rng(seed)
        bound = math.sqrt(6.0 / (prev_dim + dim))
        weights = rng.uniform(-bound, bound, size=(dim, prev_dim))
        biases = np.zeros(dim)
        index = plan = None
        if sparsity < 1:
            plan = autotune(dim, prev_dim, sparsity, tune_cfg)
            index = NeuronIndex.build(weights, plan, seed=seed + 1)
        return cls(weights, biases, sparsity, activation, index, plan)

    # -- forward -----------------------------------------------------------

    def forward(self, input: SparseVector, mode: str, labels=None,
                min_count: int | None = None) -> ForwardResult:
        """min_count overrides the layer's own ceil(s*d), e.g. for raising the
        inference sparsity without rebuilding tables."""
        if input.dim != self.prev_dim:
            raise DimensionError(f"input dim {input.dim} != layer prev dim {self.prev_dim}")
        aln_record = None
        if min_count is None:
            min_count = self.min_count
        # a sparse inference query for all d ids would only pad up to every row
        full = mode == SPARSE_INFER and min_count == self.dim
        if mode == DENSE_INFER or self.sparsity == 1 or full:
            ids = np.arange(self.dim, dtype=np.int64)
            flags = np.zeros(self.dim, dtype=np.uint8)
            if mode == TRAIN:
                self._check_labels(labels)
        elif mode in (SPARSE_INFER, TRAIN):
            ids, padded, codes = self.index.query(input, min_count)
            flags = np.where(padded, PADDED, SAMPLED).astype(np.uint8)
            if mode == TRAIN:
                labels = self._check_labels(labels)
                sampled_ids = ids[flags == SAMPLED]
                if sampled_ids.size:
                    pos = np.searchsorted(sampled_ids, labels)
                    hit = (pos < sampled_ids.size) & (sampled_ids[np.minimum(pos, sampled_ids.size - 1)] == labels)
                else:
                    hit = np.zeros(labels.size, dtype=bool)
                missed = labels[~hit]
                if missed.size:
                    ids, flags = self._force_labels(ids, flags, missed)
                    aln_record = (missed, codes)
        else:
            raise ValueError(f"unknown mode {mode!r}")

        logits = self._project(input, ids)
        values = self._activate(logits)
        activations = SparseVector(self.dim, ids, values, _checked=True)
        output = activations
        if self.activation == RELU:
            # ReLU zeros add no signal downstream: the next layer neither
            # hashes, gathers nor backpropagates over them
            live = values > 0
            output = SparseVector(self.dim, ids[live], values[live], _checked=True)
        return ForwardResult(activations, ActiveSet(ids, flags), logits, output, aln_record)

    def _check_labels(self, labels) -> np.ndarray:
        if labels is None or len(labels) == 0:
            raise ContractError("train mode requires at least one label")
        labels = np.unique(np.asarray(labels, dtype=np.int64))
        if labels[0] < 0 or labels[-1] >= self.dim:
            raise ContractError("label id out of range")
        return labels

    @staticmethod
    def _force_labels(ids, flags, missed):
        merged = np.concatenate([ids, missed])
        mflags = np.concatenate([flags, np.full(missed.size, LABEL_FORCED, dtype=np.uint8)])
        order = np.argsort(merged, kind="stable")
        merged, mflags = merged[order], mflags[order]
        keep = np.ones(merged.size, dtype=bool)
        keep[1:] = merged[1:] != merged[:-1]  # drop a forced dup after a sampled/padded copy
        return merged[keep], mflags[keep]

    def _project(self, input: SparseVector, ids: np.ndarray) -> np.ndarray:
        if input.nnz == 0:
            return self.biases[ids].copy()
        # the same C-contiguous block as weights[np.ix_(ids, input.indices)],
        # so the product is bit-identical; sorted distinct ids of size d are all rows
        block = self.weights if ids.size == self.dim else np.take(self.weights, ids, 0)
        if input.nnz < self.prev_dim:
            block = block.take(input.indices, 1)
        return block @ input.values + self.biases[ids]

    def _activate(self, logits: np.ndarray) -> np.ndarray:
        if self.activation == IDENTITY:
            return logits.copy()
        if self.activation == RELU:
            return np.maximum(logits, 0.0)
        return _softmax(logits)

    # -- backward ----------------------------------------------------------

    def backward(self, input: SparseVector, activations: SparseVector,
                 active: ActiveSet, upstream: SparseVector,
                 with_input_grad: bool = True) -> LayerGradients:
        """Gradients restricted to the active set.

        For identity/relu the upstream vector is dL/d(activation); for the
        softmax activation the caller passes the combined softmax-CE gradient
        with respect to the logits (from softmax_ce_loss_grad). With
        with_input_grad=False the input gradient is not computed and is None;
        Model.backward passes that for the first layer, whose input gradient
        nothing reads.
        """
        if upstream.dim != self.dim:
            raise DimensionError("upstream dim mismatch")
        pos = active.positions_of(upstream.indices)  # ContractError if outside
        delta = np.zeros(len(active))
        delta[pos] = upstream.values
        if self.activation == RELU:
            act_at = np.zeros(len(active))
            act_at[active.positions_of(activations.indices)] = activations.values
            delta = np.where(act_at > 0, delta, 0.0)
        # identity and softmax: delta passes through unchanged

        input_grad = None
        if with_input_grad:
            input_grad = sparsify(delta @ self.weights[active.ids])
        return LayerGradients(
            active_ids=active.ids,
            input_indices=input.indices,
            input_values=input.values,
            bias_grad=delta,
            input_grad=input_grad,
        )


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def softmax_ce_loss_grad(logits: np.ndarray, active: ActiveSet, labels):
    """Active-set softmax cross entropy against a uniform target over labels.

    Returns (loss, delta) with delta = softmax(logits) - target, aligned with
    the active set.
    """
    labels = np.unique(np.asarray(labels, dtype=np.int64))
    if labels.size == 0:
        raise ContractError("need at least one label")
    pos = active.positions_of(labels)  # ContractError when outside active set
    z = logits - logits.max()
    log_probs = z - math.log(np.exp(z).sum())
    delta = np.exp(log_probs)
    delta[pos] -= 1.0 / labels.size
    loss = -float(log_probs[pos].mean())
    return loss, delta
