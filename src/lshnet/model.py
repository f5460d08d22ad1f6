"""Feedforward stack of sparse linear layers, plus model serialization."""

from __future__ import annotations

import io
import struct
from typing import Optional

import numpy as np

from .autotune import AutotuneConfig, AutotunePlan
from .errors import DimensionError, ModelFormatError
from .layers import (
    ACTIVATIONS,
    DENSE_INFER,
    SPARSE_INFER,
    TRAIN,
    ForwardResult,
    LayerGradients,
    SparseLinearLayer,
    softmax_ce_loss_grad,
)
from .lsh import NeuronIndex
from .vectors import SparseVector

_MAGIC = b"LSHM"
_VERSION = 1


def restrict(v: SparseVector, ids_sorted: np.ndarray) -> SparseVector:
    """Drop entries of v whose index is not in the sorted id array."""
    if v.nnz == 0:
        return v
    pos = np.searchsorted(ids_sorted, v.indices)
    ok = (pos < ids_sorted.size) & (ids_sorted[np.minimum(pos, ids_sorted.size - 1)] == v.indices)
    return SparseVector(v.dim, v.indices[ok], v.values[ok], _checked=True)


class Model:
    def __init__(self, layers: list[SparseLinearLayer]):
        if not layers:
            raise ValueError("model needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if b.prev_dim != a.dim:
                raise DimensionError("layer dims do not chain")
        self.layers = layers

    @property
    def input_dim(self) -> int:
        return self.layers[0].prev_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].dim

    @classmethod
    def create(cls, dims: list[int], sparsities: list[float], activations: list[str],
               seed: int, tune_cfg: Optional[AutotuneConfig] = None) -> "Model":
        """dims = [input_dim, h1, ..., output_dim]; other lists align with layers."""
        n = len(dims) - 1
        if not (len(sparsities) == len(activations) == n >= 1):
            raise ValueError("dims/sparsities/activations lengths do not line up")
        layers = []
        for i in range(n):
            layers.append(SparseLinearLayer.create(
                dims[i + 1], dims[i], sparsities[i], activations[i],
                seed=seed + 1000 * i, tune_cfg=tune_cfg,
            ))
        return cls(layers)

    def forward(self, input: SparseVector, mode: str, labels=None,
                output_min_count: int | None = None) -> list[ForwardResult]:
        """Run the stack; labels (train mode) and output_min_count apply to
        the output layer only. Each layer reads the previous layer's
        `output`, which leaves out a ReLU's zeros."""
        results = []
        x = input
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            if mode == TRAIN:
                layer_mode = TRAIN if i == last else SPARSE_INFER
                res = layer.forward(x, layer_mode, labels if i == last else None)
            else:
                res = layer.forward(x, mode,
                                    min_count=output_min_count if i == last else None)
            results.append(res)
            x = res.output
        return results

    def backward(self, input: SparseVector, results: list[ForwardResult],
                 output_delta: np.ndarray) -> list[LayerGradients]:
        """Backpropagate from an output-layer delta aligned with its active set."""
        grads: list[Optional[LayerGradients]] = [None] * len(self.layers)
        out = results[-1]
        upstream = SparseVector(self.output_dim, out.active.ids, output_delta, _checked=True)
        for i in range(len(self.layers) - 1, -1, -1):
            layer_input = input if i == 0 else results[i - 1].output
            g = self.layers[i].backward(layer_input, results[i].activations,
                                        results[i].active, upstream,
                                        with_input_grad=i > 0)
            grads[i] = g
            if i > 0:
                upstream = restrict(g.input_grad, results[i - 1].active.ids)
        return grads

    def train_step_grads(self, input: SparseVector, labels):
        """Forward + loss + backward for one sample; returns (loss, results, grads)."""
        results = self.forward(input, TRAIN, labels)
        out = results[-1]
        loss, delta = softmax_ce_loss_grad(out.logits, out.active, labels)
        grads = self.backward(input, results, delta)
        return loss, results, grads

    # -- serialization -----------------------------------------------------

    def save(self, fh) -> None:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(self.layers)))
        for layer in self.layers:
            fh.write(struct.pack("<IIdB", layer.dim, layer.prev_dim, layer.sparsity,
                                 ACTIVATIONS.index(layer.activation)))
            fh.write(struct.pack("<B", 1 if layer.plan is not None else 0))
            if layer.plan is not None:
                p = layer.plan
                fh.write(struct.pack("<IIIddI", p.k_bits, p.num_tables, p.bucket_cap,
                                     p.config.c1, p.config.c2, p.config.l_max))
            fh.write(layer.weights.astype("<f8").tobytes())
            fh.write(layer.biases.astype("<f8").tobytes())
            fh.write(struct.pack("<B", 1 if layer.index is not None else 0))
            if layer.index is not None:
                layer.index.save(fh)

    @classmethod
    def load(cls, fh) -> "Model":
        """Read a model stream; ModelFormatError if it is truncated or malformed."""
        try:
            return cls._load(fh)
        except ModelFormatError:
            raise
        except (ValueError, DimensionError) as e:
            # fields that read whole but do not make a model
            raise ModelFormatError(f"corrupt model stream: {e}") from None

    @classmethod
    def _load(cls, fh) -> "Model":
        if fh.read(4) != _MAGIC:
            raise ModelFormatError("not a model stream")
        version, n_layers = struct.unpack("<II", _read(fh, 8))
        if version != _VERSION:
            raise ModelFormatError(f"unsupported model version {version}")
        layers = []
        for i in range(n_layers):
            d, d_prev, s, act_tag = struct.unpack("<IIdB", _read(fh, 17))
            (has_plan,) = struct.unpack("<B", _read(fh, 1))
            if act_tag >= len(ACTIVATIONS) or has_plan > 1:
                raise ModelFormatError(f"corrupt header of layer {i}")
            plan = None
            if has_plan:
                k, l, r, c1, c2, lmax = struct.unpack("<IIIddI", _read(fh, 32))
                plan = AutotunePlan(k, l, r, AutotuneConfig(c1, c2, lmax), d, d_prev, s)
            # refused before anything of that size is read or allocated
            if fh.seekable() and 8 * d * (d_prev + 1) > _bytes_left(fh):
                raise ModelFormatError(f"layer {i}: {d} x {d_prev} weights pass the stream's end")
            weights = np.frombuffer(_read(fh, 8 * d * d_prev), dtype="<f8").reshape(d, d_prev).copy()
            biases = np.frombuffer(_read(fh, 8 * d), dtype="<f8").copy()
            (has_index,) = struct.unpack("<B", _read(fh, 1))
            index = NeuronIndex.load(fh) if has_index else None
            if index is not None and (index.num_neurons, index.hashers[0].input_dim) != (d, d_prev):
                raise ModelFormatError(f"layer {i}: index shape does not match the weights")
            layers.append(SparseLinearLayer(weights, biases, s, ACTIVATIONS[act_tag],
                                            index, plan))
        return cls(layers)

    def save_to(self, path: str) -> None:
        with open(path, "wb") as fh:
            self.save(fh)

    @classmethod
    def load_from(cls, path: str) -> "Model":
        with open(path, "rb") as fh:
            return cls.load(fh)


def _read(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ModelFormatError("truncated model stream")
    return data


def _bytes_left(fh) -> int:
    here = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(here)
    return end - here
