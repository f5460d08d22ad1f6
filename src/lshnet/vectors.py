"""Sparse and dense vector value types.

SparseVector keeps explicit (index, value) entries with strictly increasing
indices. Nothing here drops exact zeros except sparsify(). A layer's
activations keep one entry per active neuron, zeros included, but the vector
a ReLU layer passes on to the next layer holds only its positive entries
(ForwardResult.output).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

# Dense vectors are plain float64 numpy arrays; the alias just names the role.
DenseVector = np.ndarray


class SparseVector:
    """Immutable sparse vector over a space of known ambient dimension."""

    __slots__ = ("dim", "indices", "values")

    def __init__(self, dim: int, indices, values, *, _checked: bool = False):
        if dim <= 0:
            raise DimensionError(f"dim must be positive, got {dim}")
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not _checked:
            if indices.shape != values.shape or indices.ndim != 1:
                raise DimensionError("indices and values must be 1-d and aligned")
            if indices.size:
                if np.any(np.diff(indices) <= 0):
                    raise DimensionError("indices must be strictly increasing")
                if indices[0] < 0 or indices[-1] >= dim:
                    raise DimensionError("index out of range")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)
        indices.setflags(write=False)
        values.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("SparseVector is immutable")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @classmethod
    def empty(cls, dim: int) -> "SparseVector":
        return cls(dim, [], [], _checked=True)

    @classmethod
    def from_pairs(cls, dim: int, pairs) -> "SparseVector":
        pairs = list(pairs)
        idx = [p[0] for p in pairs]
        val = [p[1] for p in pairs]
        return cls(dim, idx, val)

    def to_pairs(self):
        return list(zip(self.indices.tolist(), self.values.tolist()))

    def __eq__(self, other):
        return (
            isinstance(other, SparseVector)
            and self.dim == other.dim
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return f"SparseVector(dim={self.dim}, entries={self.to_pairs()})"


def densify(v: SparseVector) -> np.ndarray:
    """Expand to a dense float64 array of length v.dim."""
    out = np.zeros(v.dim, dtype=np.float64)
    out[v.indices] = v.values
    return out


def sparsify(row) -> SparseVector:
    """Keep exactly the nonzero entries of a dense array, indices ascending."""
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1:
        raise DimensionError("sparsify expects a 1-d array")
    idx = np.nonzero(row)[0]
    return SparseVector(row.size, idx, row[idx], _checked=True)


def sparse_dense_dot(v: SparseVector, row) -> float:
    """Dot product of a sparse vector with a dense row, touching only nonzeros."""
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1 or row.size != v.dim:
        raise DimensionError(f"dimension mismatch: sparse dim {v.dim}, dense len {row.size}")
    if v.nnz == 0:
        return 0.0
    return float(np.dot(v.values, row[v.indices]))
