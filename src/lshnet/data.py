"""Extreme-classification dataset parsing and a synthetic benchmark task.

The text format is a count header "num_points num_features num_labels"
followed by one line per example: comma-separated label ids, then
space-separated index:value features. Ids are 0-based by default; pass
index_base=1 for files using 1-based ids.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .vectors import SparseVector


class MalformedHeader(DataError):
    pass


class LabelOutOfRange(DataError):
    pass


class FeatureOutOfRange(DataError):
    pass


class EmptyLabelSet(DataError):
    pass


class CountMismatch(DataError):
    pass


class MalformedLine(DataError):
    """A label or feature token that does not parse, or a non-finite value."""


@dataclass
class Example:
    labels: list[int]           # nonempty, sorted, distinct
    features: SparseVector


@dataclass
class XcDataset:
    num_points: int
    num_features: int
    num_labels: int
    examples: list[Example]

    def __len__(self):
        return len(self.examples)

    def check_width(self, input_dim: int) -> None:
        """DataError unless the features fit a model of this input width."""
        if self.num_features != input_dim:
            raise DataError(f"dataset feature dim {self.num_features} != model input "
                            f"dim {input_dim}")


def parse_xc(stream, index_base: int = 0) -> XcDataset:
    """Single-pass parse; accepts LF and CRLF line endings."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    header = stream.readline()
    parts = header.split()
    if len(parts) != 3:
        raise MalformedHeader(f"expected 'num_points num_features num_labels', got {header!r}")
    try:
        num_points, num_features, num_labels = (int(p) for p in parts)
    except ValueError:
        raise MalformedHeader(f"non-integer header field in {header!r}") from None

    examples = []
    lineno = 1
    for raw in stream:
        lineno += 1
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        label_field = fields[0]
        if ":" in label_field:
            raise EmptyLabelSet(f"line {lineno}: no label field")
        try:
            labels = sorted({int(t) - index_base for t in label_field.split(",") if t != ""})
        except ValueError:
            raise MalformedLine(f"line {lineno}: bad label field {label_field!r}") from None
        if not labels:
            raise EmptyLabelSet(f"line {lineno}: empty label set")
        if labels[0] < 0 or labels[-1] >= num_labels:
            raise LabelOutOfRange(f"line {lineno}: label outside [0, {num_labels})")
        idx = []
        val = []
        for tok in fields[1:]:
            i_str, _, v_str = tok.partition(":")
            try:
                i = int(i_str) - index_base
                v = float(v_str)
            except ValueError:
                raise MalformedLine(f"line {lineno}: bad feature {tok!r}, "
                                    "expected index:value") from None
            if i < 0 or i >= num_features:
                raise FeatureOutOfRange(f"line {lineno}: feature index outside [0, {num_features})")
            idx.append(i)
            val.append(v)
        idx = np.asarray(idx, dtype=np.int64)
        val = np.asarray(val, dtype=np.float64)
        if not np.isfinite(val).all():
            raise MalformedLine(f"line {lineno}: non-finite feature value")
        if idx.size and np.any(np.diff(idx) <= 0):
            order = np.argsort(idx, kind="stable")
            idx, val = idx[order], val[order]
            if np.any(np.diff(idx) == 0):
                raise FeatureOutOfRange(f"line {lineno}: duplicate feature index")
        features = SparseVector(num_features, idx, val, _checked=True)
        examples.append(Example(labels, features))
        if len(examples) > num_points:
            raise CountMismatch(f"more than {num_points} example lines")
    if len(examples) != num_points:
        raise CountMismatch(f"header says {num_points} examples, found {len(examples)}")
    return XcDataset(num_points, num_features, num_labels, examples)


def serialize_xc(ds: XcDataset, stream) -> None:
    """Inverse of parse_xc with 0-based ids; round-trips bit-exactly."""
    stream.write(f"{ds.num_points} {ds.num_features} {ds.num_labels}\n")
    for ex in ds.examples:
        labels = ",".join(str(l) for l in ex.labels)
        feats = " ".join(
            f"{i}:{repr(v)}" for i, v in zip(ex.features.indices.tolist(),
                                            ex.features.values.tolist())
        )
        stream.write(labels + (" " + feats if feats else "") + "\n")


def load_xc(path: str, index_base: int = 0) -> XcDataset:
    with open(path, "r") as fh:
        return parse_xc(fh, index_base=index_base)


def synth_clustered(num_classes: int, samples_per_class: int, feature_dim: int,
                    noise: float, seed: int, top_k: int = 32) -> XcDataset:
    """Clustered single-label task: class c is a random unit direction plus
    Gaussian noise, sparsified to the top_k largest-magnitude coordinates."""
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, feature_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    examples = []
    k = min(top_k, feature_dim)
    for c in range(num_classes):
        for _ in range(samples_per_class):
            x = centers[c] + noise * rng.standard_normal(feature_dim)
            top = np.sort(np.argpartition(np.abs(x), feature_dim - k)[feature_dim - k:])
            features = SparseVector(feature_dim, top, x[top], _checked=True)
            examples.append(Example([c], features))
    return XcDataset(len(examples), feature_dim, num_classes, examples)
