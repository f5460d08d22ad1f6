import io

import numpy as np
import pytest

from lshnet.data import (
    CountMismatch,
    EmptyLabelSet,
    FeatureOutOfRange,
    LabelOutOfRange,
    MalformedHeader,
    MalformedLine,
    parse_xc,
    serialize_xc,
    synth_clustered,
)
from lshnet.vectors import SparseVector


def test_parse_basic():
    ds = parse_xc("2 3 4\n0,2 1:0.5\n3 0:1.0 2:2.0\n")
    assert (ds.num_points, ds.num_features, ds.num_labels) == (2, 3, 4)
    assert ds.examples[0].labels == [0, 2]
    assert ds.examples[0].features == SparseVector.from_pairs(3, [(1, 0.5)])
    assert ds.examples[1].labels == [3]
    assert ds.examples[1].features == SparseVector.from_pairs(3, [(0, 1.0), (2, 2.0)])


def test_parse_crlf():
    a = parse_xc("1 3 4\r\n0 1:0.5\r\n")
    b = parse_xc("1 3 4\n0 1:0.5\n")
    assert a.examples[0].features == b.examples[0].features


def test_count_mismatch():
    with pytest.raises(CountMismatch):
        parse_xc("1 3 4\n0 1:0.5\n1 2:1.0\n")
    with pytest.raises(CountMismatch):
        parse_xc("2 3 4\n0 1:0.5\n")


def test_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        parse_xc("1 3 4\n5 0:1.0\n")


def test_feature_out_of_range():
    with pytest.raises(FeatureOutOfRange):
        parse_xc("1 3 4\n0 7:1.0\n")


def test_empty_label_set():
    with pytest.raises(EmptyLabelSet):
        parse_xc("1 3 4\n0:1.0 1:2.0\n")


def test_malformed_header():
    with pytest.raises(MalformedHeader):
        parse_xc("2 3\n")
    with pytest.raises(MalformedHeader):
        parse_xc("a b c\n")


@pytest.mark.parametrize("line", ["0,x 1:1.0", "0 a:1.0", "0 3", "0 1:zz", "0 1:nan", "0 1:inf"])
def test_malformed_line_names_it(line):
    with pytest.raises(MalformedLine, match="^line 3: "):
        parse_xc(f"2 3 4\n1 0:1.0\n{line}\n")


def test_unsorted_features_sorted_on_read():
    ds = parse_xc("1 5 2\n1 4:1.0 0:2.0 2:3.0\n")
    assert ds.examples[0].features.indices.tolist() == [0, 2, 4]
    assert ds.examples[0].features.values.tolist() == [2.0, 3.0, 1.0]


def test_index_base_one():
    ds = parse_xc("1 3 4\n1,3 1:0.5 3:1.5\n", index_base=1)
    assert ds.examples[0].labels == [0, 2]
    assert ds.examples[0].features.indices.tolist() == [0, 2]


def test_round_trip():
    ds = parse_xc("3 5 6\n0,2 1:0.5\n3 0:1.25 2:-2.0\n5\n")
    buf = io.StringIO()
    serialize_xc(ds, buf)
    again = parse_xc(buf.getvalue())
    assert again.num_points == ds.num_points
    for a, b in zip(ds.examples, again.examples):
        assert a.labels == b.labels
        assert a.features == b.features


def test_synth_deterministic():
    a = synth_clustered(10, 3, 64, 0.1, seed=7)
    b = synth_clustered(10, 3, 64, 0.1, seed=7)
    for ea, eb in zip(a.examples, b.examples):
        assert ea.labels == eb.labels
        assert ea.features == eb.features
    c = synth_clustered(10, 3, 64, 0.1, seed=8)
    assert any(ea.features != ec.features for ea, ec in zip(a.examples, c.examples))


def test_synth_zero_noise_identical_within_class():
    ds = synth_clustered(5, 4, 64, 0.0, seed=1)
    by_class = {}
    for ex in ds.examples:
        by_class.setdefault(ex.labels[0], []).append(ex.features)
    for feats in by_class.values():
        assert all(f == feats[0] for f in feats)


def test_synth_top_k_sparsification():
    ds = synth_clustered(3, 2, 128, 0.5, seed=2, top_k=32)
    for ex in ds.examples:
        assert ex.features.nnz == 32
        assert np.all(np.diff(ex.features.indices) > 0)


def test_synth_round_trips_through_text_format():
    ds = synth_clustered(4, 2, 32, 0.1, seed=3)
    buf = io.StringIO()
    serialize_xc(ds, buf)
    again = parse_xc(buf.getvalue())
    for a, b in zip(ds.examples, again.examples):
        assert a.features == b.features
