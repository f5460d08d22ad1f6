import io
import math
import struct

import numpy as np
import pytest

from lshnet.errors import ContractError, DimensionError, ModelFormatError
from lshnet.layers import (
    DENSE_INFER,
    IDENTITY,
    LABEL_FORCED,
    RELU,
    SOFTMAX,
    SPARSE_INFER,
    TRAIN,
    ActiveSet,
    SparseLinearLayer,
    softmax_ce_loss_grad,
)
from lshnet.model import Model, restrict
from lshnet.vectors import SparseVector, densify, sparsify


def hand_layer(activation=RELU):
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.zeros(3)
    return SparseLinearLayer(w, b, 1.0, activation)


def test_forward_hand_example_restricted():
    layer = hand_layer(RELU)
    x = sparsify([2.0, -1.0])
    logits = layer._project(x, np.array([0, 2]))
    assert np.maximum(logits, 0).tolist() == [2.0, 1.0]


def test_project_equals_ix_block_bit_for_bit():
    rng = np.random.default_rng(21)
    d, d_prev = 300, 40
    layer = SparseLinearLayer(rng.standard_normal((d, d_prev)), rng.standard_normal(d), 1.0, IDENTITY)
    all_ids = np.arange(d)
    for trial in range(30):
        x = rng.standard_normal(d_prev)
        if trial % 3:
            x[rng.random(d_prev) < 0.6] = 0.0  # sparse input; else dense
        v = sparsify(x)
        some = np.sort(rng.choice(d, size=int(rng.integers(1, d)), replace=False))
        for ids in (some, all_ids):
            want = layer.weights[np.ix_(ids, v.indices)] @ v.values + layer.biases[ids]
            assert np.array_equal(layer._project(v, ids), want)


def test_forward_dense_hand_example():
    layer = hand_layer(RELU)
    res = layer.forward(sparsify([2.0, -1.0]), DENSE_INFER)
    assert densify(res.activations).tolist() == [2.0, 0.0, 1.0]
    assert sparsify(densify(res.activations)) == SparseVector.from_pairs(3, [(0, 2.0), (2, 1.0)])


def test_softmax_equal_logits():
    layer = hand_layer(SOFTMAX)
    layer.weights[:] = 0.0
    res = layer.forward(sparsify([1.0, 1.0]), DENSE_INFER)
    assert np.allclose(res.activations.values, 1 / 3)
    assert abs(res.activations.values.sum() - 1.0) < 1e-12


def test_empty_input_gives_bias_activations():
    layer = hand_layer(IDENTITY)
    layer.biases[:] = [0.5, -1.0, 2.0]
    res = layer.forward(SparseVector.empty(2), DENSE_INFER)
    assert densify(res.activations).tolist() == [0.5, -1.0, 2.0]


def test_forward_dimension_mismatch():
    with pytest.raises(DimensionError):
        hand_layer().forward(SparseVector.empty(5), DENSE_INFER)


def random_sparse_layer(d, d_prev, s, activation, seed):
    return SparseLinearLayer.create(d, d_prev, s, activation, seed=seed)


def test_sparse_forward_matches_dense_restriction():
    rng = np.random.default_rng(0)
    layer = random_sparse_layer(1000, 64, 0.05, RELU, seed=1)
    for trial in range(10):
        x = sparsify(rng.standard_normal(64))
        sparse = layer.forward(x, SPARSE_INFER)
        dense = layer.forward(x, DENSE_INFER)
        dense_at = densify(dense.activations)[sparse.active.ids]
        np.testing.assert_allclose(sparse.activations.values, dense_at, rtol=1e-6, atol=1e-12)


def test_softmax_normalizes_over_active_set_only():
    layer = random_sparse_layer(500, 32, 0.05, SOFTMAX, seed=2)
    x = sparsify(np.random.default_rng(3).standard_normal(32))
    res = layer.forward(x, SPARSE_INFER)
    assert abs(res.activations.values.sum() - 1.0) < 1e-12


def test_train_mode_forces_labels():
    layer = random_sparse_layer(500, 32, 0.02, SOFTMAX, seed=4)
    rng = np.random.default_rng(5)
    for trial in range(20):
        x = sparsify(rng.standard_normal(32))
        labels = rng.integers(0, 500, size=2).tolist()
        res = layer.forward(x, TRAIN, labels)
        ids = res.active.ids.tolist()
        for lab in labels:
            assert lab in ids


def test_aln_record_contains_missed_labels():
    layer = random_sparse_layer(500, 32, 0.02, SOFTMAX, seed=6)
    rng = np.random.default_rng(7)
    saw_record = False
    for trial in range(30):
        x = sparsify(rng.standard_normal(32))
        label = int(rng.integers(0, 500))
        res = layer.forward(x, TRAIN, [label])
        if res.aln_record is not None:
            missed, codes = res.aln_record
            assert label in missed.tolist()
            assert len(codes) == len(layer.index.tables)
            saw_record = True
    assert saw_record  # at s=0.02 sampling must miss sometimes


def test_train_without_labels_rejected():
    layer = hand_layer(SOFTMAX)
    with pytest.raises(ContractError):
        layer.forward(sparsify([1.0, 1.0]), TRAIN, [])


# -- backward ---------------------------------------------------------------


def test_backward_dead_relu_zero_grads():
    layer = hand_layer(RELU)
    x = sparsify([-1.0, 0.0])  # neuron 0 pre-activation -1
    res = layer.forward(x, DENSE_INFER)
    upstream = SparseVector.from_pairs(3, [(0, 1.0)])
    g = layer.backward(x, res.activations, res.active, upstream)
    assert g.bias_grad[0] == 0.0
    assert np.all(g.weight_grad[0] == 0.0)


def test_backward_single_active_identity():
    w = np.array([[3.0, 4.0]])
    layer = SparseLinearLayer(w, np.zeros(1), 1.0, IDENTITY)
    x = sparsify([2.0, -1.0])
    res = layer.forward(x, DENSE_INFER)
    upstream = SparseVector.from_pairs(1, [(0, 1.0)])
    g = layer.backward(x, res.activations, res.active, upstream)
    assert g.weight_grad.tolist() == [[2.0, -1.0]]
    assert g.bias_grad.tolist() == [1.0]
    assert densify(g.input_grad).tolist() == [3.0, 4.0]
    g0 = layer.backward(x, res.activations, res.active, upstream, with_input_grad=False)
    assert g0.input_grad is None
    assert g0.bias_grad.tolist() == [1.0]


def test_backward_rejects_upstream_outside_active():
    layer = random_sparse_layer(200, 16, 0.05, IDENTITY, seed=8)
    x = sparsify(np.random.default_rng(9).standard_normal(16))
    res = layer.forward(x, SPARSE_INFER)
    outside = int(next(i for i in range(200) if i not in res.active.ids.tolist()))
    upstream = SparseVector.from_pairs(200, [(outside, 1.0)])
    with pytest.raises(ContractError):
        layer.backward(x, res.activations, res.active, upstream)


def test_backward_locality():
    layer = random_sparse_layer(300, 16, 0.05, RELU, seed=10)
    x = sparsify(np.random.default_rng(11).standard_normal(16))
    res = layer.forward(x, SPARSE_INFER)
    upstream = SparseVector(300, res.active.ids,
                            np.random.default_rng(12).standard_normal(len(res.active)),
                            _checked=True)
    g = layer.backward(x, res.activations, res.active, upstream)
    assert np.array_equal(g.active_ids, res.active.ids)
    assert g.weight_grad.shape == (len(res.active), x.nnz)
    assert g.bias_grad.shape == (len(res.active),)


def fd_loss(layer, x, active_ids, upstream_c, labels):
    """Independent loss evaluation for finite differences on the active subnetwork."""
    logits = layer.weights[active_ids] @ densify(x) + layer.biases[active_ids]
    if layer.activation == SOFTMAX:
        z = logits - logits.max()
        log_probs = z - math.log(np.exp(z).sum())
        pos = [active_ids.tolist().index(l) for l in labels]
        return -float(np.mean([log_probs[p] for p in pos]))
    if layer.activation == RELU:
        acts = np.maximum(logits, 0.0)
    else:
        acts = logits
    return float(np.dot(upstream_c, acts))


@pytest.mark.parametrize("activation", [IDENTITY, RELU, SOFTMAX])
def test_gradients_match_finite_differences(activation):
    rng = np.random.default_rng(13)
    h = 1e-4
    for case in range(8):
        d, d_prev = 40, 12
        layer = SparseLinearLayer(rng.standard_normal((d, d_prev)),
                                  rng.standard_normal(d), 1.0, activation)
        x = sparsify(rng.standard_normal(d_prev))
        res = layer.forward(x, DENSE_INFER)
        active = res.active
        labels = [int(rng.integers(0, d))]
        if activation == SOFTMAX:
            loss, delta = softmax_ce_loss_grad(res.logits, active, labels)
            upstream_c = None
            upstream = SparseVector(d, active.ids, delta, _checked=True)
        else:
            upstream_c = rng.standard_normal(d)
            upstream = SparseVector(d, active.ids, upstream_c[active.ids], _checked=True)
        g = layer.backward(x, res.activations, active, upstream)

        def loss_now():
            c = upstream_c[active.ids] if upstream_c is not None else None
            return fd_loss(layer, x, active.ids, c, labels)

        # spot-check a handful of parameters per case
        for _ in range(6):
            i = int(rng.integers(0, d))
            j = int(rng.integers(0, d_prev))
            orig = layer.weights[i, j]
            layer.weights[i, j] = orig + h
            up = loss_now()
            layer.weights[i, j] = orig - h
            down = loss_now()
            layer.weights[i, j] = orig
            fd = (up - down) / (2 * h)
            pos = active.ids.tolist().index(i)
            col = x.indices.tolist().index(j) if j in x.indices.tolist() else None
            analytic = g.weight_grad[pos, col] if col is not None else 0.0
            if activation == RELU and abs(layer.weights[i] @ densify(x) + layer.biases[i]) < 1e-3:
                continue  # kink: FD unreliable at the ReLU boundary
            assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-6)
        for _ in range(4):
            i = int(rng.integers(0, d))
            orig = layer.biases[i]
            layer.biases[i] = orig + h
            up = loss_now()
            layer.biases[i] = orig - h
            down = loss_now()
            layer.biases[i] = orig
            fd = (up - down) / (2 * h)
            pos = active.ids.tolist().index(i)
            if activation == RELU and abs(layer.weights[i] @ densify(x) + layer.biases[i]) < 1e-3:
                continue
            assert g.bias_grad[pos] == pytest.approx(fd, rel=1e-4, abs=1e-6)


# -- softmax cross entropy --------------------------------------------------


def test_loss_grad_symmetric_pair():
    active = ActiveSet(np.array([3, 9]), np.zeros(2, dtype=np.uint8))
    loss, delta = softmax_ce_loss_grad(np.array([1.0, 1.0]), active, [3])
    assert loss == pytest.approx(math.log(2))
    assert delta == pytest.approx(np.array([-0.5, 0.5]))


def test_loss_grad_degenerate_single():
    active = ActiveSet(np.array([4]), np.zeros(1, dtype=np.uint8))
    loss, delta = softmax_ce_loss_grad(np.array([2.7]), active, [4])
    assert loss == pytest.approx(0.0)
    assert delta == pytest.approx(np.array([0.0]))


def test_loss_grad_random_case():
    rng = np.random.default_rng(14)
    active = ActiveSet(np.arange(5), np.zeros(5, dtype=np.uint8))
    logits = rng.standard_normal(5)
    labels = [2]
    loss, delta = softmax_ce_loss_grad(logits, active, labels)
    assert abs(delta.sum()) < 1e-12
    # brute force log-sum-exp
    expected = float(np.log(np.exp(logits).sum()) - logits[2])
    assert loss == pytest.approx(expected, rel=1e-12)


def test_loss_grad_label_outside_active():
    active = ActiveSet(np.array([1, 2]), np.zeros(2, dtype=np.uint8))
    with pytest.raises(ContractError):
        softmax_ce_loss_grad(np.array([0.0, 0.0]), active, [5])


# -- model ------------------------------------------------------------------


def test_sparse_path_with_s1_equals_dense_bit_for_bit():
    layer = random_sparse_layer(50, 8, 1.0, RELU, seed=15)
    x = sparsify(np.random.default_rng(16).standard_normal(8))
    a = layer.forward(x, SPARSE_INFER)
    b = layer.forward(x, DENSE_INFER)
    assert np.array_equal(a.activations.values, b.activations.values)


def test_restrict_helper():
    v = SparseVector.from_pairs(10, [(1, 1.0), (4, 2.0), (7, 3.0)])
    r = restrict(v, np.array([0, 4, 7, 9]))
    assert r == SparseVector.from_pairs(10, [(4, 2.0), (7, 3.0)])


def test_model_two_layer_train_step():
    model = Model.create([16, 32, 200], [1.0, 0.05], [RELU, SOFTMAX], seed=17)
    x = sparsify(np.random.default_rng(18).standard_normal(16))
    loss, results, grads = model.train_step_grads(x, [5])
    assert loss > 0
    assert len(grads) == 2
    assert 5 in results[-1].active.ids.tolist()


def test_model_serialization_round_trip():
    model = Model.create([16, 100], [0.05], [SOFTMAX], seed=19)
    buf = io.BytesIO()
    model.save(buf)
    assert buf.getvalue()[:4] == b"LSHM"
    buf.seek(0)
    again = Model.load(buf)
    l0, l1 = model.layers[0], again.layers[0]
    assert np.array_equal(l0.weights, l1.weights)
    assert np.array_equal(l0.biases, l1.biases)
    assert l0.sparsity == l1.sparsity
    assert l0.activation == l1.activation
    assert l0.plan == l1.plan
    for ta, tb in zip(l0.index.tables, l1.index.tables):
        assert ta.buckets == tb.buckets
    x = sparsify(np.random.default_rng(20).standard_normal(16))
    a = model.forward(x, SPARSE_INFER)
    b = again.forward(x, SPARSE_INFER)
    assert np.array_equal(a[-1].activations.values, b[-1].activations.values)


@pytest.mark.parametrize("field", ["magic", "version", "activation tag", "plan flag",
                                   "sparsity", "index shape"])
def test_model_load_rejects_corrupt_field(field):
    model = Model.create([16, 100], [0.05], [SOFTMAX], seed=19)
    buf = io.BytesIO()
    model.save(buf)
    data = bytearray(buf.getvalue())
    # magic, then version and layer count, then the layer's d, d_prev, s, tag and plan flag
    if field == "index shape":
        own, other = io.BytesIO(), io.BytesIO()
        model.layers[0].index.save(own)
        Model.create([16, 120], [0.05], [SOFTMAX], seed=19).layers[0].index.save(other)
        data = data[:len(data) - len(own.getvalue())] + other.getvalue()
    else:
        fmt, at, value = {"magic": ("<I", 0, 0), "version": ("<I", 4, 2),
                          "activation tag": ("<B", 28, 3), "plan flag": ("<B", 29, 2),
                          "sparsity": ("<d", 20, 1.5)}[field]
        struct.pack_into(fmt, data, at, value)
    with pytest.raises(ModelFormatError):
        Model.load(io.BytesIO(bytes(data)))
