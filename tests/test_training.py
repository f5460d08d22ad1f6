import io
import math

import numpy as np
import pytest

from lshnet import training
from lshnet.data import synth_clustered
from lshnet.errors import DataError
from lshnet.layers import DENSE_INFER, IDENTITY, RELU, SOFTMAX, SPARSE_INFER
from lshnet.model import Model
from lshnet.training import (
    SparseAdamState,
    TrainConfig,
    Trainer,
    evaluate,
    predict,
    train,
)
from lshnet.vectors import SparseVector, sparsify


def hand_model():
    model = Model.create([2, 3], [1.0], [RELU], seed=0)
    model.layers[0].weights[:] = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    model.layers[0].biases[:] = 0.0
    return model


# -- lazy Adam --------------------------------------------------------------


def test_adam_first_touch_closed_form():
    model = Model.create([4, 6], [1.0], [SOFTMAX], seed=1)
    layer = model.layers[0]
    w0 = layer.weights[2].copy()
    state = SparseAdamState(model, lr=0.01)
    g = np.arange(1.0, 5.0)
    state.t = 1
    state.update_rows(model, 0, np.array([2]), g[None, :], np.array([0.5]))
    st = state.layers[0]
    assert np.allclose(st.m_w[2], 0.1 * g)
    assert np.allclose(st.v_w[2], 0.001 * g**2)
    # bias-corrected first step: m_hat = g, v_hat = g^2
    expected = w0 - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(layer.weights[2], expected)
    assert st.last_step[2] == 1


def test_adam_zero_grad_moves_by_momentum():
    model = Model.create([4, 6], [1.0], [SOFTMAX], seed=2)
    layer = model.layers[0]
    state = SparseAdamState(model, lr=0.01)
    g = np.ones(4)
    state.t = 1
    state.update_rows(model, 0, np.array([1]), g[None, :], np.array([1.0]))
    w_after_1 = layer.weights[1].copy()
    state.t = 2
    state.update_rows(model, 0, np.array([1]), np.zeros((1, 4)), np.array([0.0]))
    st = state.layers[0]
    assert np.allclose(st.m_w[1], 0.9 * 0.1 * g)  # decayed, no new signal
    assert not np.allclose(layer.weights[1], w_after_1)  # momentum still moves it


def test_adam_untouched_rows_not_decayed():
    model = Model.create([4, 6], [1.0], [SOFTMAX], seed=3)
    state = SparseAdamState(model, lr=0.01)
    state.t = 1
    state.update_rows(model, 0, np.array([0]), np.ones((1, 4)), np.array([1.0]))
    m_before = state.layers[0].m_w[0].copy()
    state.t = 5
    state.update_rows(model, 0, np.array([3]), np.ones((1, 4)), np.array([1.0]))
    assert np.array_equal(state.layers[0].m_w[0], m_before)  # pure-lazy: no catch-up
    assert state.layers[0].last_step[0] == 1
    assert state.layers[0].last_step[3] == 5


def reference_adam(w0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam oracle over a fixed gradient sequence."""
    w = w0.copy()
    m = np.zeros_like(w0)
    v = np.zeros_like(w0)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g**2
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def test_lazy_adam_equals_textbook_when_all_rows_touched():
    rng = np.random.default_rng(4)
    model = Model.create([4, 6], [1.0], [SOFTMAX], seed=5)
    layer = model.layers[0]
    w0 = layer.weights.copy()
    state = SparseAdamState(model, lr=0.003)
    grads = [rng.standard_normal((6, 4)) for _ in range(100)]
    rows = np.arange(6)
    for t, g in enumerate(grads, start=1):
        state.t = t
        state.update_rows(model, 0, rows, g, np.zeros(6))
    expected = reference_adam(w0, grads, lr=0.003)
    assert np.max(np.abs(layer.weights - expected)) < 1e-10


def one_shot_update_rows(state, model, layer_idx, rows, grad_w, grad_b):
    """Oracle: the lazy Adam update as one gather and one scatter over all rows."""
    st = state.layers[layer_idx]
    layer = model.layers[layer_idx]
    b1, b2 = state.beta1, state.beta2
    c1 = 1 - b1**state.t
    c2 = 1 - b2**state.t
    for m_all, v_all, params, g in ((st.m_w, st.v_w, layer.weights, grad_w),
                                    (st.m_b, st.v_b, layer.biases, grad_b)):
        m = m_all[rows]
        v = v_all[rows]
        m *= b1
        m += (1 - b1) * g
        g2 = np.square(g)
        g2 *= 1 - b2
        v *= b2
        v += g2
        m_all[rows] = m
        v_all[rows] = v
        m /= c1
        m *= state.lr
        v /= c2
        np.sqrt(v, out=v)
        v += state.eps
        m /= v
        params[rows] -= m
    st.last_step[rows] = state.t


@pytest.mark.parametrize("dim,prev_dim", [(17000, 4), (1000, 64)])
@pytest.mark.parametrize("case", ["several_chunks", "single_row", "all_rows", "empty"])
def test_chunked_adam_equals_one_shot_update(dim, prev_dim, case):
    # (17000, 4): 4,096-row weight chunks and 16,384-row bias chunks, both with a
    # partial last chunk when all rows are touched; (1000, 64): 256-row chunks
    assert training.ADAM_CHUNK_ELEMENTS == 16384
    rng = np.random.default_rng(30)
    models = [Model.create([prev_dim, dim], [1.0], [SOFTMAX], seed=31) for _ in range(2)]
    states = [SparseAdamState(m, lr=0.01) for m in models]
    pick = {
        "several_chunks": lambda: np.sort(rng.choice(dim, size=dim * 7 // 10, replace=False)),
        "single_row": lambda: np.array([dim // 3]),
        "all_rows": lambda: np.arange(dim),
        "empty": lambda: np.array([], dtype=np.int64),
    }
    schedule = [pick["several_chunks"], pick["all_rows"], pick[case], pick[case]]
    for t, rows_of in enumerate(schedule, start=1):
        rows = rows_of()
        gw = rng.standard_normal((rows.size, prev_dim))
        gb = rng.standard_normal(rows.size)
        for state, model, update in ((states[0], models[0], SparseAdamState.update_rows),
                                     (states[1], models[1], one_shot_update_rows)):
            state.t = t
            update(state, model, 0, rows, gw.copy(), gb.copy())
        got, want = states[0].layers[0], states[1].layers[0]
        for name in ("m_w", "v_w", "m_b", "v_b", "last_step"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (t, name)
        assert np.array_equal(models[0].layers[0].weights, models[1].layers[0].weights), t
        assert np.array_equal(models[0].layers[0].biases, models[1].layers[0].biases), t


def test_adam_chunk_size_does_not_change_trained_model(monkeypatch):
    # the output layer's 256-wide rows take 64-row chunks at the default size
    cfg = TrainConfig(batch_size=16, epochs=1, lr=0.01, seed=32,
                      rebuild_interval=2, aln_enabled=True)
    saved = []
    for chunk in (training.ADAM_CHUNK_ELEMENTS, 1, 10**9):
        monkeypatch.setattr(training, "ADAM_CHUNK_ELEMENTS", chunk)
        ds = synth_clustered(400, 1, 64, 0.1, seed=33)
        ds.examples = ds.examples[:64]
        ds.num_points = 64
        model = Model.create([64, 256, 400], [1.0, 0.05], [RELU, SOFTMAX], seed=34)
        train(model, ds, cfg)
        saved.append(model_bytes(model))
    assert saved[1] == saved[0]
    assert saved[2] == saved[0]


# -- training loop ----------------------------------------------------------


def toy_dataset(num_classes=8, seed=0):
    return synth_clustered(num_classes, 4, 16, 0.05, seed=seed)


def test_dense_toy_loss_decreases():
    ds = toy_dataset()
    model = Model.create([16, 8], [1.0], [SOFTMAX], seed=6)
    cfg = TrainConfig(batch_size=len(ds), epochs=50, lr=0.01, seed=0)
    report = train(model, ds, cfg)
    losses = [e.loss for e in report.epochs]
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 0.5 * losses[0]


def test_label_out_of_range_rejected_before_training():
    ds = toy_dataset()
    ds.examples[3].labels[0] = 99
    model = Model.create([16, 8], [1.0], [SOFTMAX], seed=7)
    w_before = model.layers[0].weights.copy()
    with pytest.raises(DataError):
        train(model, ds, TrainConfig(epochs=1))
    assert np.array_equal(model.layers[0].weights, w_before)


def model_bytes(model):
    buf = io.BytesIO()
    model.save(buf)
    return buf.getvalue()


def sparse_toy(seed=8, num_classes=400):
    ds = synth_clustered(num_classes, 3, 32, 0.1, seed=seed)
    model = Model.create([32, num_classes], [0.05], [SOFTMAX], seed=seed)
    return ds, model


def test_deterministic_runs_bit_identical():
    cfg = TrainConfig(batch_size=32, epochs=2, lr=0.01, seed=9,
                      rebuild_interval=5, aln_enabled=True)
    outs = []
    for _ in range(2):
        ds, model = sparse_toy()
        train(model, ds, cfg)
        outs.append(model_bytes(model))
    assert outs[0] == outs[1]


def test_update_locality():
    ds, model = sparse_toy(seed=11)
    batch = ds.examples[:16]
    active_union = set()
    for ex in batch:
        res = model.forward(ex.features, "train", ex.labels)
        active_union.update(res[-1].active.ids.tolist())
    w_before = model.layers[0].weights.copy()
    b_before = model.layers[0].biases.copy()
    ds.examples = batch
    ds.num_points = len(batch)
    cfg = TrainConfig(batch_size=16, epochs=1, lr=0.01, seed=12,
                      rebuild_interval=1000)
    train(model, ds, cfg)
    untouched = np.array([i for i in range(model.output_dim) if i not in active_union])
    assert np.array_equal(model.layers[0].weights[untouched], w_before[untouched])
    assert np.array_equal(model.layers[0].biases[untouched], b_before[untouched])
    touched = sorted(active_union)
    assert not np.array_equal(model.layers[0].weights[touched], w_before[touched])


def test_dense_trainer_matches_reference_trajectory():
    ds = toy_dataset(num_classes=6, seed=13)
    model = Model.create([16, 6], [1.0], [SOFTMAX], seed=14)
    w0 = model.layers[0].weights.copy()
    b0 = model.layers[0].biases.copy()
    steps = 20
    cfg = TrainConfig(batch_size=len(ds), epochs=steps, lr=0.005, seed=15)
    train(model, ds, cfg)

    # independent dense reference: vectorized full-batch softmax-CE + textbook Adam
    w = w0.copy()
    b = b0.copy()
    mw = np.zeros_like(w)
    vw = np.zeros_like(w)
    mb = np.zeros_like(b)
    vb = np.zeros_like(b)
    X = np.stack([np.asarray([0.0] * 16) + _dense(ex.features) for ex in ds.examples])
    Y = np.array([ex.labels[0] for ex in ds.examples])
    lr, b1, b2, eps = 0.005, 0.9, 0.999, 1e-8
    for t in range(1, steps + 1):
        Z = X @ w.T + b
        Z -= Z.max(axis=1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=1, keepdims=True)
        D = P.copy()
        D[np.arange(len(Y)), Y] -= 1.0
        gw = D.T @ X / len(Y)
        gb = D.mean(axis=0)
        mw = b1 * mw + (1 - b1) * gw
        vw = b2 * vw + (1 - b2) * gw**2
        mb = b1 * mb + (1 - b1) * gb
        vb = b2 * vb + (1 - b2) * gb**2
        w -= lr * (mw / (1 - b1**t)) / (np.sqrt(vw / (1 - b2**t)) + eps)
        b -= lr * (mb / (1 - b1**t)) / (np.sqrt(vb / (1 - b2**t)) + eps)
    assert np.max(np.abs(model.layers[0].weights - w)) < 1e-8
    assert np.max(np.abs(model.layers[0].biases - b)) < 1e-8


def _dense(v):
    out = np.zeros(v.dim)
    out[v.indices] = v.values
    return out


def deep_toy(seed=21):
    ds = synth_clustered(40, 2, 64, 0.1, seed=seed)
    model = Model.create([64, 32, 400], [1.0, 0.05], [RELU, SOFTMAX], seed=seed)
    return ds, model


def test_batch_gradient_equals_sum_of_per_sample_blocks():
    ds, model = deep_toy()
    batch = ds.examples[:24]
    # per-sample reference, taken before the batch changes any weight
    ref_w = [np.zeros_like(l.weights) for l in model.layers]
    ref_b = [np.zeros_like(l.biases) for l in model.layers]
    union = [set() for _ in model.layers]
    for ex in batch:
        _, _, grads = model.train_step_grads(ex.features, ex.labels)
        for li, g in enumerate(grads):
            ref_w[li][np.ix_(g.active_ids, g.input_indices)] += np.outer(g.bias_grad, g.input_values)
            ref_b[li][g.active_ids] += g.bias_grad
            union[li].update(g.active_ids.tolist())

    calls = []
    trainer = Trainer(model, TrainConfig(batch_size=len(batch), epochs=1, seed=22))
    update_rows = trainer.state.update_rows

    def spy(model_, li, rows, gw, gb):
        calls.append((li, rows.copy(), gw.copy(), gb.copy()))
        update_rows(model_, li, rows, gw, gb)

    trainer.state.update_rows = spy
    ds.examples = batch
    ds.num_points = len(batch)
    trainer.train(ds)

    assert [c[0] for c in calls] == [0, 1]
    n = len(batch)
    for li, rows, gw, gb in calls:
        assert rows.tolist() == sorted(union[li])
        np.testing.assert_allclose(gw * n, ref_w[li][rows], rtol=1e-12,
                                   atol=1e-12 * np.abs(ref_w[li]).max())
        np.testing.assert_allclose(gb * n, ref_b[li][rows], rtol=1e-12,
                                   atol=1e-12 * np.abs(ref_b[li]).max())


def test_relu_output_drops_zeros_and_backward_masks():
    ds, dense_hidden = deep_toy(seed=23)
    # a sampled hidden layer: the hidden delta is picked at a strict subset of ids
    sparse_hidden = Model.create([64, 200, 400], [0.05, 0.05], [RELU, SOFTMAX], seed=23)
    for model in (dense_hidden, sparse_hidden):
        hidden, out_layer = model.layers
        checked = 0
        for ex in ds.examples[:20]:
            loss, results, grads = model.train_step_grads(ex.features, ex.labels)
            h, o = results
            if hidden.sparsity < 1:
                assert len(h.active) < hidden.dim
            # the layer's own activations stay aligned with its active set
            assert np.array_equal(h.activations.indices, h.active.ids)
            dead = h.activations.values == 0
            if not dead.any():
                continue
            checked += 1
            assert np.all(h.output.values > 0)
            assert np.array_equal(h.output.indices, h.activations.indices[~dead])
            # the output layer read and backpropagated over the positive entries only
            assert np.array_equal(grads[1].input_indices, h.output.indices)
            upstream = grads[1].bias_grad @ out_layer.weights[o.active.ids]
            expected = np.where(h.activations.values > 0, upstream[h.active.ids], 0.0)
            np.testing.assert_array_equal(grads[0].bias_grad, expected)
            assert np.all(grads[0].bias_grad[dead] == 0.0)
        assert checked > 0


def test_aln_flush_respects_cap():
    ds, model = sparse_toy(seed=16)
    cfg = TrainConfig(batch_size=32, epochs=1, lr=0.01, seed=17,
                      aln_enabled=True, rebuild_interval=10**6)
    train(model, ds, cfg)
    layer = model.layers[-1]
    cap = layer.plan.bucket_cap
    for table in layer.index.tables:
        assert all(len(b) <= cap for b in table.buckets)


# -- predict / evaluate -----------------------------------------------------


def lexsort_ranking(model, x):
    """The ranking oracle: activation descending, ties to the ascending id."""
    acts = model.forward(x, DENSE_INFER)[-1].activations
    return acts.indices[np.lexsort((acts.indices, -acts.values))].tolist()


def test_dense_predict_ranking():
    model = hand_model()
    ranked = predict(model, sparsify([2.0, -1.0]), TrainConfig(), DENSE_INFER)
    assert ranked.tolist() == [0, 2, 1]  # activations 2, 0, 1; tie none

    x = sparsify([2.0, -1.0])
    for biases, want in [
        ([0.0] * 6, [0, 1, 2, 3, 4, 5]),                       # zero weights: all equal
        ([0.5, 2.0, 3.0, 2.0, -1.0, 0.0], [2, 1, 3, 0, 5, 4]),  # a tie in mid-ranking
        ([1.0, 4.0, 1.0, 1.0, 1.0, -2.0], [1, 0, 2, 3, 4, 5]),  # a run of equal values
        ([-0.0, 1.0, 0.0, np.nan, 2.0, 0.0], [4, 1, 0, 2, 5, 3]),  # signed zeros tie; NaN last
    ]:
        model = Model.create([2, len(biases)], [1.0], [IDENTITY], seed=0)
        model.layers[0].weights[:] = 0.0
        model.layers[0].biases[:] = biases
        ranked = predict(model, x, TrainConfig(), DENSE_INFER).tolist()
        assert ranked == want == lexsort_ranking(model, x), biases


def test_predict_ranking_equals_lexsort_oracle():
    rng = np.random.default_rng(21)
    model = Model.create([8, 500], [1.0], [IDENTITY], seed=21)
    layer = model.layers[0]
    for trial in range(20):
        x = sparsify(rng.standard_normal(8))
        # distinct values, then a few values drawn from a small set (many ties)
        layer.weights[:] = rng.standard_normal(layer.weights.shape)
        layer.biases[:] = 0.0
        if trial % 2:
            layer.weights[:] = 0.0
            layer.biases[:] = rng.integers(0, 1 + trial, size=layer.dim)
        assert predict(model, x, TrainConfig(), DENSE_INFER).tolist() == lexsort_ranking(model, x)


def test_full_inference_sparsity_matches_dense(monkeypatch):
    ds, model = sparse_toy(seed=18)

    def no_query(*args, **kwargs):
        raise AssertionError("index queried at full inference sparsity")

    monkeypatch.setattr(model.layers[-1].index, "query", no_query)
    cfg = TrainConfig(inference_sparsity=1.0)
    for ex in ds.examples[:10]:
        sparse = predict(model, ex.features, cfg, SPARSE_INFER)
        dense = predict(model, ex.features, cfg, DENSE_INFER)
        assert sparse.tolist() == dense.tolist()


def test_evaluate_trivial_precision():
    model = hand_model()
    from lshnet.data import Example, XcDataset
    x = sparsify([2.0, -1.0])
    ds_hit = XcDataset(1, 2, 3, [Example([0], x)])
    ds_miss = XcDataset(1, 2, 3, [Example([1], x)])
    cfg = TrainConfig()
    p_hit, _ = evaluate(model, ds_hit, 1, cfg, DENSE_INFER)
    p_miss, _ = evaluate(model, ds_miss, 1, cfg, DENSE_INFER)
    assert p_hit == 1.0
    assert p_miss == 0.0


def test_evaluate_latency_distribution():
    ds, model = sparse_toy(seed=22)
    p, lat = evaluate(model, ds, 1, TrainConfig(inference_sparsity=0.05))
    assert 0.0 <= p <= 1.0
    assert 0.0 < lat.p50 <= lat.p90 <= lat.p99 <= lat.max
    assert 0.0 < lat.mean <= lat.max


def test_report_records_complete():
    ds = toy_dataset()
    model = Model.create([16, 8], [1.0], [SOFTMAX], seed=19)
    cfg = TrainConfig(batch_size=8, epochs=3, lr=0.01, seed=20)
    report = train(model, ds, cfg)
    batches_per_epoch = math.ceil(len(ds) / 8)
    assert len(report.records) == 3 * batches_per_epoch
    assert len(report.epochs) == 3
    assert [e.epoch for e in report.epochs] == [1, 2, 3]
    line = report.records[0].line()
    for key in ("epoch=", "batch=", "loss=", "p_at_1=", "seconds="):
        assert key in line
