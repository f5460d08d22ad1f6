"""End-to-end acceptance suite. Each test prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive system-level
checks (wide-layer training and latency) dominate the runtime.
"""

import math
import os
import time

import numpy as np
import pytest

from lshnet.autotune import AutotuneConfig, AutotunePlan, autotune
from lshnet.data import XcDataset, synth_clustered
from lshnet.errors import InfeasibleSparsity
from lshnet.layers import DENSE_INFER, SOFTMAX, SPARSE_INFER, SparseLinearLayer
from lshnet.lsh import NeuronIndex, SrpHasher
from lshnet.model import Model
from lshnet.training import TrainConfig, Trainer, evaluate, predict
from lshnet.vectors import densify, sparsify


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def split_dataset(ds, every):
    train_ex = [ex for i, ex in enumerate(ds.examples) if i % every != 0]
    eval_ex = [ex for i, ex in enumerate(ds.examples) if i % every == 0]
    return (XcDataset(len(train_ex), ds.num_features, ds.num_labels, train_ex),
            XcDataset(len(eval_ex), ds.num_features, ds.num_labels, eval_ex))


def test_01_dense_sparse_restriction_equivalence():
    rng = np.random.default_rng(100)
    t0 = time.monotonic()
    worst = 0.0
    for case in range(200):
        d = int(rng.integers(50, 2001))
        layer = SparseLinearLayer.create(
            d, 32, 0.05, ["identity", "relu", "softmax"][case % 3], seed=case)
        x = sparsify(rng.standard_normal(32))
        sparse = layer.forward(x, SPARSE_INFER)
        dense = layer.forward(x, DENSE_INFER)
        pos = np.searchsorted(dense.active.ids, sparse.active.ids)
        if layer.activation == "softmax":
            # softmax renormalizes over the active set; compare pre-activation
            sparse_vals, dense_at = sparse.logits, dense.logits[pos]
        else:
            sparse_vals = sparse.activations.values
            dense_at = densify(dense.activations)[sparse.active.ids]
        denom = np.maximum(np.abs(dense_at), 1e-12)
        worst = max(worst, float(np.max(np.abs(sparse_vals - dense_at) / denom)))
    elapsed = time.monotonic() - t0
    report("1 restriction-equivalence", worst < 1e-6 and elapsed < 60,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_02_gradient_finite_differences():
    from lshnet.layers import softmax_ce_loss_grad
    h = 1e-4
    worst = 0.0
    for activation in ("identity", "relu", "softmax"):
        rng = np.random.default_rng(200)
        for case in range(50):
            d, d_prev = 20, 8
            layer = SparseLinearLayer(rng.standard_normal((d, d_prev)),
                                      rng.standard_normal(d), 1.0, activation)
            x = sparsify(rng.standard_normal(d_prev))
            res = layer.forward(x, DENSE_INFER)
            active = res.active
            labels = [int(rng.integers(0, d))]
            if activation == "softmax":
                _, delta = softmax_ce_loss_grad(res.logits, active, labels)
                c = None
            else:
                c = rng.standard_normal(d)
                delta = c[active.ids]
            g = layer.backward(x, res, delta)

            def loss():
                logits = layer.weights @ densify(x) + layer.biases
                if activation == "softmax":
                    z = logits - logits.max()
                    lp = z - math.log(np.exp(z).sum())
                    return -float(np.mean(lp[labels]))
                acts = np.maximum(logits, 0) if activation == "relu" else logits
                return float(np.dot(c, acts))

            xd = densify(x)
            pre = layer.weights @ xd + layer.biases
            for i in range(d):
                if activation == "relu" and abs(pre[i]) < 1e-3:
                    continue  # FD unreliable at the kink
                for jpos, j in enumerate(x.indices.tolist()):
                    orig = layer.weights[i, j]
                    layer.weights[i, j] = orig + h
                    up = loss()
                    layer.weights[i, j] = orig - h
                    down = loss()
                    layer.weights[i, j] = orig
                    fd = (up - down) / (2 * h)
                    analytic = g.weight_grad[i, jpos]
                    err = abs(analytic - fd) / max(abs(fd), 1e-4)
                    worst = max(worst, err)
                orig = layer.biases[i]
                layer.biases[i] = orig + h
                up = loss()
                layer.biases[i] = orig - h
                down = loss()
                layer.biases[i] = orig
                fd = (up - down) / (2 * h)
                err = abs(g.bias_grad[i] - fd) / max(abs(fd), 1e-4)
                worst = max(worst, err)
    report("2 gradient-correctness", worst < 1e-4, f"max rel err {worst:.2e}")


def test_03_autotune_oracle():
    def brute_force(d, s, cfg=AutotuneConfig()):
        best = None
        for k in range(1, 33):
            l = max(1, math.floor(cfg.c1 * s * 2**k + 0.5))
            if l > cfg.l_max or k * l + s * d > cfg.c2 * d:
                continue
            if best is None or l >= best[1]:
                best = (k, l)
        return best

    ok = True
    detail = []
    for d in (10**3, 10**4, 10**5, 10**6):
        for s in (0.005, 0.01, 0.02, 0.05):
            expected = brute_force(d, s)
            try:
                plan = autotune(d, 128, s)
                got = (plan.k_bits, plan.num_tables)
            except InfeasibleSparsity:
                got = None
            if got != expected:
                ok = False
                detail.append(f"(d={d},s={s}): {got} != {expected}")
    plan = autotune(670091, 128, 0.05)
    specific = (plan.k_bits, plan.num_tables, plan.bucket_cap) == (12, 205, 328)
    report("3 autotune-oracle", ok and specific,
           "; ".join(detail) or f"grid exact, K/L/R={plan.k_bits}/{plan.num_tables}/{plan.bucket_cap}")


def test_04_collision_law():
    n = 10000
    proj = np.random.default_rng(400).standard_normal((n, 2))
    ok = True
    details = []
    for theta in (0.0, math.pi / 4, math.pi / 2):
        u = np.array([1.0, 0.0])
        v = np.array([math.cos(theta), math.sin(theta)])
        agree = float(np.mean((proj @ u > 0) == (proj @ v > 0)))
        target = 1 - theta / math.pi
        details.append(f"theta={theta:.2f}: {agree:.4f} vs {target:.4f}")
        ok = ok and abs(agree - target) <= 0.02
    report("4 collision-law", ok, "; ".join(details))


def test_05_bucket_occupancy():
    d, k = 10**5, 12
    w = np.random.default_rng(500).standard_normal((d, 64))
    plan = AutotunePlan(k, 1, 10**9, AutotuneConfig(), d, 64, 0.05)
    ix = NeuronIndex.build(w, plan, seed=501)
    sizes = [len(b) for b in ix.tables[0].buckets if b]
    mean = sum(sizes) / len(sizes)
    expected = d / 2**k
    ok = abs(mean - expected) <= 0.35 * expected
    report("5 bucket-occupancy", ok, f"mean {mean:.2f} vs expected {expected:.2f}")


def _sparse_task(num_classes=400, seed=600):
    ds = synth_clustered(num_classes, 3, 32, 0.1, seed=seed)
    model = Model.create([32, num_classes], [0.05], [SOFTMAX], seed=seed)
    return ds, model


def test_06_determinism():
    t0 = time.monotonic()
    blobs = []
    for _ in range(2):
        ds, model = _sparse_task()
        cfg = TrainConfig(batch_size=32, epochs=2, lr=0.01, seed=601,
                          aln_enabled=True, rebuild_interval=10)
        Trainer(model, cfg).train(ds)
        import io
        buf = io.BytesIO()
        model.save(buf)
        blobs.append(buf.getvalue())
    elapsed = time.monotonic() - t0
    report("6 determinism", blobs[0] == blobs[1] and elapsed < 300,
           f"{len(blobs[0])} bytes, {elapsed:.1f}s")


def test_07_sparse_vs_dense_accuracy_and_speed():
    ds = synth_clustered(10**4, 2, 64, 0.1, seed=700)
    tr, ev = split_dataset(ds, 2)
    stats = {}
    for name, s in (("sparse", 0.05), ("dense", 1.0)):
        model = Model.create([64, 10**4], [s], [SOFTMAX], seed=701)
        cfg = TrainConfig(batch_size=64, epochs=2, lr=0.01, seed=701, rebuild_interval=50)
        t0 = time.monotonic()
        Trainer(model, cfg).train(tr)
        per_epoch = (time.monotonic() - t0) / cfg.epochs
        p, _ = evaluate(model, ev, 1, cfg, DENSE_INFER)
        stats[name] = (per_epoch, p)
    gap = stats["dense"][1] - stats["sparse"][1]
    ratio = stats["sparse"][0] / stats["dense"][0]
    cores = os.cpu_count() or 1
    ok_acc = gap <= 0.05
    ok_time = ratio <= 0.5
    report("7 sparse-vs-dense", ok_acc and ok_time,
           f"p@1 sparse={stats['sparse'][1]:.4f} dense={stats['dense'][1]:.4f} "
           f"(gap {gap:+.4f}), per-epoch ratio {ratio:.3f} on {cores} cores")


def test_08_aln_direction():
    ds = synth_clustered(1000, 8, 32, 0.1, seed=800)
    tr, ev = split_dataset(ds, 8)
    results = {}
    for aln in (False, True):
        model = Model.create([32, 1000], [0.05], [SOFTMAX], seed=801)
        cfg = TrainConfig(batch_size=64, epochs=5, lr=0.03, seed=801,
                          aln_enabled=aln, inference_sparsity=0.05,
                          rebuild_interval=100)
        Trainer(model, cfg).train(tr)
        results[aln], _ = evaluate(model, ev, 1, cfg, SPARSE_INFER)
    report("8 aln-direction", results[True] >= results[False],
           f"sparse-infer p@1 with ALN {results[True]:.4f} vs without {results[False]:.4f}")


def test_09_sparse_inference_latency():
    d, d_prev = 10**5, 64
    rng = np.random.default_rng(900)
    layer = SparseLinearLayer.create(d, d_prev, 0.05, SOFTMAX, seed=901)
    model = Model([layer])
    inputs = [sparsify(rng.standard_normal(d_prev)) for _ in range(30)]
    cfg = TrainConfig(inference_sparsity=0.05)
    for x in inputs[:3]:  # warm up caches
        predict(model, x, cfg, SPARSE_INFER)
        predict(model, x, cfg, DENSE_INFER)
    t0 = time.monotonic()
    for x in inputs:
        predict(model, x, cfg, SPARSE_INFER)
    sparse_lat = (time.monotonic() - t0) / len(inputs)
    t0 = time.monotonic()
    for x in inputs:
        predict(model, x, cfg, DENSE_INFER)
    dense_lat = (time.monotonic() - t0) / len(inputs)
    # not gated: the same inputs through a plain float64 GEMV over all rows
    dense_xs = [densify(x) for x in inputs]
    t0 = time.monotonic()
    for x in dense_xs:
        layer.weights @ x + layer.biases
    gemv_lat = (time.monotonic() - t0) / len(inputs)
    ratio = sparse_lat / dense_lat
    report("9 sparse-inference-latency", ratio <= 0.25,
           f"sparse {sparse_lat * 1000:.2f}ms vs dense {dense_lat * 1000:.2f}ms "
           f"(ratio {ratio:.3f}); vs W @ x + b GEMV {gemv_lat * 1000:.2f}ms "
           f"(ratio {sparse_lat / gemv_lat:.3f}, not gated)")


def test_10_autotune_quality_vs_grid():
    num_classes = 2000
    ds = synth_clustered(num_classes, 8, 32, 0.1, seed=1000)
    tr, ev = split_dataset(ds, 8)
    s = 0.05

    def run_with_plan(plan):
        rng_layer = SparseLinearLayer.create(num_classes, 32, s, SOFTMAX, seed=1001)
        index = NeuronIndex.build(rng_layer.weights, plan, seed=1002)
        layer = SparseLinearLayer(rng_layer.weights.copy(), rng_layer.biases.copy(),
                                  s, SOFTMAX, index, plan)
        model = Model([layer])
        cfg = TrainConfig(batch_size=64, epochs=3, lr=0.01, seed=1003, rebuild_interval=50)
        Trainer(model, cfg).train(tr)
        p, _ = evaluate(model, ev, 1, cfg, DENSE_INFER)
        return p

    tuned = autotune(num_classes, 32, s)
    p_tuned = run_with_plan(tuned)
    best = p_tuned
    best_combo = ("tuned", tuned.k_bits, tuned.num_tables)
    for k in range(max(1, tuned.k_bits - 2), tuned.k_bits + 3):
        for scale in (0.5, 1.0, 2.0):
            l = max(1, round(tuned.num_tables * scale))
            if (k, l) == (tuned.k_bits, tuned.num_tables):
                continue
            plan = AutotunePlan(k, l, math.ceil(2 * num_classes / 2**k),
                                tuned.config, num_classes, 32, s)
            p = run_with_plan(plan)
            if p > best:
                best = p
                best_combo = ("grid", k, l)
    gap = best - p_tuned
    report("10 autotune-quality", gap <= 0.02,
           f"tuned p@1 {p_tuned:.4f}, grid best {best:.4f} at {best_combo} (gap {gap:.4f})")
