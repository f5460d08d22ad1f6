"""The benchmark's own tests: smoke-size runs and the checks' rejections.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import bench  # noqa: E402
import checks  # noqa: E402
import prepare  # noqa: E402
import spans  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from lshnet import Model  # noqa: E402

SMOKE = {
    "train_10k": dict(dims=(16, 500), label_classes=50, train_per_class=13, eval_examples=100),
    "train_deep": dict(dims=(16, 32, 500), label_classes=50, train_per_class=13,
                       eval_examples=100, lr=0.01),
    "serve_100k": dict(dims=(16, 2000), eval_examples=100, eval_call_examples=40,
                       finetune_examples=40, batch_size=8),
}
RUN_SIZE = dict(setup_reps=1, warmup_queries=5, latency_rounds=2, roundtrip_queries=10)


def smoke(name, tmp_path, tracer=None, seed=3):
    w = dataclasses.replace(WORKLOADS[name], **SMOKE[name], **RUN_SIZE)
    (prepare.prepare_serving if w.serving else prepare.prepare_training)(w, seed, str(tmp_path))
    return bench.run(w, seed, str(tmp_path), 0.01, tracer)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name, tmp_path):
    out = smoke(name, tmp_path)
    assert out.errors == []
    assert out.correct and out.checks > 0
    assert set(out.metrics) == set(END_TO_END)
    assert all(np.isfinite(v) and v > 0 for v in out.metrics.values())
    assert all(p.failed == 0 for p in out.phases.values())
    assert out.latency_queries == 200


def test_traced_smoke_run_reports_every_layer_metric(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = smoke("train_deep", tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert out.correct
    values, absent = spans.layer_metrics(tracer)
    assert absent == [] and list(values) == list(PER_LAYER)
    assert values["training.batches"] == 11
    assert values["lsh.rebuild_calls"] == 0 and values["lsh.query_calls"] > 0
    assert 0 < values["lsh.label_recall"] <= 1
    assert values["lsh.hash_calls"] % values["lsh.query_calls"] == 0
    # the wrappers are gone again
    import lshnet.training as training
    assert not hasattr(training.predict, "__wrapped__")


def test_missing_function_is_reported_absent(tmp_path):
    tracer = spans.Tracer()
    gone = ("lshnet.lsh", "NeuronIndex.rebuild_rows", "lsh.rebuild", False, None)
    tracer.install([t for t in spans.TARGETS if t[2] != "lsh.rebuild"] + [gone])
    try:
        out = smoke("train_10k", tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert out.correct
    values, absent = spans.layer_metrics(tracer)
    assert absent == ["lsh.rebuild_calls", "lsh.rebuild_s"]
    assert set(values) == set(PER_LAYER) - set(absent)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_10k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- each check rejects a corrupted output ----------------------------------

def _logits_and_ranking():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(50)
    ranking = np.argsort(-z)
    return z, ranking


def test_check_ranking_rejects_shuffled_ranking():
    z, ranking = _logits_and_ranking()
    checks.check_ranking(z[ranking])
    shuffled = np.random.default_rng(1).permutation(ranking)
    with pytest.raises(checks.CheckFailed):
        checks.check_ranking(z[shuffled])


def test_check_top1_rejects_wrong_top1():
    z, ranking = _logits_and_ranking()
    checks.check_top1(int(ranking[0]), z)
    with pytest.raises(checks.CheckFailed):
        checks.check_top1(int(ranking[1]), z)


def test_check_losses_rejects_non_finite_loss():
    losses = list(np.linspace(5.0, 1.0, 20))
    checks.check_losses(losses)
    for bad in (np.nan, np.inf):
        with pytest.raises(checks.CheckFailed):
            checks.check_losses(losses[:7] + [bad] + losses[8:])
    with pytest.raises(checks.CheckFailed):
        checks.check_losses(losses[::-1])


def test_check_digest_rejects_changed_weights():
    model = Model.create([8, 200], [0.05], ["softmax"], seed=1)
    digest = checks.weights_digest(model)
    checks.check_digest(digest, model)
    model.layers[0].weights[3, 4] = np.nextafter(model.layers[0].weights[3, 4], 1.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_digest(digest, model)


def test_check_ids_rejects_bad_sets():
    checks.check_ids(np.arange(10), 100, 10)
    for bad in (np.arange(9), np.r_[np.arange(9), 3], np.r_[np.arange(9), 100]):
        with pytest.raises(checks.CheckFailed):
            checks.check_ids(bad, 100, 10)


def test_check_same_rankings_rejects_changed_ranking():
    a = [np.arange(5), np.arange(5, 10)]
    checks.check_same_rankings(a, [r.copy() for r in a])
    with pytest.raises(checks.CheckFailed):
        checks.check_same_rankings(a, [a[0], a[1][::-1]])
