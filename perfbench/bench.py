"""The measured phases of one workload run, and their checks.

The program is imported from the checkout's ``src`` by run.py. Calls go
through module attributes (``training.predict``, ``data.load_xc``...) so the
wrappers a traced run installs are the ones called.
"""

from __future__ import annotations

import json
import math
import os
import resource
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import lshnet.data as data
import lshnet.layers as layers
import lshnet.model as lmodel
import lshnet.training as training

import checks
from spec import INFERENCE_SPARSITY, Workload


# examples whose dense-mode top-1 is checked against numpy
DENSE_CHECKS = 10
# blocks of consecutive timed queries; the latency p50 and p90 are the medians
# of the blocks' own p50 and p90
LATENCY_BLOCKS = 8


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    latency_queries: int = 0
    checks: int = 0

    def phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase())

    @contextmanager
    def stage(self, name: str, span):
        """Time a phase of the run; with a tracer, also its root span."""
        t0 = perf_counter()
        with span(f"bench.{name}"):
            yield self.phase(name)
        self.phase(name).seconds += perf_counter() - t0

    def check(self, fn, *args) -> None:
        """Run one check; a failure is recorded, not raised, so every check runs."""
        self.checks += 1
        try:
            fn(*args)
        except checks.CheckFailed as e:
            self.errors.append(f"{fn.__name__}: {e}")

    @property
    def correct(self) -> bool:
        return not self.errors


def dense_inputs(examples, dim: int) -> np.ndarray:
    """The examples' features as rows of a dense matrix."""
    x = np.zeros((len(examples), dim))
    for row, ex in zip(x, examples):
        row[ex.features.indices] = ex.features.values
    return x


def _subset(ds, n: int):
    n = n or len(ds)
    return data.XcDataset(n, ds.num_features, ds.num_labels, ds.examples[:n])


def _train_config(w: Workload, seed: int):
    return training.TrainConfig(
        batch_size=w.batch_size, epochs=w.epochs, lr=w.lr,
        rebuild_interval=w.rebuild_interval, aln_enabled=True,
        inference_sparsity=INFERENCE_SPARSITY, seed=seed)


def run(w: Workload, seed: int, inputs: str, seconds: float, tracer=None) -> Outcome:
    """One pass over the workload's phases. The warm-up lasts at least
    ``seconds``; every measured phase does a fixed amount of work. With a
    tracer, its wrappers must be installed already; each phase then becomes a
    root span."""
    out = Outcome()
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    cfg = _train_config(w, seed)

    # -- set-up: repeated, median reported ----------------------------------
    times = []
    for _ in range(w.setup_reps):
        model = None  # drop the previous repetition's model before building the next
        with out.stage("setup", span) as phase:
            phase.attempted += 1
            t0 = perf_counter()
            if w.serving:
                eval_ds = data.load_xc(os.path.join(inputs, "queries.txt"))
                model = lmodel.Model.load_from(os.path.join(inputs, "model.bin"))
            else:
                train_ds = data.load_xc(os.path.join(inputs, "train.txt"))
                eval_ds = data.load_xc(os.path.join(inputs, "eval.txt"))
                model = lmodel.Model.create(list(w.dims), list(w.sparsities),
                                            list(w.activations), seed=seed)
            times.append(perf_counter() - t0)
    out.metrics["setup_s"] = float(np.median(times))
    if w.serving:
        with open(os.path.join(inputs, "digest.json")) as fh:
            out.check(checks.check_digest, json.load(fh)["weights"], model)

    if not w.serving:
        _train(model, train_ds, cfg, span, tracer, out)

    # This machine's speed drifts by tens of percent at second scale and
    # more over minutes (README, "Machine drift"). So evaluate() is called
    # once before the latency loop and again after each of its rounds, and
    # its throughput is the median over those calls; the latency p50 and p90
    # are medians over blocks of consecutive queries of each block's own p50
    # and p90. A slow spell of a second or two moves one call or block, not
    # the median. The rounds are fixed per workload, so neither figure depends
    # on how fast the program runs.
    eval_sub = _subset(eval_ds, w.eval_call_examples)
    p_evals, eval_walls = [], []

    def evaluate(stage):
        with out.stage(stage, span) as phase:
            phase.attempted += len(eval_sub)
            t0 = perf_counter()
            p_evals.append(training.evaluate(model, eval_sub, 1, cfg)[0])
            eval_walls.append(perf_counter() - t0)

    with out.stage("warmup", span) as warm:
        t_end = perf_counter() + seconds
        while warm.attempted < w.warmup_queries or perf_counter() < t_end:
            ex = eval_ds.examples[warm.attempted % len(eval_ds)]
            warm.attempted += 1
            training.predict(model, ex.features, cfg)
    # the traced per-layer counts read this first call only (stage "eval")
    evaluate("eval")
    lat, rankings = [], []
    for r in range(w.latency_rounds):
        _latency_round(model, eval_ds, cfg, span, out, lat, rankings if r == 0 else None)
        evaluate("eval_again")
    blocks = np.array_split(1e3 * np.asarray(lat), LATENCY_BLOCKS)
    out.metrics["latency_p50_ms"] = float(np.median([np.percentile(b, 50) for b in blocks]))
    out.metrics["latency_p90_ms"] = float(np.median([np.percentile(b, 90) for b in blocks]))
    out.metrics["eval_samples_per_s"] = float(np.median(len(eval_sub) / np.asarray(eval_walls)))
    out.latency_queries = len(lat)
    # the peak of training and serving, before the checks' own memory and
    # serve_100k's closing fine-tune
    out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with out.stage("check", span):
        _check_serving(w, model, eval_ds, eval_sub, p_evals, rankings, cfg, inputs, out)

    if w.serving:
        tune = _subset(eval_ds, w.finetune_examples)
        _train(model, tune, cfg, span, tracer, out)
    return out


def _train(model, train_ds, cfg, span, tracer, out: Outcome) -> None:
    """Trainer.train over the dataset; samples x epochs over its wall time."""
    batches = math.ceil(len(train_ds) / cfg.batch_size) * cfg.epochs
    hook = None
    if tracer is not None:
        last = [0.0]

        def hook(epoch, batch, seconds):  # batch boundaries, for per-batch spans
            now = perf_counter()
            tracer.add("training.batch", last[0], now)
            last[0] = perf_counter()

    trainer = training.Trainer(model, cfg)
    with out.stage("train", span) as phase:
        phase.attempted += batches
        t0 = perf_counter()
        if tracer is not None:
            last[0] = t0
        report = trainer.train(train_ds, hook)
        wall = perf_counter() - t0
    out.metrics["train_samples_per_s"] = len(train_ds) * cfg.epochs / wall
    losses = [r.loss for r in report.records]
    phase.failed += batches - len(losses)
    out.check(checks.check_losses, losses)


def _latency_round(model, eval_ds, cfg, span, out: Outcome, lat: list, rankings) -> None:
    """One round of the closed loop, one client: each predict over the eval
    set, timed on its own. Rankings are kept when a list is given."""
    with out.stage("latency", span) as phase:
        for ex in eval_ds.examples:
            phase.attempted += 1
            t0 = perf_counter()
            try:
                ranked = training.predict(model, ex.features, cfg)
            except Exception:  # a failed query is counted, the loop goes on
                phase.failed += 1
                out.errors.append(traceback.format_exc(limit=3))
                ranked = None
            lat.append(perf_counter() - t0)
            if rankings is not None:
                rankings.append(ranked)


def _check_serving(w, model, eval_ds, eval_sub, p_evals, rankings, cfg, inputs, out) -> None:
    if any(r is None for r in rankings):
        out.errors.append("a first-round query failed; ranking checks skipped")
        return
    d = model.output_dim
    min_count = math.ceil(INFERENCE_SPARSITY * d)
    for r in rankings:
        out.check(checks.check_ids, r, d, min_count)
    labels = np.asarray([ex.labels[0] for ex in eval_ds.examples])
    top1 = np.asarray([r[0] for r in rankings])
    n_sub = len(eval_sub)
    own = float(np.mean(top1[:n_sub] == labels[:n_sub]))
    out.check(_check_equal, "evaluate() p@1", [own] * len(p_evals), p_evals)
    out.metrics["p_at_1"] = float(np.mean(top1 == labels))

    # numpy dense forward: ranking order and top-1 on a fixed prefix
    n_ref = w.roundtrip_queries
    x = dense_inputs(eval_ds.examples, model.input_dim)
    hidden, logits = checks.hidden_and_logits(model, x[:n_ref])
    for i in range(n_ref):
        z = checks.output_logits_at(model, hidden[i], rankings[i])
        out.check(checks.check_ranking, z)
    for i in range(DENSE_CHECKS):
        dense = training.predict(model, eval_ds.examples[i].features, cfg, layers.DENSE_INFER)
        out.check(checks.check_top1, int(dense[0]), logits[i])

    if w.serving:
        with np.load(os.path.join(inputs, "expected.npz")) as ref:
            exact = ref["exact"]
            before = [ref[f"ranking_{i}"] for i in range(n_ref)]
        out.check(checks.check_same_rankings, before, rankings[:n_ref])
        model_path = os.path.join(inputs, "model.bin")
    else:
        exact = np.concatenate([np.argmax(checks.hidden_and_logits(model, chunk)[1], axis=1)
                                for chunk in np.array_split(x, math.ceil(len(x) / 100))])
        model_path = os.path.join(inputs, "trained.bin")
        model.save_to(model_path)
        loaded = lmodel.Model.load_from(model_path)
        after = [training.predict(loaded, ex.features, cfg) for ex in eval_ds.examples[:n_ref]]
        out.check(checks.check_same_rankings, rankings[:n_ref], after)
        del loaded
    out.metrics["top1_recall"] = float(np.mean(top1 == exact))
    out.metrics["model_mb"] = os.path.getsize(model_path) / 1e6


def _check_equal(what, expected, got) -> None:
    if expected != got:
        raise checks.CheckFailed(f"{what}: expected {expected}, got {got}")
