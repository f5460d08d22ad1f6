"""Span tracing by wrappers installed around the program's public functions.

A span is (name, start, end, parent, sample id) plus up to two counts taken
from the call's arguments or result. Spans live in compact arrays in memory
and are written out once, at the end of the run. A target that a refactor has
removed is reported as absent, with the metrics read from it, and the run
goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from spec import PER_LAYER

# lshnet.layers' origin flag of a label the sampler missed; kept here so that
# a refactor of the package cannot stop the benchmark from importing
LABEL_FORCED = 1


def _query_counts(args, kwargs, result):
    ids, padded, _codes = result
    return ids.size, int(np.count_nonzero(padded))


def _forward_counts(args, kwargs, result):
    return len(result.active), int(np.count_nonzero(result.active.flags == LABEL_FORCED))


def _labels_count(args, kwargs, result):
    return len(args[2] if len(args) > 2 else kwargs["labels"]), 0


def _insert_count(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["label_ids"]), 0


def _rows_count(args, kwargs, result):
    return len(args[3] if len(args) > 3 else kwargs["rows"]), 0


# (module, qualified name, span name, starts a request, counts taken)
TARGETS = (
    ("lshnet.data", "load_xc", "data.load_xc", False, None),
    ("lshnet.lsh", "NeuronIndex.build", "lsh.build", False, None),
    ("lshnet.lsh", "NeuronIndex.rebuild", "lsh.rebuild", False, None),
    ("lshnet.lsh", "NeuronIndex.query", "lsh.query", False, _query_counts),
    ("lshnet.lsh", "NeuronIndex.insert_labels", "lsh.insert_labels", False, _insert_count),
    ("lshnet.lsh", "SrpHasher.hash", "lsh.hash", False, None),
    ("lshnet.layers", "SparseLinearLayer.forward", "layers.forward", False, _forward_counts),
    ("lshnet.layers", "SparseLinearLayer.backward", "layers.backward", False, None),
    ("lshnet.model", "Model.train_step_grads", "model.train_step", True, _labels_count),
    ("lshnet.model", "Model.load", "model.load", False, None),
    ("lshnet.training", "SparseAdamState.update_rows", "training.adam", False, _rows_count),
    ("lshnet.training", "Trainer.train", "training.train", False, None),
    ("lshnet.training", "predict", "training.predict", True, None),
    ("lshnet.training", "evaluate", "training.evaluate", False, None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.sample = array("i")
        self.start = array("d")
        self.end = array("d")
        self.a = array("d")
        self.b = array("d")
        self._stack: list[int] = []
        self._samples = 0
        self._patches: list[tuple] = []
        self.absent: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, request: bool = False) -> int:
        i = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        if request:
            sample = self._samples
            self._samples += 1
        else:
            sample = self.sample[parent] if parent >= 0 else -1
        self.name.append(name_id)
        self.parent.append(parent)
        self.sample.append(sample)
        self.end.append(0.0)
        self.a.append(0.0)
        self.b.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield i
        finally:
            self.close(i)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span that has already ended, under the innermost open span."""
        i = self.open(self.name_id(name))
        self.close(i)
        self.start[i] = start
        self.end[i] = end

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, request: bool, counts):
        tracer = self
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(nid, request)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if counts is not None:
                tracer.a[i], tracer.b[i] = counts(args, kwargs, result)
            return result
        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, qualname, name, request, counts in targets:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.absent.append(name)
                continue
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrap(original.__func__, name, request, counts))
            else:
                wrapped = self._wrap(original, name, request, counts)
            self._patch(owner, attr, original, wrapped)
            if not path:
                # module-level functions are also reached through re-exports
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("lshnet") and mod is not owner
                            and mod.__dict__.get(attr) is original):
                        self._patch(mod, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "sample": np.frombuffer(self.sample, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "a": np.frombuffer(self.a, dtype=np.float64).copy(),
            "b": np.frombuffer(self.b, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.asarray(self.names), absent=np.asarray(self.absent, dtype=str),
                 **self.arrays())


# span names each per-layer metric is read from; a metric is reported as
# absent when any of them is
_SOURCES = {
    "data.parse_s": ("data.load_xc",),
    "lsh.build_s": ("lsh.build",),
    "lsh.rebuild_calls": ("lsh.rebuild",),
    "lsh.rebuild_s": ("lsh.rebuild",),
    "lsh.query_calls": ("lsh.query",),
    "lsh.query_ms": ("lsh.query",),
    "lsh.hash_calls": ("lsh.hash",),
    "lsh.hash_ms": ("lsh.hash", "lsh.query"),
    "lsh.ids_per_query": ("lsh.query",),
    "lsh.padded_queries": ("lsh.query",),
    "lsh.label_recall": ("layers.forward", "model.train_step"),
    "lsh.insert_calls": ("lsh.insert_labels",),
    "lsh.insert_ms": ("lsh.insert_labels",),
    "layers.forward_self_ms": ("layers.forward",),
    "layers.backward_ms": ("layers.backward",),
    "layers.active_per_sample": ("layers.forward", "model.train_step"),
    "model.train_step_ms": ("model.train_step",),
    "model.load_s": ("model.load",),
    "training.batches": ("training.train",),
    "training.adam_ms": ("training.adam", "training.train"),
    "training.adam_rows": ("training.adam", "training.train"),
    "training.accumulate_ms": ("training.train",),
}


def _mean(x: np.ndarray) -> float:
    return float(x.mean()) if x.size else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans, and the list of absent metrics.

    Phases are the benchmark's own root spans: bench.setup (one per set-up
    repetition), bench.train, bench.eval, bench.latency and bench.check.
    """
    s = tracer.arrays()
    n = s["name"].size
    names = np.asarray(tracer.names + [""])
    parent = s["parent"]
    dur = s["end"] - s["start"]
    root = np.where(parent < 0, np.arange(n), parent)
    while True:  # pointer jumping: every span to its root phase span
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    span_name = names[s["name"]]
    phase = span_name[root]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)

    def of(name, phases=None):
        m = span_name == name
        return m if phases is None else m & np.isin(phase, phases)

    def per_setup(name):
        setups = np.flatnonzero(span_name == "bench.setup")
        m = of(name, ["bench.setup"])
        totals = np.bincount(root[m], weights=dur[m], minlength=n)[setups]
        return float(np.median(totals)) if setups.size else 0.0

    work = ["bench.train", "bench.eval"]
    train = ["bench.train"]
    queries = of("lsh.query")
    steps = of("model.train_step", train)
    n_steps = int(steps.sum())
    train_fwd = of("layers.forward", train)
    batches = of("training.batch")
    n_batches = int(batches.sum())
    train_spans = np.flatnonzero(of("training.train"))
    under_train = has_parent & np.isin(parent, train_spans)
    covered = dur[under_train & np.isin(span_name, ["model.train_step", "training.adam",
                                                     "lsh.insert_labels", "lsh.rebuild"])].sum()
    forward = of("layers.forward")

    values = {
        "data.parse_s": per_setup("data.load_xc"),
        "lsh.build_s": per_setup("lsh.build"),
        "lsh.rebuild_calls": int(of("lsh.rebuild", train).sum()),
        "lsh.rebuild_s": float(dur[of("lsh.rebuild", train)].sum()),
        "lsh.query_calls": int(of("lsh.query", work).sum()),
        "lsh.query_ms": 1e3 * _mean(dur[queries]),
        "lsh.hash_calls": int(of("lsh.hash", work).sum()),
        "lsh.hash_ms": 1e3 * float(dur[of("lsh.hash")].sum()) / max(1, int(queries.sum())),
        "lsh.ids_per_query": _mean(s["a"][of("lsh.query", work)]),
        "lsh.padded_queries": int(np.count_nonzero(s["b"][of("lsh.query", work)])),
        "lsh.label_recall": (1.0 - s["b"][train_fwd].sum() / s["a"][steps].sum()) if n_steps else 0.0,
        "lsh.insert_calls": int(of("lsh.insert_labels", train).sum()),
        "lsh.insert_ms": 1e3 * _mean(dur[of("lsh.insert_labels", train)]),
        "layers.forward_self_ms": 1e3 * _mean(dur[forward] - child_time[forward]),
        "layers.backward_ms": 1e3 * _mean(dur[of("layers.backward", train)]),
        "layers.active_per_sample": float(s["a"][train_fwd].sum() / n_steps) if n_steps else 0.0,
        "model.train_step_ms": 1e3 * _mean(dur[steps]),
        "model.load_s": float(np.median(dur[of("model.load")])) if of("model.load").any() else 0.0,
        "training.batches": n_batches,
        "training.adam_ms": 1e3 * float(dur[of("training.adam", train)].sum()) / max(1, n_batches),
        "training.adam_rows": float(s["a"][of("training.adam", train)].sum()) / max(1, n_batches),
        "training.accumulate_ms": 1e3 * float(dur[batches].sum() - covered) / max(1, n_batches),
    }
    absent_spans = set(tracer.absent)
    absent = [m for m, src in _SOURCES.items() if absent_spans.intersection(src)]
    return {m: values[m] for m in PER_LAYER if m not in absent}, absent
