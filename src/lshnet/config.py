"""Flat key=value run configuration with section prefixes (model., train., data.).

Unknown keys are errors; the full key list doubles as the --help documentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .autotune import AutotuneConfig
from .errors import ConfigError
from .layers import ACTIVATIONS
from .training import TrainConfig


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _int_list(s: str):
    return [int(t) for t in s.split(",") if t != ""]


def _float_list(s: str):
    return [float(t) for t in s.split(",") if t != ""]


def _str_list(s: str):
    return [t.strip() for t in s.split(",") if t.strip()]


# key -> (parser, required, default, description)
SCHEMA = {
    "model.layer_dims": (_int_list, True, None,
                         "comma list: input dim, then each layer width"),
    "model.sparsities": (_float_list, True, None,
                         "comma list, one per layer, each in (0, 1]"),
    "model.activations": (_str_list, True, None,
                          "comma list, one per layer: identity|relu|softmax"),
    "model.path": (str, True, None, "output path for the trained model file"),
    "model.c1": (float, False, 1.0, "autotune safety factor"),
    "model.c2": (float, False, 0.1, "autotune cost budget in (0, 1)"),
    "model.lmax": (int, False, 256, "autotune table-count cap"),
    "train.batch_size": (int, False, 64, "samples per batch"),
    "train.epochs": (int, False, 5, "training epochs"),
    "train.lr": (float, False, 0.001, "Adam learning rate"),
    "train.rebuild_interval": (int, False, 50, "batches between index rebuilds"),
    "train.aln": (_parse_bool, False, False,
                  "insert missed labels into selected buckets during training"),
    "train.inference_sparsity": (float, False, 1.0,
                                 "fraction of output neurons evaluated at inference"),
    "train.seed": (int, False, 0, "RNG seed"),
    "train.report_path": (str, False, None, "also write the train report here"),
    "data.train_path": (str, True, None, "training dataset (XC text format)"),
    "data.eval_path": (str, False, None, "evaluation dataset; used by eval/bench"),
    "data.index_base": (int, False, 0, "0 or 1; id base of the dataset files"),
}


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def get(self, key, default=None):
        return self.values.get(key, default)

    def train_config(self) -> TrainConfig:
        v = self.values
        return TrainConfig(
            batch_size=v["train.batch_size"],
            epochs=v["train.epochs"],
            lr=v["train.lr"],
            rebuild_interval=v["train.rebuild_interval"],
            aln_enabled=v["train.aln"],
            inference_sparsity=v["train.inference_sparsity"],
            seed=v["train.seed"],
        )

    def tune_config(self) -> AutotuneConfig:
        v = self.values
        return AutotuneConfig(c1=v["model.c1"], c2=v["model.c2"], l_max=v["model.lmax"])


def parse_run_config(text: str) -> RunConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        val = val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parser = SCHEMA[key][0]
        try:
            values[key] = parser(val)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from None

    for key, (_, required, default, _desc) in SCHEMA.items():
        if key not in values:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            values[key] = default

    dims = values["model.layer_dims"]
    n_layers = len(dims) - 1
    if n_layers < 1:
        raise ConfigError("model.layer_dims needs at least an input and one layer")
    if len(values["model.sparsities"]) != n_layers:
        raise ConfigError("model.sparsities length must match layer count")
    if len(values["model.activations"]) != n_layers:
        raise ConfigError("model.activations length must match layer count")
    for a in values["model.activations"]:
        if a not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {a!r}")
    for s in values["model.sparsities"]:
        if not 0 < s <= 1:
            raise ConfigError("sparsities must be in (0, 1]")
    if values["data.index_base"] not in (0, 1):
        raise ConfigError("data.index_base must be 0 or 1")
    return RunConfig(values)


def load_run_config(path: str) -> RunConfig:
    with open(path, "r") as fh:
        return parse_run_config(fh.read())


def schema_help() -> str:
    lines = ["config keys (key=value, one per line, # comments):"]
    for key, (_, required, default, desc) in SCHEMA.items():
        tag = "required" if required else f"default {default}"
        lines.append(f"  {key:28s} {desc} ({tag})")
    return "\n".join(lines)
