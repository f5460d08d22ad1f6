"""Command-line operator surface: train, eval, predict, autotune, bench.

Exit codes: 0 ok, 2 config/schema or argument error, 3 data error, 4 I/O
error, which includes a truncated or corrupt model file. Commands raise; one
table in `main` maps the exception to its exit code and one `error:` line, and
an exception outside the table keeps its traceback. Model files are written
atomically (temp file + rename), so a nonzero exit never leaves a partial model
behind.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

from .autotune import AutotuneConfig, autotune, plan_cost_ratio
from .config import load_run_config, schema_help
from .data import load_xc
from .errors import ConfigError, DataError, DimensionError, InfeasibleSparsity, ModelFormatError
from .layers import DENSE_INFER, SPARSE_INFER
from .model import Model
from .training import TrainConfig, Trainer, evaluate, predict

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4

# exception type -> exit code; the first match wins, so ModelFormatError, which
# is also a ValueError, comes before ValueError
EXIT_CODES = {
    ModelFormatError: EXIT_IO,
    ConfigError: EXIT_CONFIG,
    InfeasibleSparsity: EXIT_CONFIG,
    ValueError: EXIT_CONFIG,
    DataError: EXIT_DATA,
    DimensionError: EXIT_DATA,
    OSError: EXIT_IO,
}


def _atomic_write_model(model: Model, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            model.save(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build_model(run_cfg) -> Model:
    dims = run_cfg["model.layer_dims"]
    return Model.create(
        dims,
        run_cfg["model.sparsities"],
        run_cfg["model.activations"],
        seed=run_cfg["train.seed"],
        tune_cfg=run_cfg.tune_config(),
    )


def _load_for_inference(args):
    """(model, dataset, mode, cfg) for eval and predict; sparse mode falls back
    to dense when the output layer has no index."""
    cfg = TrainConfig(inference_sparsity=args.inference_sparsity)
    model = Model.load_from(args.model)
    dataset = load_xc(args.data, args.index_base)
    dataset.check_width(model.input_dim)
    sparse = args.mode == "sparse" and model.layers[-1].index is not None
    return model, dataset, SPARSE_INFER if sparse else DENSE_INFER, cfg


def cmd_train(args) -> int:
    run_cfg = load_run_config(args.config)
    cfg = run_cfg.train_config()
    dataset = load_xc(run_cfg["data.train_path"], run_cfg["data.index_base"])
    model = _build_model(run_cfg)
    report = Trainer(model, cfg).train(dataset)
    lines = [rec.line() for rec in report.records]
    for line in lines:
        print(line)
    if run_cfg.get("train.report_path"):
        with open(run_cfg["train.report_path"], "w") as fh:
            fh.write("\n".join(lines) + "\n")
    _atomic_write_model(model, run_cfg["model.path"])
    return 0


def cmd_eval(args) -> int:
    model, dataset, mode, cfg = _load_for_inference(args)
    p_at_k, lat = evaluate(model, dataset, args.k, cfg, mode)
    print(f"p@{args.k}={p_at_k:.6f} latency_ms={lat.mean * 1000:.3f} "
          f"p50_ms={lat.p50 * 1000:.3f} p90_ms={lat.p90 * 1000:.3f} "
          f"p99_ms={lat.p99 * 1000:.3f} max_ms={lat.max * 1000:.3f} "
          f"mode={'dense' if mode == DENSE_INFER else 'sparse'}")
    return 0


def cmd_predict(args) -> int:
    if args.k < 1:
        raise ValueError("k must be >= 1")
    model, dataset, mode, cfg = _load_for_inference(args)
    for ex in dataset.examples:
        ranked = predict(model, ex.features, cfg, mode)[: args.k]
        print(" ".join(str(int(i)) for i in ranked))
    return 0


def cmd_autotune(args) -> int:
    cfg = AutotuneConfig(c1=args.c1, c2=args.c2, l_max=args.lmax)
    plan = autotune(args.dim, args.prev_dim, args.sparsity, cfg)
    print(f"K={plan.k_bits}")
    print(f"L={plan.num_tables}")
    print(f"R={plan.bucket_cap}")
    print(f"cost_ratio={plan_cost_ratio(plan):.6f}")
    return 0


def cmd_bench(args) -> int:
    run_cfg = load_run_config(args.config)
    cfg = run_cfg.train_config()
    dataset = load_xc(run_cfg["data.train_path"], run_cfg["data.index_base"])
    eval_path = run_cfg.get("data.eval_path") or run_cfg["data.train_path"]
    eval_set = load_xc(eval_path, run_cfg["data.index_base"])
    model = _build_model(run_cfg)
    eval_set.check_width(model.input_dim)
    mode = SPARSE_INFER if model.layers[-1].index is not None else DENSE_INFER

    batches_per_epoch = math.ceil(len(dataset) / cfg.batch_size)
    marks = {max(1, batches_per_epoch // 2), batches_per_epoch}
    rows = []

    def hook(epoch, batch, seconds):
        if batch in marks:
            p_at_1, _ = evaluate(model, eval_set, 1, cfg, mode)
            rows.append((seconds, p_at_1))

    Trainer(model, cfg).train(dataset, checkpoint_hook=hook)

    lines = ["seconds,p_at_1"] + [f"{s:.3f},{p:.6f}" for s, p in rows]
    out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    sys.stdout.write(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lshnet",
        description="LSH-sampled sparse training and inference for wide output layers",
        epilog=schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file",
                       epilog=schema_help(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="precision@k and the latency distribution of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mode", choices=["dense", "sparse"], default="sparse")
    p.add_argument("--inference-sparsity", type=float, default=1.0)
    p.add_argument("--index-base", type=int, choices=[0, 1], default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="print top-k label ids per example")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--mode", choices=["dense", "sparse"], default="sparse")
    p.add_argument("--inference-sparsity", type=float, default=1.0)
    p.add_argument("--index-base", type=int, choices=[0, 1], default=0)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("autotune", help="pick (K, L, R) for a layer shape")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--prev-dim", type=int, required=True)
    p.add_argument("--sparsity", type=float, required=True)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=0.1)
    p.add_argument("--lmax", type=int, default=256)
    p.set_defaults(func=cmd_autotune)

    p = sub.add_parser("bench", help="train while logging (seconds, p@1) checkpoints",
                       epilog=schema_help(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("config")
    p.add_argument("--out", help="also write the CSV here")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as e:
        code = next(c for t, c in EXIT_CODES.items() if isinstance(e, t))
        print(f"error: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
