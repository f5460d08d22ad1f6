import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lshnet
from lshnet import cli
from lshnet.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, build_parser, main
from lshnet.data import serialize_xc, synth_clustered


def write_dataset(path, num_classes=20, samples_per_class=4, feature_dim=16,
                  noise=0.0, seed=0):
    ds = synth_clustered(num_classes, samples_per_class, feature_dim, noise, seed=seed)
    with open(path, "w") as fh:
        serialize_xc(ds, fh)
    return ds


def write_config(path, data_path, model_path, **overrides):
    base = {
        "model.layer_dims": "16,20",
        "model.sparsities": "1.0",
        "model.activations": "softmax",
        "model.path": str(model_path),
        "train.batch_size": "16",
        "train.epochs": "30",
        "train.lr": "0.05",
        "train.seed": "3",
        "data.train_path": str(data_path),
    }
    base.update(overrides)
    with open(path, "w") as fh:
        for k, v in base.items():
            fh.write(f"{k}={v}\n")


def test_autotune_command(capsys):
    rc = main(["autotune", "--dim", "670091", "--prev-dim", "128", "--sparsity", "0.05"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "K=12" in out
    assert "L=205" in out
    assert "R=328" in out
    assert "cost_ratio=" in out


def test_autotune_infeasible(capsys):
    rc = main(["autotune", "--dim", "10000", "--prev-dim", "128", "--sparsity", "0.1"])
    assert rc == 2
    assert "feasible" in capsys.readouterr().err


def test_train_eval_cycle(tmp_path, capsys):
    data = tmp_path / "train.txt"
    model = tmp_path / "model.bin"
    config = tmp_path / "run.cfg"
    write_dataset(data)
    write_config(config, data, model, **{"train.report_path": str(tmp_path / "report.txt")})
    rc = main(["train", str(config)])
    out = capsys.readouterr().out
    assert rc == 0
    assert model.exists()
    assert (tmp_path / "report.txt").exists()
    assert "epoch=1 batch=1" in out

    rc = main(["eval", "--model", str(model), "--data", str(data), "--k", "1",
               "--mode", "dense"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p@1=1.000000" in out  # zero-noise task is separable
    for key in ("latency_ms=", "p50_ms=", "p90_ms=", "p99_ms=", "max_ms="):
        assert key in out
    assert "mode=dense" in out


def test_train_rerun_byte_identical(tmp_path):
    data = tmp_path / "train.txt"
    config = tmp_path / "run.cfg"
    write_dataset(data)
    contents = []
    for name in ("a.bin", "b.bin"):
        model = tmp_path / name
        write_config(config, data, model, **{"train.epochs": "3"})
        assert main(["train", str(config)]) == 0
        contents.append(model.read_bytes())
    assert contents[0] == contents[1]


def test_train_infeasible_sparsity_exit_2(tmp_path, capsys):
    data = tmp_path / "train.txt"
    model = tmp_path / "model.bin"
    config = tmp_path / "run.cfg"
    write_dataset(data, num_classes=100, feature_dim=16)
    write_config(config, data, model, **{
        "model.layer_dims": "16,100",
        "model.sparsities": "0.2",
    })
    rc = main(["train", str(config)])
    assert rc == 2
    assert "feasible" in capsys.readouterr().err
    assert not model.exists()  # no partial output on failure


def test_unknown_config_key_exit_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("model.bogus=1\n")
    rc = main(["train", str(config)])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


def test_bad_data_exit_3(tmp_path, capsys):
    data = tmp_path / "train.txt"
    model = tmp_path / "model.bin"
    config = tmp_path / "run.cfg"
    data.write_text("1 16 20\n25 0:1.0\n")  # label 25 out of range
    write_config(config, data, model)
    rc = main(["train", str(config)])
    assert rc == 3
    assert not model.exists()


def test_malformed_data_line_exit_3(tmp_path, capsys):
    data = tmp_path / "train.txt"
    model = tmp_path / "model.bin"
    config = tmp_path / "run.cfg"
    data.write_text("2 16 20\n1 0:1.0\n0 3:nan\n")
    write_config(config, data, model)
    rc = main(["train", str(config)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ")
    assert "Traceback" not in err
    assert not model.exists()


def test_eval_missing_model_exit_4(tmp_path):
    data = tmp_path / "train.txt"
    write_dataset(data)
    rc = main(["eval", "--model", str(tmp_path / "nope.bin"), "--data", str(data)])
    assert rc == 4


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_corrupt_model_exit_4(tmp_path, capsys, command):
    data = tmp_path / "train.txt"
    model = tmp_path / "model.bin"
    config = tmp_path / "run.cfg"
    write_dataset(data)
    d, d_prev = 200, 16
    write_config(config, data, model, **{"model.layer_dims": f"{d_prev},{d}",
                                         "model.sparsities": "0.05", "train.epochs": "1"})
    assert main(["train", str(config)]) == 0
    blob = model.read_bytes()
    # magic, version, layer count; the layer header and its plan; weights, biases, index flag
    index_at = 4 + 8 + 18 + 32 + 8 * d * (d_prev + 1) + 1
    cuts = (0, 3, 10, 30, 100, index_at, index_at + 2, index_at + 40, len(blob) - 5, len(blob) - 1)
    cases = [blob[:cut] for cut in cuts]
    inflated = bytearray(blob)
    struct.pack_into("<I", inflated, 12, 2**31)  # the layer's width
    cases.append(bytes(inflated))
    bad = tmp_path / "bad.bin"
    capsys.readouterr()
    for case in cases:
        bad.write_bytes(case)
        rc = main([command, "--model", str(bad), "--data", str(data)])
        err = capsys.readouterr().err
        assert rc == EXIT_IO, len(case)
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_eval_empty_data_exit_3(tmp_path, capsys):
    data = tmp_path / "train.txt"
    empty = tmp_path / "empty.txt"
    model = tmp_path / "model.bin"
    config = tmp_path / "run.cfg"
    write_dataset(data)
    empty.write_text("0 16 20\n")
    write_config(config, data, model, **{"train.epochs": "1"})
    assert main(["train", str(config)]) == 0
    capsys.readouterr()
    rc = main(["eval", "--model", str(model), "--data", str(empty)])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == "error: no examples to evaluate\n"


def test_eval_dim_mismatch_exit_3(tmp_path, capsys):
    data = tmp_path / "train.txt"
    other = tmp_path / "other.txt"
    model = tmp_path / "model.bin"
    config = tmp_path / "run.cfg"
    write_dataset(data)
    write_dataset(other, feature_dim=24)
    write_config(config, data, model, **{"train.epochs": "1"})
    assert main(["train", str(config)]) == 0
    rc = main(["eval", "--model", str(model), "--data", str(other)])
    assert rc == 3


def test_predict_command(tmp_path, capsys):
    data = tmp_path / "train.txt"
    model = tmp_path / "model.bin"
    config = tmp_path / "run.cfg"
    ds = write_dataset(data)
    write_config(config, data, model, **{"train.epochs": "1"})
    assert main(["train", str(config)]) == 0
    capsys.readouterr()
    rc = main(["predict", "--model", str(model), "--data", str(data), "--k", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(ds.examples)
    assert all(len(line.split()) == 3 for line in lines)


def test_bench_csv(tmp_path, capsys):
    data = tmp_path / "train.txt"
    model = tmp_path / "model.bin"
    config = tmp_path / "run.cfg"
    csv = tmp_path / "bench.csv"
    write_dataset(data)
    write_config(config, data, model, **{"train.epochs": "2"})
    rc = main(["bench", str(config), "--out", str(csv)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "seconds,p_at_1"
    assert len(lines) - 1 >= 2 * 2  # at least two checkpoints per epoch
    secs = [float(l.split(",")[0]) for l in lines[1:]]
    assert secs == sorted(secs)
    assert out.splitlines()[0] == "seconds,p_at_1"


def test_help_enumerates_config_keys(capsys):
    from lshnet.config import SCHEMA
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["--help"])
    out = capsys.readouterr().out
    for key in SCHEMA:
        assert key in out


@pytest.mark.parametrize("key,value", [
    ("train.rebuild_interval", "0"),
    ("train.batch_size", "0"),
    ("train.batch_size", "-4"),
    ("train.epochs", "-1"),
    ("train.inference_sparsity", "0"),
    ("train.lr", "nan"),
    ("train.lr", "inf"),
    ("train.lr", "0"),
    ("train.lr", "-1"),
    ("model.layer_dims", "16,0"),
])
def test_bad_train_setting_exit_2(tmp_path, capsys, key, value):
    data = tmp_path / "train.txt"
    model = tmp_path / "model.bin"
    config = tmp_path / "run.cfg"
    write_dataset(data)
    write_config(config, data, model, **{key: value})
    rc = main(["train", str(config)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not model.exists()


@pytest.mark.parametrize("content", ["0 16 20\n", "1 24 20\n3 0:1.0\n"],
                         ids=["empty", "other-width"])
def test_train_unusable_dataset_exit_3(tmp_path, capsys, content):
    data = tmp_path / "train.txt"
    model = tmp_path / "model.bin"
    config = tmp_path / "run.cfg"
    data.write_text(content)
    write_config(config, data, model)
    rc = main(["train", str(config)])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not model.exists()


@pytest.mark.parametrize("argv,code", [
    (["eval", "--inference-sparsity", "0"], EXIT_CONFIG),
    (["eval", "--inference-sparsity", "2"], EXIT_CONFIG),
    (["predict", "--inference-sparsity", "0"], EXIT_CONFIG),
    (["predict", "--inference-sparsity", "2"], EXIT_CONFIG),
    (["eval", "--k", "0"], EXIT_CONFIG),
    (["predict", "--k", "0"], EXIT_CONFIG),
    (["predict", "--k", "-1"], EXIT_CONFIG),
    (["bench"], EXIT_DATA),
], ids=["eval-sparsity-0", "eval-sparsity-2", "predict-sparsity-0", "predict-sparsity-2",
        "eval-k-0", "predict-k-0", "predict-k-negative", "bench-eval-other-width"])
def test_bad_command_argument_exit_code(tmp_path, capsys, argv, code):
    data = tmp_path / "train.txt"
    other = tmp_path / "other.txt"
    model = tmp_path / "model.bin"
    config = tmp_path / "run.cfg"
    write_dataset(data)
    write_dataset(other, feature_dim=24)
    write_config(config, data, model, **{"train.epochs": "1", "data.eval_path": str(other)})
    assert main(["train", str(config)]) == 0
    capsys.readouterr()
    if argv[0] == "bench":
        argv = argv + [str(config)]
    else:
        argv = argv + ["--model", str(model), "--data", str(data)]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == code
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert out == ""


def test_exit_code_reaches_the_shell_without_traceback(tmp_path):
    data = tmp_path / "train.txt"
    model = tmp_path / "model.bin"
    config = tmp_path / "run.cfg"
    write_dataset(data)
    write_config(config, data, model, **{"train.batch_size": "0"})
    src = str(Path(lshnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "lshnet.cli", "train", str(config)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr == "error: batch_size must be >= 1\n"
    assert not model.exists()


def test_exception_outside_the_table_keeps_its_traceback(monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("a bug")
    monkeypatch.setattr(cli, "autotune", broken)
    with pytest.raises(ZeroDivisionError):
        main(["autotune", "--dim", "1000", "--prev-dim", "16", "--sparsity", "0.05"])
