"""Command line behavior: subcommands, overrides, exit codes."""

import ast
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import credo.cli
import credo.pipeline
from credo import blas
from credo.archive import load_model, save_model
from credo.cli import exit_code_for, main
from credo.config import load_config, resolve_config
from credo.errors import ConfigError, DataError, NumericError, PipelineError
from credo.synth import SynthSpec, write_synthetic


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "credit.csv"
    spec = SynthSpec(
        rows=400, features=7, classes=3, imbalance=0.6, null_rate=0.02, categorical=2, seed=9
    )
    write_synthetic(str(path), spec)
    return str(path)


def write_config(tmp_path, data_csv, **extra):
    raw = {
        "data": data_csv,
        "target": "status",
        "model": {"name": "gnb"},
        "out_dir": str(tmp_path / "out"),
    }
    raw.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


# -------------------------------------------------------------- exit codes


def test_exit_code_mapping():
    assert exit_code_for(ConfigError("x")) == 2
    assert exit_code_for(DataError("x")) == 3
    assert exit_code_for(NumericError("x")) == 4
    assert exit_code_for(RuntimeError("x")) == 1
    # pipeline wrapping is transparent
    assert exit_code_for(PipelineError("fit", ConfigError("x"))) == 2
    assert exit_code_for(PipelineError("load", DataError("x"))) == 3
    assert exit_code_for(PipelineError("fit", PipelineError("inner", NumericError("x")))) == 4
    assert exit_code_for(PipelineError("fit", RuntimeError("x"))) == 1
    assert exit_code_for(MemoryError("x")) == 3
    assert exit_code_for(PipelineError("explain", MemoryError("x"))) == 3


def test_run_success(tmp_path, data_csv, capsys):
    cfg = write_config(tmp_path, data_csv, metrics=["accuracy", "f1"])
    assert main(["run", "-c", cfg]) == 0
    out = capsys.readouterr().out
    assert "accuracy: " in out and "f1: " in out
    assert "outputs written to" in out
    assert (tmp_path / "out" / "metrics.csv").is_file()
    assert (tmp_path / "out" / "report.json").is_file()


def test_run_missing_config_file(tmp_path, capsys):
    assert main(["run", "-c", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_invalid_json_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["run", "-c", str(bad)]) == 2


def test_run_unknown_model_name(tmp_path, data_csv, capsys):
    cfg = write_config(tmp_path, data_csv, model={"name": "svm"})
    assert main(["run", "-c", cfg]) == 2
    assert "config.model.name" in capsys.readouterr().err


# values that a model or stage rejects must fail config validation too
OUT_OF_BOUNDS = {
    "gbt_rounds": ({"model": {"name": "gbt", "params": {"rounds": 0}}}, "config.model.params.rounds"),
    "gbt_learning_rate_zero": (
        {"model": {"name": "gbt", "params": {"learning_rate": 0}}},
        "config.model.params.learning_rate",
    ),
    "gbt_learning_rate_above_one": (
        {"model": {"name": "gbt", "params": {"learning_rate": 1.5}}},
        "config.model.params.learning_rate",
    ),
    "xgdnn_gbt_rounds": (
        {"model": {"name": "xgdnn", "params": {"gbt": {"rounds": 0}}}},
        "config.model.params.gbt.rounds",
    ),
    "null_threshold": ({"null_threshold": 0}, "config.null_threshold"),
    "lime_kernel_width": (
        {"explain": {"lime": {"kernel_width": 0}}},
        "config.explain.lime.kernel_width",
    ),
    # json reads NaN, Infinity and integers past float range; NaN passes every bound check
    "gbt_lam_nan": (
        {"model": {"name": "gbt", "params": {"lam": float("nan")}}},
        "config.model.params.lam",
    ),
    "mlp_learning_rate_inf": (
        {"model": {"name": "mlp", "params": {"learning_rate": float("inf")}}},
        "config.model.params.learning_rate",
    ),
    "lda_ridge_nan": (
        {"model": {"name": "lda", "params": {"ridge": float("nan")}}},
        "config.model.params.ridge",
    ),
    "gbt_lam_past_float_range": (
        {"model": {"name": "gbt", "params": {"lam": 10**400}}},
        "config.model.params.lam",
    ),
    # an integer past int64 would reach numpy as a size it cannot allocate
    "lime_n_samples_past_int64": (
        {"explain": {"lime_rows": [0], "lime": {"n_samples": 10**30}}},
        "config.explain.lime.n_samples",
    ),
    "morris_n_trajectories_past_int64": (
        {"explain": {"morris": {"enabled": True, "n_trajectories": 10**30}}},
        "config.explain.morris.n_trajectories",
    ),
    "morris_n_levels_past_int64": (
        {"explain": {"morris": {"enabled": True, "n_levels": 10**30}}},
        "config.explain.morris.n_levels",
    ),
}


@pytest.mark.parametrize("extra,path", OUT_OF_BOUNDS.values(), ids=OUT_OF_BOUNDS.keys())
def test_run_out_of_bound_value_exits_2_before_reading_data(tmp_path, capsys, extra, path):
    # the data file does not exist: exit 2 rather than 3 shows it was never opened
    cfg = write_config(tmp_path, str(tmp_path / "absent.csv"), **extra)
    assert main(["run", "-c", cfg]) == 2
    assert f"{path}:" in capsys.readouterr().err


def test_run_integer_past_digit_limit_exits_2_before_reading_data(tmp_path, capsys):
    # Python refuses to parse an integer literal of more than 4,300 digits
    cfg = write_config(tmp_path, str(tmp_path / "absent.csv"), model={"name": "gbt", "params": {"rounds": 7}})
    Path(cfg).write_text(Path(cfg).read_text().replace('"rounds": 7', '"rounds": ' + "1" * 5001))
    assert main(["run", "-c", cfg]) == 2
    assert "config file" in capsys.readouterr().err


def _spy(monkeypatch, name: str) -> list:
    """Record each call of ``credo.pipeline.<name>``, which still runs."""
    calls = []
    real = getattr(credo.pipeline, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(f"credo.pipeline.{name}", spy)
    return calls


# each config's error names the key; a gbt stage has no seed, so its
# `seed` is an unknown key, refused just as early
NEGATIVE_SEEDS = {
    "split": ({"split": {"seed": -1}}, "config.split.seed:"),
    "smote": ({"smote": {"seed": -1}}, "config.smote.seed:"),
    "lime": ({"explain": {"lime_rows": [0], "lime": {"seed": -1}}}, "config.explain.lime.seed:"),
    "morris": ({"explain": {"morris": {"enabled": True, "seed": -1}}}, "config.explain.morris.seed:"),
    "forest": ({"model": {"name": "forest", "params": {"seed": -1}}}, "config.model.params.seed:"),
    "gbt": (
        {"model": {"name": "gbt", "params": {"seed": -1}}},
        "config.model.params: unknown key 'seed'",
    ),
    "mlp": ({"model": {"name": "mlp", "params": {"seed": -1}}}, "config.model.params.seed:"),
    "xgdnn_gbt": (
        {"model": {"name": "xgdnn", "params": {"gbt": {"seed": -1}}}},
        "config.model.params.gbt: unknown key 'seed'",
    ),
    "xgdnn_mlp": (
        {"model": {"name": "xgdnn", "params": {"mlp": {"seed": -1}}}},
        "config.model.params.mlp.seed:",
    ),
}


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("extra,message", NEGATIVE_SEEDS.values(), ids=NEGATIVE_SEEDS.keys())
def test_negative_seed_exits_2_before_reading_data(
    tmp_path, data_csv, capsys, monkeypatch, command, extra, message
):
    loads = _spy(monkeypatch, "load_csv")
    assert main([command, "-c", write_config(tmp_path, data_csv, **extra)]) == 2
    assert message in capsys.readouterr().err
    assert loads == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", ["lime", "morris"])
def test_explain_negative_seed_exits_2_before_reading_the_archive(
    tmp_path, data_csv, capsys, monkeypatch, method
):
    archive_loads = _spy(monkeypatch, "load_model")
    csv_loads = _spy(monkeypatch, "load_csv")
    archive = ["-a", str(tmp_path / "model"), "-d", data_csv]
    assert main(["explain", "-m", method, *archive, "--seed", "-1"]) == 2
    assert "explain.seed: must be >= 0, got -1" in capsys.readouterr().err
    assert archive_loads == [] and csv_loads == []


def test_synth_negative_seed_exits_2_without_writing(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["synth", "-o", str(out), "--rows", "200", "--seed", "-1"]) == 2
    assert "synth.seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--row", "--target-class"])
def test_explain_negative_index_exits_2_before_reading_the_archive(tmp_path, data_csv, capsys, monkeypatch, flag):
    archive_loads = _spy(monkeypatch, "load_model")
    csv_loads = _spy(monkeypatch, "load_csv")
    archive = ["-a", str(tmp_path / "model"), "-d", data_csv]
    assert main(["explain", "-m", "lime", *archive, flag, "-1"]) == 2
    assert f"explain.{flag[2:].replace('-', '_')}: must be >= 0, got -1" in capsys.readouterr().err
    assert archive_loads == [] and csv_loads == []


# each value once made `credo synth` exit 0 with a bad CSV, or never return
SYNTH_REFUSALS = {
    "separation_inf": (["--separation", "inf"], "synth.separation: expected a finite number"),
    "imbalance_past_float": (["--imbalance", "1e400"], "synth.imbalance: expected a finite number"),
    "rows_past_int64": (["--rows", "1" + "0" * 21], "synth.rows: expected an integer in int64 range"),
    "rows_past_float_counts": (
        ["--rows", str(2**63 - 1), "--classes", "2", "--imbalance", "1e-300"],
        "synth.rows: rows must be at least classes * 10 = 20 and at most 2**53",
    ),
    "target_a_feature": (["--target-name", "num_00"], "synth.target_name: target_name 'num_00' is also"),
}


@pytest.mark.parametrize("flags,message", SYNTH_REFUSALS.values(), ids=SYNTH_REFUSALS.keys())
def test_synth_bad_flag_exits_2_naming_it_without_writing(tmp_path, capsys, flags, message):
    out = tmp_path / "x.csv"
    assert main(["synth", "-o", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fraction, side", [(0.001, "train"), (0.999, "test")])
@pytest.mark.parametrize("scaler", ["zscore", "none"])
def test_a_split_with_an_empty_side_exits_3_from_the_split_stage(
    tmp_path, capsys, monkeypatch, fraction, side, scaler
):
    data = tmp_path / "small.csv"
    write_synthetic(str(data), SynthSpec(rows=300, classes=3, features=6, categorical=1, seed=2))
    fits = _spy(monkeypatch, "fit_model")
    config = write_config(tmp_path, str(data), split={"train_fraction": fraction}, scaler=scaler)
    assert main(["run", "-c", config]) == 3
    err = capsys.readouterr().err
    assert f"stage 'split' failed: train_fraction {fraction} of 300 rows leaves the {side} side empty" in err
    assert fits == []


# Sizes whose first allocation is at least 2**56 bytes (64 PiB), past what
# a machine can map, so it fails at once and touches no memory.


def test_synth_past_memory_exits_3_naming_the_flags_without_writing(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["synth", "-o", str(out), "--rows", str(2**53)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: synth: --rows {2**53} x --features 30 do not fit in memory: Unable to allocate")
    assert not out.exists()


def test_run_lime_past_memory_exits_3_naming_the_stage(tmp_path, data_csv, capsys):
    explain = {"lime_rows": [0], "lime": {"n_samples": 2**52}}
    cfg = write_config(tmp_path, data_csv, explain=explain)
    assert main(["run", "-c", cfg]) == 3
    assert capsys.readouterr().err.startswith("error: stage 'explain' failed: Unable to allocate")
    assert not (tmp_path / "out").exists()


def test_run_missing_data_file(tmp_path, capsys):
    cfg = write_config(tmp_path, str(tmp_path / "absent.csv"))
    assert main(["run", "-c", cfg]) == 3
    assert "stage 'load'" in capsys.readouterr().err


def test_out_flag_overrides_config(tmp_path, data_csv):
    cfg = write_config(tmp_path, data_csv)
    override = tmp_path / "elsewhere"
    assert main(["run", "-c", cfg, "--out", str(override)]) == 0
    assert (override / "metrics.csv").is_file()
    assert not (tmp_path / "out").exists()


def test_one_parser_keeps_no_flag_between_calls(tmp_path, data_csv, monkeypatch):
    # main reuses one parser, so a flag of one call must not reach the next
    monkeypatch.setattr("credo.cli.build_parser", None)
    seen = []

    def cmd_compare(cfg):
        seen.append(cfg.out_dir)
        return SimpleNamespace(to_csv=lambda: ""), cfg.out_dir

    monkeypatch.setattr("credo.cli.cmd_compare", cmd_compare)
    cfg = write_config(tmp_path, data_csv)
    assert main(["run", "-c", cfg, "--out", str(tmp_path / "elsewhere")]) == 0
    assert main(["compare", "-c", cfg]) == 0
    assert seen == [str(tmp_path / "out")]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_target_missing_in_every_row_exits_3_and_leaves_out_alone(tmp_path, capsys, command):
    data = tmp_path / "no_target.csv"
    data.write_text("a,b,status\n1,2,\n3,4,NA\n")
    out = tmp_path / "taken"
    out.mkdir()
    (out / "keep.txt").write_text("mine")
    cfg = write_config(tmp_path, str(data), models=[{"name": "gnb"}])
    assert main([command, "-c", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "stage 'load'" in err and "target 'status' is missing in every row" in err
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "mine"


def test_compare_prints_matrix(tmp_path, data_csv, capsys):
    cfg = write_config(
        tmp_path,
        data_csv,
        models=[{"name": "gnb"}, {"name": "tree", "params": {"max_depth": 3}}],
        metrics=["accuracy"],
    )
    assert main(["compare", "-c", cfg]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "model,lda,accuracy,error"
    assert len([l for l in lines if l.startswith(("gnb,", "tree,"))]) == 4
    assert (tmp_path / "out" / "compare.csv").is_file()


def test_compare_missing_data_file_exits_3_without_table(tmp_path, capsys):
    cfg = write_config(
        tmp_path, str(tmp_path / "absent.csv"), models=[{"name": "gnb"}, {"name": "tree"}]
    )
    assert main(["compare", "-c", cfg]) == 3
    assert "stage 'load'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "compare.csv").exists()


def test_integer_coded_target_runs_and_compares(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(200, 3))
    y = (X[:, 0] + 0.5 * rng.normal(size=200) > 0).astype(int)
    data = tmp_path / "binary.csv"
    rows = [f"{a!r},{b!r},{c!r},{t}" for (a, b, c), t in zip(X, y)]
    data.write_text("\n".join(["a,b,c,default", *rows]) + "\n")
    cfg = write_config(
        tmp_path, str(data), target="default", models=[{"name": "gnb"}, {"name": "logreg"}]
    )
    assert main(["run", "-c", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["preprocessing"]["class_names"] == ["0", "1"]
    assert main(["compare", "-c", cfg]) == 0
    rows = json.loads((tmp_path / "out" / "compare.json").read_text())["rows"]
    assert len(rows) == 4 and all(r["error"] is None for r in rows)


def test_byte_order_mark_before_target_column_runs(tmp_path):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(120, 2))
    y = np.where(X[:, 0] > 0, "good", "bad")
    data = tmp_path / "excel.csv"
    rows = [f"{t},{a!r},{b!r}" for t, (a, b) in zip(y, X.tolist())]
    data.write_text("\n".join(["status,a,b", *rows]) + "\n", encoding="utf-8-sig")
    assert data.read_bytes().startswith(b"\xef\xbb\xbfstatus,")
    assert main(["run", "-c", write_config(tmp_path, str(data))]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["preprocessing"]["class_names"] == ["bad", "good"]
    assert report["preprocessing"]["feature_names"] == ["a", "b"]


def test_explain_replays_archive(tmp_path, data_csv, capsys):
    cfg = write_config(tmp_path, data_csv)
    assert main(["run", "-c", cfg]) == 0
    out = tmp_path / "out"
    rc = main(
        [
            "explain",
            "-m",
            "lime",
            "-a",
            str(out / "model"),
            "-d",
            str(out / "processed_test.csv"),
            "--row",
            "1",
            "--out",
            str(tmp_path / "exp"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "exp" / "explanations" / "lime_row1.json").is_file()
    assert "wrote" in capsys.readouterr().out


def test_explain_morris_with_target_class(tmp_path, data_csv):
    cfg = write_config(tmp_path, data_csv)
    assert main(["run", "-c", cfg]) == 0
    out = tmp_path / "out"
    rc = main(
        [
            "explain",
            "-m",
            "morris",
            "-a",
            str(out / "model"),
            "-d",
            str(out / "processed_test.csv"),
            "--target-class",
            "0",
            "--out",
            str(tmp_path / "exp"),
        ]
    )
    assert rc == 0
    data = json.loads((tmp_path / "exp" / "explanations" / "morris.json").read_text())
    assert data["output"] == "class_prob"


XGDNN_SMALL = {"name": "xgdnn", "params": {"gbt": {"rounds": 3, "max_depth": 2}, "mlp": {"hidden": [8], "epochs": 2}}}


@pytest.mark.parametrize("model", [{"name": "gnb"}, XGDNN_SMALL], ids=["gnb", "xgdnn"])
@pytest.mark.parametrize("lda", [False, True], ids=["lda_off", "lda_on"])
def test_explain_morris_on_the_train_split_writes_the_runs_files(tmp_path, data_csv, model, lda):
    # run and explain share one explanation path: Morris over a run's own
    # archive and processed train split repeats the run's screening byte for byte
    cfg = write_config(
        tmp_path, data_csv, model=model, lda={"enabled": lda}, explain={"morris": {"enabled": True, "seed": 3}}
    )
    assert main(["run", "-c", cfg]) == 0
    out = tmp_path / "out"
    archive = ["-a", str(out / "model"), "-d", str(out / "processed_train.csv")]
    assert main(["explain", "-m", "morris", *archive, "--seed", "3", "--out", str(tmp_path / "exp")]) == 0
    for name in ("morris.json", "morris.csv"):
        replayed = (tmp_path / "exp" / "explanations" / name).read_bytes()
        assert replayed == (out / "explanations" / name).read_bytes()


def test_explanation_csvs_quote_feature_names(tmp_path):
    # one-hot names carry their level: a comma or a quote in it must be quoted
    levels = ["a,b", 'q"t', "plain"]
    rng = np.random.default_rng(0)
    data = tmp_path / "quoted.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "z", "cat", "status"])
        for i in range(90):
            x = rng.random()
            writer.writerow([x, rng.random(), levels[i % 3], int(x + 0.3 * (i % 3 == 0) > 0.6)])
    explain = {"lime_rows": [0], "lime": {"n_samples": 200}, "morris": {"enabled": True, "n_trajectories": 4}}
    assert main(["run", "-c", write_config(tmp_path, str(data), explain=explain)]) == 0
    out = tmp_path / "out"
    archive = ["-a", str(out / "model"), "-d", str(out / "processed_test.csv"), "--out", str(tmp_path / "exp")]
    assert main(["explain", "-m", "lime", *archive, "--row", "0"]) == 0
    assert main(["explain", "-m", "morris", *archive]) == 0
    for d in (out, tmp_path / "exp"):
        for name in ("lime_row0.csv", "morris.csv"):
            rows = list(csv.reader(io.StringIO((d / "explanations" / name).read_text())))
            assert rows[0] == ["feature", "score"]
            assert {len(row) for row in rows} == {2}
            assert {row[0] for row in rows[1:]} == {"x", "z", "cat=a,b", 'cat=q"t', "cat=plain"}


def test_explain_out_naming_a_file_is_a_write_error(tmp_path, data_csv, capsys):
    assert main(["run", "-c", write_config(tmp_path, data_csv)]) == 0
    out = tmp_path / "out"
    taken = tmp_path / "taken"
    taken.write_text("")
    archive = ["-a", str(out / "model"), "-d", str(out / "processed_test.csv")]
    rc = main(["explain", "-m", "lime", *archive, "--out", str(taken)])
    assert rc == 3
    assert f"cannot write under {taken}: {taken} is not a directory" in capsys.readouterr().err
    assert taken.read_text() == ""


def test_explain_out_below_a_file_exits_3_before_loading_the_archive(tmp_path, data_csv, capsys, monkeypatch):
    assert main(["run", "-c", write_config(tmp_path, data_csv)]) == 0
    loads = _spy(monkeypatch, "load_model")
    taken = tmp_path / "taken"
    taken.write_text("mine")
    out = tmp_path / "out"
    archive = ["-a", str(out / "model"), "-d", str(out / "processed_test.csv")]
    rc = main(["explain", "-m", "lime", *archive, "--out", str(taken / "sub")])
    assert rc == 3
    assert f"cannot write under {taken / 'sub'}: {taken} is not a directory" in capsys.readouterr().err
    assert loads == []
    assert taken.read_text() == "mine"


@pytest.mark.parametrize("command", ["run", "compare"])
def test_out_naming_a_file_exits_3_and_leaves_it_alone(
    tmp_path, data_csv, capsys, monkeypatch, command
):
    loads = _spy(monkeypatch, "load_csv")
    taken = tmp_path / "taken"
    taken.write_text("mine")
    cfg = write_config(tmp_path, data_csv, models=[{"name": "gnb"}])
    assert main([command, "-c", cfg, "--out", str(taken)]) == 3
    err = capsys.readouterr().err
    assert f"cannot write under {taken}: {taken} is not a directory" in err
    assert loads == []
    assert taken.read_text() == "mine"


@pytest.mark.parametrize("command", ["run", "compare"])
def test_out_below_a_file_exits_3_before_reading_data(
    tmp_path, data_csv, capsys, monkeypatch, command
):
    loads = _spy(monkeypatch, "load_csv")
    taken = tmp_path / "taken"
    taken.write_text("mine")
    out = taken / "a" / "b"
    cfg = write_config(tmp_path, data_csv, models=[{"name": "gnb"}])
    assert main([command, "-c", cfg, "--out", str(out)]) == 3
    assert f"cannot write under {out}: {taken} is not a directory" in capsys.readouterr().err
    assert loads == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]
    assert taken.read_text() == "mine"


@pytest.mark.parametrize(
    "header,message",
    [("a,b,stat", "no column named 'status'"), ("a,status,a", "column names must be unique")],
    ids=["target_not_a_column", "duplicated_name"],
)
def test_a_bad_header_exits_3_before_any_data_row_is_read(tmp_path, capsys, header, message):
    data = tmp_path / "data.csv"
    data.write_text(header + "\n1,2\n3,4,x\n")  # a ragged first data row
    assert main(["run", "-c", write_config(tmp_path, str(data))]) == 3
    err = capsys.readouterr().err
    assert "stage 'load'" in err and message in err
    assert "data row" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["missing/x.csv", "a_dir"], ids=["missing_dir", "onto_a_dir"])
def test_synth_to_an_unwritable_path_exits_3(tmp_path, capsys, target):
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_dir" / "keep.txt").write_text("mine")
    assert main(["synth", "-o", str(tmp_path / target), "--rows", "200"]) == 3
    assert f"cannot write {tmp_path / target}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a_dir", "keep.txt"]
    assert (tmp_path / "a_dir" / "keep.txt").read_text() == "mine"


@pytest.mark.parametrize("error", [OSError, RuntimeError])
def test_a_failed_synth_leaves_no_partial_csv(tmp_path, capsys, monkeypatch, error):
    # the write fails after the header; test_synth_to_an_unwritable_path_exits_3
    # covers the paths that cannot be opened, where nothing is removed
    def header_then_fail(fh, names, *args, **kwargs):
        fh.write(",".join(names) + "\n")
        raise error("disk full")

    monkeypatch.setattr("credo.synth.write_csv", header_then_fail)
    argv = ["synth", "-o", str(tmp_path / "x.csv"), "--rows", "200"]
    if error is OSError:
        assert main(argv) == 3
        assert f"cannot write {tmp_path / 'x.csv'}: disk full" in capsys.readouterr().err
    else:
        with pytest.raises(RuntimeError, match="disk full"):
            main(argv)
    assert list(tmp_path.iterdir()) == []


def test_explain_missing_archive_exits_3(tmp_path, data_csv, capsys):
    rc = main(
        ["explain", "-m", "lime", "-a", str(tmp_path / "ghost"), "-d", data_csv]
    )
    assert rc == 3
    assert "manifest" in capsys.readouterr().err


def _drop_bias(manifest, shapes):
    del shapes["bias"]


def _drop_param(manifest, shapes):
    del manifest["params"]["n_iter"]


def _transpose_weights(manifest, shapes):
    shapes["weights"] = shapes["weights"][::-1]


def _drop_schema(manifest, shapes):
    del manifest["schema"]


def _drop_schema_key(key):
    return lambda manifest, shapes: manifest["schema"].pop(key)


def _edit_schema_hash(manifest, shapes):
    manifest["schema_hash"] = "0" * 16


def _features_not_a_list(manifest, shapes):
    manifest["schema"]["features"] = 5


def _set_shape(shape):
    def tamper(manifest, shapes):
        shapes["weights"] = shape(shapes["weights"]) if callable(shape) else shape
    return tamper


def _array_outside_archive(manifest, shapes):
    shapes["../x"] = shapes.pop("bias")


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_drop_bias, "missing array bias"),
        (_drop_param, "missing param n_iter"),
        (_transpose_weights, "must be (features, classes)"),
        (_drop_schema, "missing manifest key schema"),
        (_drop_schema_key("features"), "missing schema key features"),
        (_drop_schema_key("classes"), "missing schema key classes"),
        (_drop_schema_key("target"), "missing schema key target"),
        (_edit_schema_hash, "schema_hash does not match"),
        (_features_not_a_list, "archive schema.features: expected a list"),
        (_set_shape("x"), "shape 'x', not a list of sizes"),
        (_set_shape({"a": 1}), "shape {'a': 1}, not a list of sizes"),
        # two negative sizes whose product is the file's value count
        (_set_shape(lambda sizes: [-1, -sizes[0] * sizes[1]]), "not a list of sizes"),
        (_array_outside_archive, "array name '../x' is not a plain file name"),
    ],
    ids=[
        "missing_array",
        "missing_param",
        "reshaped_weights",
        "missing_schema",
        "missing_features",
        "missing_classes",
        "missing_target",
        "edited_schema_hash",
        "features_not_a_list",
        "shape_a_string",
        "shape_an_object",
        "negative_sizes",
        "name_outside_archive",
    ],
)
def test_explain_broken_archive_exits_3(tmp_path, data_csv, capsys, tamper, message):
    assert main(["run", "-c", write_config(tmp_path, data_csv, model={"name": "logreg"})]) == 0
    out = tmp_path / "out"
    files = [out / "model" / "manifest.json", out / "model" / "shapes.json"]
    manifest, shapes = (json.loads(p.read_text()) for p in files)
    tamper(manifest, shapes)
    for path, data in zip(files, (manifest, shapes)):
        path.write_text(json.dumps(data))
    archive = ["-a", str(out / "model"), "-d", str(out / "processed_test.csv")]
    rc = main(["explain", "-m", "lime", *archive, "--out", str(tmp_path / "exp")])
    assert rc == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("change", [-1, 1], ids=["cut", "padded"])
def test_explain_gbt_archive_with_a_wrong_tree_array_exits_3(tmp_path, data_csv, capsys, change):
    model = {"name": "gbt", "params": {"rounds": 2, "max_depth": 2}}
    assert main(["run", "-c", write_config(tmp_path, data_csv, model=model)]) == 0
    out = tmp_path / "out"
    weights, shapes_path = out / "model" / "tree_weight.f64", out / "model" / "shapes.json"
    raw = weights.read_bytes()
    weights.write_bytes(raw[:-8] if change < 0 else raw + raw[-8:])  # one double less or more
    shapes = json.loads(shapes_path.read_text())
    shapes["tree_weight"][0] += change
    shapes_path.write_text(json.dumps(shapes))
    archive = ["-a", str(out / "model"), "-d", str(out / "processed_test.csv")]
    rc = main(["explain", "-m", "lime", *archive, "--out", str(tmp_path / "exp")])
    assert rc == 3
    assert "disagree with tree_sizes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, field, node",
    [("gbt", "feature", 0), ("tree", "feature", 0), ("gbt", "left", 1)],
    ids=["feature_past_width", "cart_feature_past_width", "child_to_ancestor"],
)
def test_explain_archive_with_a_bad_tree_node_exits_3(tmp_path, data_csv, capsys, model, field, node):
    params = {"rounds": 2, "max_depth": 2} if model == "gbt" else {"max_depth": 2}
    assert main(["run", "-c", write_config(tmp_path, data_csv, model={"name": model, "params": params})]) == 0
    model_dir = tmp_path / "out" / "model"
    width = len(json.loads((model_dir / "manifest.json").read_text())["schema"]["features"])
    prefix = "tree_" if model == "gbt" else ""
    assert (np.fromfile(model_dir / f"{prefix}feature.f64", dtype="<f8")[: node + 1] >= 0).all()
    path = model_dir / f"{prefix}{field}.f64"
    values = np.fromfile(path, dtype="<f8")
    values[node] = width if field == "feature" else 0  # node 1 is the root's left child
    values.tofile(path)
    archive = ["-a", str(model_dir), "-d", str(tmp_path / "out" / "processed_test.csv")]
    rc = main(["explain", "-m", "lime", *archive, "--out", str(tmp_path / "exp")])
    assert rc == 3
    assert f"do not form a preorder tree over {width} features" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, field, message",
    [("logreg", "weights", "array weights holds a non-finite value"),
     ("tree", "threshold", "NaN threshold at an inner node")],
    ids=["logreg_weight", "cart_root_threshold"],
)
def test_explain_archive_with_a_nan_exits_3(tmp_path, data_csv, capsys, model, field, message):
    assert main(["run", "-c", write_config(tmp_path, data_csv, model={"name": model})]) == 0
    model_dir = tmp_path / "out" / "model"
    path = model_dir / f"{field}.f64"
    values = np.fromfile(path, dtype="<f8")
    values[0] = np.nan  # the weight of feature 0, or the root's threshold
    values.tofile(path)
    archive = ["-a", str(model_dir), "-d", str(tmp_path / "out" / "processed_test.csv")]
    rc = main(["explain", "-m", "lime", *archive, "--out", str(tmp_path / "exp")])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


def _set_first(value):
    def edit(values):
        values.flat[0] = value
        return values
    return edit


IMPOSSIBLE_VALUES = {
    "tree_counts_cut": ("tree", "counts", lambda a: a[:-1], "must be one row per node"),
    "tree_count_negative": ("tree", "counts", _set_first(-1.0), "counts must be non-negative"),
    "gnb_prior_negative": ("gnb", "priors", _set_first(-0.5), "priors must lie in [0, 1]"),
    "gnb_prior_extra": ("gnb", "priors", lambda a: np.append(a, 0.0), "priors (4,) one entry per class"),
    "gnb_variance_zero": ("gnb", "variances", _set_first(0.0), "variances must be positive"),
    "gnb_variance_negative": ("gnb", "variances", _set_first(-1.0), "variances must be positive"),
    "logreg_bias_long": ("logreg", "bias", lambda a: np.append(a, 0.0), "bias (4,) one entry per class"),
    "lda_prior_negative": ("lda", "class_priors", _set_first(-0.5), "class priors must lie in [0, 1]"),
    "lda_class_means_cut": ("lda", "class_means", lambda a: a[:, :-1], "class_means (3, 12) must be (3, 13)"),
    "lda_components_cut": ("lda", "components", lambda a: a[:-1], "components (12, 2) must be (13, 2)"),
    "lda_n_train_class_count": ("lda", "params.n_train", lambda n: 3, "n_train must exceed the class count 3"),
    "lda_ridge_negative": ("lda", "params.ridge", lambda r: -1.0, "archive params.ridge: must be >= 0, got -1.0"),
    "gbt_learning_rate_nan": (
        "gbt", "params.learning_rate", lambda r: float("nan"), "params.learning_rate: expected a finite number"
    ),
    "gbt_learning_rate_huge": (
        "gbt", "params.learning_rate", lambda r: 1e308, "archive params.learning_rate: must be in (0, 1], got 1e+308"
    ),
    "xgdnn_booster_learning_rate_nan": (
        "xgdnn", "params.booster.learning_rate", lambda r: float("nan"), "params.booster.learning_rate: expected a finite number"
    ),
}
# small fits of the slower families; a name's params are {} otherwise
SMALL_PARAMS = {
    "gbt": {"rounds": 2, "max_depth": 2},
    "xgdnn": {"gbt": {"rounds": 2, "max_depth": 2}, "mlp": {"hidden": [4], "epochs": 2}},
}


@pytest.mark.parametrize(
    "model, name, edit, message", IMPOSSIBLE_VALUES.values(), ids=IMPOSSIBLE_VALUES.keys()
)
def test_explain_archive_with_an_impossible_value_exits_3(
    tmp_path, data_csv, capsys, model, name, edit, message
):
    entry = {"name": model, "params": SMALL_PARAMS.get(model, {})}
    assert main(["run", "-c", write_config(tmp_path, data_csv, model=entry)]) == 0
    model_dir = tmp_path / "out" / "model"
    if name.startswith("params."):  # a manifest param, by its dotted path
        manifest = json.loads((model_dir / "manifest.json").read_text())
        *outer, key = name.split(".")
        table = manifest
        for part in outer:
            table = table[part]
        table[key] = edit(table[key])
        (model_dir / "manifest.json").write_text(json.dumps(manifest))
    else:
        path = model_dir / f"{name}.f64"
        shapes = json.loads((model_dir / "shapes.json").read_text())
        values = edit(np.fromfile(path, dtype="<f8").reshape(shapes[name]))
        values.tofile(path)
        shapes[name] = list(values.shape)
        (model_dir / "shapes.json").write_text(json.dumps(shapes))
    archive = ["-a", str(model_dir), "-d", str(tmp_path / "out" / "processed_test.csv")]
    rc = main(["explain", "-m", "lime", *archive, "--out", str(tmp_path / "exp")])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


# manifest values of the wrong JSON type in a logreg archive, each of which
# once loaded as a nearby value of the right type
WRONG_TYPED_VALUES = {
    "converged_a_string": ("params.converged", "no", "archive params.converged: expected true or false"),
    "n_iter_fractional": ("params.n_iter", 2.7, "archive params.n_iter: expected an integer"),
    "n_iter_a_string": ("params.n_iter", "150", "archive params.n_iter: expected an integer"),
    "n_iter_a_bool": ("params.n_iter", True, "archive params.n_iter: expected an integer"),
    "format_version_a_bool": ("format_version", True, "archive format_version: expected an integer"),
    "format_version_a_float": ("format_version", 1.0, "archive format_version: expected an integer"),
}


@pytest.mark.parametrize("key, value, message", WRONG_TYPED_VALUES.values(), ids=WRONG_TYPED_VALUES.keys())
def test_explain_archive_with_a_wrong_typed_value_exits_3(tmp_path, data_csv, capsys, key, value, message):
    assert main(["run", "-c", write_config(tmp_path, data_csv, model={"name": "logreg"})]) == 0
    model_dir = tmp_path / "out" / "model"
    manifest = json.loads((model_dir / "manifest.json").read_text())
    *outer, last = key.split(".")
    table = manifest
    for part in outer:
        table = table[part]
    table[last] = value
    (model_dir / "manifest.json").write_text(json.dumps(manifest))
    archive = ["-a", str(model_dir), "-d", str(tmp_path / "out" / "processed_test.csv")]
    rc = main(["explain", "-m", "lime", *archive, "--out", str(tmp_path / "exp")])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


def test_run_archives_an_integer_float_param_so_it_reloads_bit_exactly(tmp_path, data_csv):
    params = {"rounds": 2, "max_depth": 2, "learning_rate": 1, "lam": 2}
    assert main(["run", "-c", write_config(tmp_path, data_csv, model={"name": "gbt", "params": params})]) == 0
    first = tmp_path / "out" / "model"
    model, manifest = load_model(first)
    save_model(model, tmp_path / "again", manifest["schema"]["classes"], manifest["schema"]["target"])
    assert sorted(p.name for p in first.iterdir()) == sorted(p.name for p in (tmp_path / "again").iterdir())
    for path in first.iterdir():
        assert path.read_bytes() == (tmp_path / "again" / path.name).read_bytes(), path.name
    assert (manifest["params"]["learning_rate"], manifest["params"]["lam"]) == (1.0, 2.0)
    # the report echoes the params as the config gave them
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["model"]["params"] == params


@pytest.mark.parametrize("name", ["manifest.json", "shapes.json"])
def test_explain_archive_json_that_is_not_an_object_exits_3(tmp_path, data_csv, capsys, name):
    assert main(["run", "-c", write_config(tmp_path, data_csv)]) == 0
    model_dir = tmp_path / "out" / "model"
    (model_dir / name).write_text("[1, 2]")
    archive = ["-a", str(model_dir), "-d", str(tmp_path / "out" / "processed_test.csv")]
    rc = main(["explain", "-m", "lime", *archive, "--out", str(tmp_path / "exp")])
    assert rc == 3
    assert "must hold JSON objects" in capsys.readouterr().err


def _not_utf8(line: bytes) -> bytes:
    return b"caf\xe9" + line  # a Latin-1 e-acute


def _field_past_limit(line: bytes) -> bytes:
    return b'"' + b"x" * (csv.field_size_limit() + 1) + b'"' + line[line.index(b","):]


@pytest.mark.parametrize("command", ["run", "compare", "explain"])
@pytest.mark.parametrize(
    "damage, message",
    [(_not_utf8, "line 50: not UTF-8"), (_field_past_limit, "line 50: field larger than field limit")],
    ids=["latin1_byte", "field_past_limit"],
)
def test_unreadable_csv_exits_3_naming_its_line(tmp_path, data_csv, capsys, command, damage, message):
    source = Path(data_csv)
    if command == "explain":
        assert main(["run", "-c", write_config(tmp_path, data_csv)]) == 0
        source = tmp_path / "out" / "processed_test.csv"
    lines = source.read_bytes().split(b"\n")
    lines[49] = damage(lines[49])  # well inside the decoder's first buffer
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(lines))
    if command == "explain":
        argv = ["explain", "-m", "lime", "-a", str(tmp_path / "out" / "model"), "-d", str(bad)]
    else:
        argv = [command, "-c", write_config(tmp_path, str(bad), models=[{"name": "gnb"}])]
    assert main([*argv, "--out", str(tmp_path / "again")]) == 3
    err = capsys.readouterr().err
    assert f"{bad}: {message}" in err


def test_synth_writes_csv(tmp_path, capsys):
    out = tmp_path / "synth.csv"
    rc = main(
        [
            "synth",
            "-o",
            str(out),
            "--rows",
            "200",
            "--features",
            "6",
            "--classes",
            "4",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    assert out.is_file()
    header = out.read_text().splitlines()[0]
    assert header.count(",") == 6  # 6 features + target
    assert "wrote 200 rows x 7 columns" in capsys.readouterr().out


def test_synth_flag_defaults_are_the_spec_defaults(tmp_path):
    assert main(["synth", "-o", str(tmp_path / "a.csv"), "--rows", "200"]) == 0
    write_synthetic(str(tmp_path / "b.csv"), SynthSpec(rows=200))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_python_dash_m_runs_synth(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "synth.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "credo", "synth", "-o", str(out), "--rows", "40", "--features", "4",
         "--classes", "2", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 40 rows x 5 columns" in proc.stdout
    assert out.read_text().splitlines()[0] == "num_00,cat_0,cat_1,cat_2,status"


# scipy.linalg and scipy.special, with the numpy.f2py they pull in, cost about
# 0.34 s and 26 MB per process (scipy 1.17, 2-core Xeon); credo computes with
# numpy and the stdlib alone, so no command loads them
SCIPY_FREE = "import sys\nassert not [m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.f2py')], sorted(sys.modules)\n"


def _probe(code: str) -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["credo", "credo.cli"])
def test_import_loads_no_scipy(module):
    _probe(f"import {module}\n" + SCIPY_FREE)


def test_synth_loads_no_scipy(tmp_path):
    argv = ["synth", "-o", str(tmp_path / "x.csv"), "--rows", "200", "--seed", "1"]
    _probe(f"from credo.cli import main\nassert main({argv!r}) == 0\n" + SCIPY_FREE)


@pytest.mark.parametrize(
    "model", [{"name": "lda"}, {"name": "xgdnn", "params": {"gbt": {"rounds": 2, "max_depth": 2}}}],
    ids=["lda", "xgdnn"],
)
def test_explain_loads_no_scipy(tmp_path, data_csv, model):
    assert main(["run", "-c", write_config(tmp_path, data_csv, model=model)]) == 0
    out = tmp_path / "out"
    archive = ["-a", str(out / "model"), "-d", str(out / "processed_test.csv")]
    calls = [["explain", "-m", method, *archive, "--out", str(tmp_path / method)]
             for method in ("lime", "morris")]
    _probe(f"from credo.cli import main\nassert [main(a) for a in {calls!r}] == [0, 0]\n" + SCIPY_FREE)
    assert (tmp_path / "lime" / "explanations").is_dir()
    assert (tmp_path / "morris" / "explanations" / "morris.json").is_file()


def test_run_with_lda_and_h_measure_loads_no_scipy(tmp_path, data_csv):
    cfg = write_config(tmp_path, data_csv, lda={"enabled": True}, metrics=["h_measure"])
    _probe(f"from credo.cli import main\nassert main({['run', '-c', cfg]!r}) == 0\n" + SCIPY_FREE)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["preprocessing"]["lda"]["n_components_used"] >= 1 and report["metrics"]["values"]["h_measure"] > 0


def test_compare_loads_no_scipy(tmp_path, data_csv):
    cfg = write_config(tmp_path, data_csv, models=[{"name": "gnb"}, {"name": "lda"}])
    _probe(f"from credo.cli import main\nassert main({['compare', '-c', cfg]!r}) == 0\n" + SCIPY_FREE)
    rows = json.loads((tmp_path / "out" / "compare.json").read_text())["rows"]
    assert len(rows) == 4 and all(r["error"] is None and r["values"]["h_measure"] > 0 for r in rows)


def test_no_credo_module_imports_scipy():
    src = Path(__file__).resolve().parent.parent / "src" / "credo"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy"]
    assert not found


def test_logreg_on_unscaled_huge_features_exits_4(tmp_path, capsys):
    data = tmp_path / "big.csv"
    rows = [f"{1e156 if i % 3 == 0 else -1e156!r},{i * 0.25},{'bad' if i % 3 == 0 else 'good'}" for i in range(12)]
    data.write_text("\n".join(["big,x,status", *rows]) + "\n")
    cfg = write_config(tmp_path, str(data), model={"name": "logreg"}, scaler="none", smote={"enabled": False})
    assert main(["run", "-c", cfg]) == 4
    err = capsys.readouterr().err
    assert "stage 'fit'" in err and "1e+156" in err and "scaler" in err
    assert not (tmp_path / "out").exists()


def test_synth_rejects_impossible_spec(tmp_path, capsys):
    rc = main(["synth", "-o", str(tmp_path / "x.csv"), "--rows", "20", "--classes", "10"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "params",
    [
        {"learning_rate": 1.0},
        {"learning_rate": 1.0, "min_child_weight": 0},
        {"learning_rate": 0.5, "min_child_weight": 0},
    ],
    ids=["lr1", "lr1_mcw0", "lr05_mcw0"],
)
def test_gbt_lam_zero_at_a_saturated_node_exits_4(tmp_path, capsys, params):
    data = tmp_path / "data.csv"
    write_synthetic(str(data), SynthSpec(rows=300, seed=1))
    cfg = write_config(
        tmp_path,
        str(data),
        smote={"enabled": False},
        model={"name": "gbt", "params": {"rounds": 30, "lam": 0, "max_depth": 6, **params}},
    )
    assert main(["run", "-c", cfg]) == 4
    err = capsys.readouterr().err
    assert "stage 'fit'" in err and "lam" in err


# ------------------------------------------------------------- BLAS threads
# Every command runs numpy's BLAS on one thread, gives the caller back the
# count it had, and writes the bytes it writes at any other count.


def test_a_command_runs_on_one_thread(monkeypatch, two_blas_threads):
    seen = []
    monkeypatch.setitem(credo.cli._DISPATCH, "synth", lambda args: seen.append(blas.describe()["threads"]) or 0)
    assert main(["synth", "-o", "never-written.csv"]) == 0
    assert seen == [1]


@pytest.mark.parametrize("outcome", ["exit 0", "exit 2", "exit 3", "unexpected error"])
def test_main_restores_the_callers_thread_count(outcome, tmp_path, data_csv, monkeypatch, two_blas_threads):
    if outcome == "exit 0":
        assert main(["run", "-c", write_config(tmp_path, data_csv)]) == 0
    elif outcome == "exit 2":
        assert main(["run", "-c", str(tmp_path / "absent.json")]) == 2
    elif outcome == "exit 3":
        assert main(["run", "-c", write_config(tmp_path, str(tmp_path / "absent.csv"))]) == 3
    else:
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(credo.cli._DISPATCH, "run", boom)
        with pytest.raises(RuntimeError, match="boom"):
            main(["run", "-c", "unused.json"])
    assert blas.describe()["threads"] == 2


def test_overlapping_commands_run_on_one_thread_and_restore_the_count(monkeypatch, two_blas_threads):
    # command a enters, then b; a returns while b's body still runs
    entered = {"a": threading.Event(), "b": threading.Event()}
    a_returned = threading.Event()
    seen, codes = {}, []

    def body(args):
        entered[args.output].set()
        (entered["b"] if args.output == "a" else a_returned).wait(10)
        seen[args.output] = blas.describe()["threads"]
        return 0

    def command(name):
        codes.append(main(["synth", "-o", name]))
        if name == "a":
            a_returned.set()

    monkeypatch.setitem(credo.cli._DISPATCH, "synth", body)
    threads = [threading.Thread(target=command, args=(name,)) for name in ("a", "b")]
    threads[0].start()
    assert entered["a"].wait(10)
    threads[1].start()
    for t in threads:
        t.join(20)
        assert not t.is_alive()
    assert codes == [0, 0]
    assert seen == {"a": 1, "b": 1}
    assert blas.describe()["threads"] == 2


def test_a_failed_lookup_leaves_commands_running(tmp_path, data_csv, monkeypatch):
    monkeypatch.setattr(blas, "_API", blas._lookup([("no_such_blas", "")]))
    assert blas._API is None
    assert main(["run", "-c", write_config(tmp_path, data_csv)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["blas"] == {"kernel": "unknown", "threads": None}


def test_compare_writes_the_bytes_of_the_default_thread_count(tmp_path, data_csv, two_blas_threads):
    models = [{"name": "logreg", "params": {"max_iter": 30}}, {"name": "lda"},
              {"name": "mlp", "params": {"hidden": [8], "epochs": 3}}]
    cfg = write_config(tmp_path, data_csv, models=models)
    assert main(["compare", "-c", cfg, "--out", str(tmp_path / "one")]) == 0
    resolved = resolve_config(load_config(cfg))
    credo.pipeline.cmd_compare(dataclasses.replace(resolved, out_dir=str(tmp_path / "two")))
    at_one, at_two = ((tmp_path / side / "compare.csv").read_bytes() for side in ("one", "two"))
    assert at_one == at_two


def test_python_dash_m_run_records_one_thread(tmp_path, data_csv):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "credo", "run", "-c", write_config(tmp_path, data_csv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads((tmp_path / "out" / "report.json").read_text())["blas"]
    if recorded["kernel"] == "unknown":
        assert recorded["threads"] is None
    else:
        assert recorded["threads"] == 1
