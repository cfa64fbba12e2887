"""Command line behavior: subcommands, overrides, exit codes."""

import json

import numpy as np
import pytest

from credo.cli import exit_code_for, main
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
}


@pytest.mark.parametrize("extra,path", OUT_OF_BOUNDS.values(), ids=OUT_OF_BOUNDS.keys())
def test_run_out_of_bound_value_exits_2_before_reading_data(tmp_path, capsys, extra, path):
    # the data file does not exist: exit 2 rather than 3 shows it was never opened
    cfg = write_config(tmp_path, str(tmp_path / "absent.csv"), **extra)
    assert main(["run", "-c", cfg]) == 2
    assert f"{path}:" in capsys.readouterr().err


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


def test_smote_before_split_flag(tmp_path, data_csv):
    cfg = write_config(tmp_path, data_csv)
    assert main(["run", "-c", cfg, "--smote-before-split"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["preprocessing"]["smote"]["path"] == "before_split"
    assert report["config"]["smote"]["before_split"] is True


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


def test_explain_missing_archive_exits_3(tmp_path, data_csv, capsys):
    rc = main(
        ["explain", "-m", "lime", "-a", str(tmp_path / "ghost"), "-d", data_csv]
    )
    assert rc == 3
    assert "manifest" in capsys.readouterr().err


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


def test_synth_rejects_impossible_spec(tmp_path, capsys):
    rc = main(["synth", "-o", str(tmp_path / "x.csv"), "--rows", "20", "--classes", "10"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
