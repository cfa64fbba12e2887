"""End-to-end orchestration: run, compare, and archive replay."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

import credo.pipeline
from credo.archive import load_model
from credo.config import _plain, resolve_config
from credo.errors import ConfigError, DataError, PipelineError
from credo.explain import LimeConfig, MorrisConfig
from credo.lda import LdaConfig
from credo.pipeline import (
    CompareCell,
    ComparisonTable,
    _write_outputs,
    cmd_compare,
    cmd_explain,
    cmd_run,
    prepare,
    run_pipeline,
)
from credo.resample import SmoteConfig
from credo.synth import SynthSpec, write_synthetic

SPEC = SynthSpec(
    rows=600,
    features=9,
    classes=4,
    imbalance=0.6,
    null_rate=0.03,
    separation=2.5,
    categorical=3,
    seed=5,
)


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "credit.csv"
    write_synthetic(str(path), SPEC)
    return str(path)


def make_cfg(data_csv, out_dir, **overrides):
    raw = {
        "data": data_csv,
        "target": "status",
        "model": {"name": "gnb"},
        "out_dir": str(out_dir),
    }
    raw.update(overrides)
    return resolve_config(raw)


# ------------------------------------------------------------- run_pipeline


def test_report_structure_and_row_accounting(data_csv, tmp_path):
    cfg = make_cfg(data_csv, tmp_path)
    outcome = run_pipeline(cfg)
    rep = outcome.report

    assert rep["config"] == _plain(cfg)
    rows = rep["preprocessing"]["rows"]
    assert rows["loaded"] == 600 - rows["dropped_missing_target"]
    sm = rep["preprocessing"]["smote"]
    assert sm["path"] == "after_split"
    # oversampling after the split touches only training rows
    assert rows["test"] + sum(sm["class_counts_before"]) == rows["loaded"]
    assert rows["train"] == sum(sm["class_counts_after"])
    flat = max(sm["class_counts_before"])
    assert sm["class_counts_after"] == [flat] * 4
    assert rep["preprocessing"]["class_names"] == ["c0", "c1", "c2", "c3"]
    assert rep["preprocessing"]["columns_dropped"] == []

    values = rep["metrics"]["values"]
    assert set(values) == {"accuracy", "sensitivity", "specificity", "g_mean", "h_measure", "f1"}
    for v in values.values():
        assert 0.0 <= v <= 1.0
    # separable clusters: far better than the 1-in-4 chance level
    assert values["accuracy"] > 0.6

    stages = [t["stage"] for t in rep["timings"]]
    assert stages == [
        "load",
        "drop_sparse",
        "impute",
        "encode",
        "split",
        "scale",
        "smote",
        "fit",
        "evaluate",
    ]
    assert rep["explanations"] == {"lime": [], "morris": None}


def test_smote_before_split_path(data_csv, tmp_path):
    cfg = make_cfg(data_csv, tmp_path, smote={"before_split": True})
    rep = run_pipeline(cfg).report
    sm = rep["preprocessing"]["smote"]
    assert sm["path"] == "before_split"
    flat = max(sm["class_counts_before"])
    assert sm["class_counts_after"] == [flat] * 4
    stages = [t["stage"] for t in rep["timings"]]
    assert stages.index("smote") < stages.index("split")


def test_smote_disabled_path(data_csv, tmp_path):
    cfg = make_cfg(data_csv, tmp_path, smote={"enabled": False})
    rep = run_pipeline(cfg).report
    sm = rep["preprocessing"]["smote"]
    assert sm["path"] == "disabled"
    assert sm["class_counts_before"] == sm["class_counts_after"]
    rows = rep["preprocessing"]["rows"]
    assert rows["train"] + rows["test"] == rows["loaded"]


def test_minmax_scaler_bounds_train(data_csv, tmp_path):
    cfg = make_cfg(data_csv, tmp_path, scaler="minmax", smote={"enabled": False})
    outcome = run_pipeline(cfg)
    X = outcome.train.matrix
    assert np.allclose(X.min(axis=0), 0.0)
    assert np.allclose(X.max(axis=0), 1.0)


def test_scaler_none_keeps_values(data_csv, tmp_path):
    cfg = make_cfg(data_csv, tmp_path, scaler="none", smote={"enabled": False})
    rep = run_pipeline(cfg).report
    assert "scale" not in [t["stage"] for t in rep["timings"]]


def test_lda_reduces_and_renames(data_csv, tmp_path):
    cfg = make_cfg(data_csv, tmp_path, lda={"enabled": True, "n_components": 2})
    outcome = run_pipeline(cfg)
    assert outcome.report["preprocessing"]["feature_names"] == ["LD1", "LD2"]
    summary = outcome.report["preprocessing"]["lda"]
    assert summary == {"enabled": True, "n_components_requested": 2, "n_components_used": 2}


def test_lda_clamp_is_reported_as_warning(data_csv, tmp_path):
    cfg = make_cfg(data_csv, tmp_path, lda={"enabled": True, "n_components": 11})
    rep = run_pipeline(cfg).report
    summary = rep["preprocessing"]["lda"]
    assert summary["n_components_requested"] == 11
    assert summary["n_components_used"] == 3  # classes - 1
    codes = [w["code"] for w in rep["warnings"]]
    assert "LDA_COMPONENTS_CLAMPED" in codes


def test_repeated_warnings_are_counted_once(data_csv, tmp_path, monkeypatch):
    import warnings

    import credo.zoo

    real = credo.zoo.fit_model

    def noisy(name, train, params, boosters):
        for message in ("overflow in exp", "overflow in exp", "slow start", "overflow in exp"):
            warnings.warn(message, RuntimeWarning)
        return real(name, train, params, boosters)

    monkeypatch.setattr("credo.pipeline.fit_model", noisy)
    rep = run_pipeline(make_cfg(data_csv, tmp_path)).report
    assert rep["warnings"] == [
        {"code": "EXTERNAL", "message": "overflow in exp", "count": 3},
        {"code": "EXTERNAL", "message": "slow start", "count": 1},
    ]


def test_determinism_across_runs(data_csv, tmp_path):
    cfg = make_cfg(data_csv, tmp_path, model={"name": "forest", "params": {"n_trees": 5}})
    a = run_pipeline(cfg)
    b = run_pipeline(cfg)
    assert a.report["metrics"] == b.report["metrics"]
    assert np.array_equal(a.train.matrix, b.train.matrix)


def test_explanations_flow_into_report(data_csv, tmp_path):
    cfg = make_cfg(
        data_csv,
        tmp_path,
        explain={
            "lime_rows": [0, 3],
            "lime": {"n_samples": 200},
            "morris": {"enabled": True, "n_trajectories": 4},
        },
    )
    outcome = run_pipeline(cfg)
    assert [e.row_index for e in outcome.lime_explanations] == [0, 3]
    rep = outcome.report["explanations"]
    assert len(rep["lime"]) == 2
    assert rep["lime"][0]["row_index"] == 0
    importances = [f["importance"] for f in rep["lime"][0]["features"]]
    assert abs(sum(importances) - 1.0) < 1e-9
    morris_names = [f["name"] for f in rep["morris"]["features"]]
    assert morris_names == outcome.report["preprocessing"]["feature_names"]


SECTION_VALUES = {
    SmoteConfig: {"k_neighbors": 3, "seed": 7},
    LdaConfig: {"n_components": 2, "ridge": 0.01},
    LimeConfig: {"n_samples": 300, "kernel_width": 1.5, "n_features": 2, "seed": 4},
    MorrisConfig: {"n_trajectories": 5, "n_levels": 6, "seed": 3},
}


def test_every_section_field_reaches_its_stage(data_csv, tmp_path, monkeypatch):
    for cls, values in SECTION_VALUES.items():  # each field set, none to its default
        fields = dataclasses.fields(cls)
        assert sorted(values) == sorted(f.name for f in fields), cls
        assert all(values[f.name] != f.default for f in fields), cls
    received = {cls: [] for cls in SECTION_VALUES}

    def spy(name, cls, pick):
        real = getattr(credo.pipeline, name)

        def record(*args, **kwargs):
            received[cls].append(pick(args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(f"credo.pipeline.{name}", record)

    spy("smote", SmoteConfig, lambda args, kwargs: args[1])
    spy("fit_lda", LdaConfig, lambda args, kwargs: args[1])
    spy("lime_explain", LimeConfig, lambda args, kwargs: args[4])
    spy("morris_screen", MorrisConfig, lambda args, kwargs: kwargs["cfg"])
    cfg = make_cfg(
        data_csv,
        tmp_path,
        smote={"enabled": True, **SECTION_VALUES[SmoteConfig]},
        lda={"enabled": True, **SECTION_VALUES[LdaConfig]},
        explain={
            "lime_rows": [0],
            "lime": SECTION_VALUES[LimeConfig],
            "morris": {"enabled": True, **SECTION_VALUES[MorrisConfig]},
        },
    )
    run_pipeline(cfg)
    # each stage receives the very section object the config resolved to
    sections = {SmoteConfig: cfg.smote, LdaConfig: cfg.lda, LimeConfig: cfg.explain.lime, MorrisConfig: cfg.explain.morris}
    for cls, values in SECTION_VALUES.items():
        assert len(received[cls]) == 1 and received[cls][0] is sections[cls], cls
        assert {name: getattr(sections[cls], name) for name in values} == values, cls


def test_lime_row_out_of_range(data_csv, tmp_path):
    cfg = make_cfg(data_csv, tmp_path, explain={"lime_rows": [10_000]})
    with pytest.raises(PipelineError, match="stage 'explain'") as exc:
        run_pipeline(cfg)
    assert isinstance(exc.value.cause, DataError)
    assert "out of range" in str(exc.value)


def test_a_level_only_on_dropped_rows_gets_no_column(tmp_path):
    # g=z occurs only on the row whose target is missing; h=r occurs on kept rows too
    rows = "".join(f"{'ab'[i % 2]},{'rs'[i % 3 > 0]},{i},{'pq'[i % 2]}\n" for i in range(1, 9))
    path = tmp_path / "levels.csv"
    path.write_text("g,h,x,status\nz,r,0,NA\n" + rows)
    cfg = make_cfg(str(path), tmp_path, smote={"enabled": False}, scaler="none")
    train, test, info = prepare(cfg, [])
    assert info["rows"]["dropped_missing_target"] == 1
    assert train.column_names == ("g=a", "g=b", "h=r", "h=s", "x")
    assert info["class_names"] == ["p", "q"]


def test_missing_data_file_fails_in_load(tmp_path):
    cfg = make_cfg(str(tmp_path / "absent.csv"), tmp_path)
    with pytest.raises(PipelineError, match="stage 'load'") as exc:
        run_pipeline(cfg)
    assert isinstance(exc.value.cause, DataError)


def test_stage_failure_names_fit(data_csv, tmp_path, monkeypatch):
    def boom(name, train, params, boosters):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr("credo.pipeline.fit_model", boom)
    cfg = make_cfg(data_csv, tmp_path)
    with pytest.raises(PipelineError, match="stage 'fit' failed: solver exploded"):
        run_pipeline(cfg)


# ----------------------------------------------------------------- cmd_run


def test_cmd_run_writes_deliverables(data_csv, tmp_path):
    cfg = make_cfg(
        data_csv,
        tmp_path / "out",
        explain={"lime_rows": [1], "lime": {"n_samples": 200}, "morris": {"enabled": True, "n_trajectories": 4}},
    )
    outcome, out = cmd_run(cfg)

    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["values"] == outcome.report["metrics"]["values"]

    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "metric,value"
    parsed = dict(line.split(",") for line in lines[1:])
    for name, text in parsed.items():
        assert float(text) == getattr(outcome.metrics, name)

    train_csv = (out / "processed_train.csv").read_text().splitlines()
    assert train_csv[0].endswith(",status")
    assert len(train_csv) - 1 == outcome.train.n_rows

    assert (out / "explanations" / "lime_row1.json").is_file()
    assert (out / "explanations" / "lime_row1.csv").read_text().startswith("feature,score")
    assert (out / "explanations" / "morris.json").is_file()

    model, manifest = load_model(out / "model")
    assert manifest["schema"]["target"] == "status"
    assert manifest["schema"]["features"] == list(outcome.train.column_names)
    X = outcome.test.matrix
    assert np.array_equal(model.predict_proba(X), outcome.model.predict_proba(X))


def test_cmd_run_metrics_csv_is_byte_identical(data_csv, tmp_path):
    cfg_a = make_cfg(data_csv, tmp_path / "a")
    cfg_b = make_cfg(data_csv, tmp_path / "b")
    _, out_a = cmd_run(cfg_a)
    _, out_b = cmd_run(cfg_b)
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (
        (out_a / "processed_train.csv").read_bytes()
        == (out_b / "processed_train.csv").read_bytes()
    )


def test_cmd_run_cleans_up_after_write_failure(data_csv, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("credo.pipeline.save_model", boom)
    cfg = make_cfg(data_csv, tmp_path / "out")
    with pytest.raises(PipelineError, match="stage 'write'"):
        cmd_run(cfg)
    leftover = list((tmp_path / "out").rglob("*")) if (tmp_path / "out").exists() else []
    assert leftover == []


def test_cmd_run_removes_partly_written_csv(data_csv, tmp_path, monkeypatch):
    def header_then_fail(fh, header, *args, **kwargs):
        fh.write(",".join(header) + "\n")
        raise OSError("disk full")

    monkeypatch.setattr("credo.pipeline.write_csv", header_then_fail)
    cfg = make_cfg(data_csv, tmp_path / "out")
    with pytest.raises(PipelineError, match="stage 'write'"):
        cmd_run(cfg)
    leftover = list((tmp_path / "out").rglob("*")) if (tmp_path / "out").exists() else []
    assert leftover == []


@pytest.mark.parametrize("out_exists", [False, True])
def test_write_failure_removes_only_directories_it_created(tmp_path, out_exists):
    out = tmp_path / "out"
    if out_exists:
        out.mkdir()

    def outputs():
        yield out / "explanations" / "a.json", "{}"
        raise OSError("disk full")

    with pytest.raises(PipelineError, match="stage 'write'"):
        _write_outputs(outputs())
    assert out.exists() == out_exists
    assert not (out / "explanations").exists()
    assert list(tmp_path.iterdir()) == ([out] if out_exists else [])


# ------------------------------------------------------------- cmd_compare


def test_compare_grid_and_consistency_with_run(data_csv, tmp_path):
    cfg = make_cfg(
        data_csv,
        tmp_path / "cmp",
        models=[{"name": "gnb"}, {"name": "tree", "params": {"max_depth": 4}}],
        metrics=["accuracy", "g_mean"],
    )
    table, out = cmd_compare(cfg)

    assert [(c.model, c.with_lda) for c in table.rows] == [
        ("gnb", False),
        ("tree", False),
        ("gnb", True),
        ("tree", True),
    ]
    assert all(c.error is None for c in table.rows)

    # the lda-off gnb cell must reproduce a plain run of the same config
    single = make_cfg(data_csv, tmp_path / "single", metrics=["accuracy", "g_mean"])
    outcome = run_pipeline(single)
    cell = table.rows[0]
    assert cell.values["accuracy"] == outcome.metrics.accuracy
    assert cell.values["g_mean"] == outcome.metrics.g_mean

    text = (out / "compare.csv").read_text()
    assert text.splitlines()[0] == "model,lda,accuracy,g_mean,error"
    assert json.loads((out / "compare.json").read_text())["metrics"] == ["accuracy", "g_mean"]


def test_compare_keeps_going_after_one_model_fails(data_csv, tmp_path, monkeypatch):
    import credo.zoo

    real = credo.zoo.fit_model

    def flaky(name, train, params, boosters=None):
        if name == "tree":
            raise RuntimeError("no splits today")
        return real(name, train, params)

    monkeypatch.setattr("credo.pipeline.fit_model", flaky)
    cfg = make_cfg(
        data_csv,
        tmp_path / "cmp",
        models=[{"name": "gnb"}, {"name": "tree"}],
        metrics=["accuracy"],
    )
    table, _ = cmd_compare(cfg)
    by_key = {(c.model, c.with_lda): c for c in table.rows}
    assert by_key[("gnb", False)].error is None
    assert "no splits today" in by_key[("tree", False)].error
    assert by_key[("tree", False)].values is None
    assert by_key[("gnb", True)].error is None


def test_compare_prepares_once(data_csv, tmp_path, monkeypatch):
    import credo.pipeline

    calls = {"load_csv": 0, "smote": 0, "fit_lda": 0}
    for name in calls:
        real = getattr(credo.pipeline, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(f"credo.pipeline.{name}", counted)
    cfg = make_cfg(
        data_csv, tmp_path / "cmp", models=[{"name": "gnb"}, {"name": "tree"}], metrics=["accuracy"]
    )
    table, _ = cmd_compare(cfg)
    assert all(c.error is None for c in table.rows)
    assert calls == {"load_csv": 1, "smote": 1, "fit_lda": 1}


def _count_booster_fits(monkeypatch) -> list:
    """Record the config of every fit_gbt call, from the zoo or the hybrid."""
    import credo.neural
    import credo.zoo

    calls = []
    for module in (credo.zoo, credo.neural):
        def counted(train, cfg=None, _real=module.fit_gbt):
            calls.append(cfg)
            return _real(train, cfg)

        monkeypatch.setattr(module, "fit_gbt", counted)
    return calls


@pytest.mark.parametrize(
    "hybrid_gbt, fits",
    [({"rounds": 3, "max_depth": 2}, 2), ({"rounds": 2, "max_depth": 2}, 4)],
    ids=["equal", "different"],
)
def test_compare_fits_each_booster_once_per_setting(data_csv, tmp_path, monkeypatch, hybrid_gbt, fits):
    calls = _count_booster_fits(monkeypatch)
    xgdnn = {"name": "xgdnn", "params": {"gbt": hybrid_gbt, "mlp": {"hidden": [8], "epochs": 3}}}
    metrics = ["accuracy", "g_mean", "h_measure"]
    cfg = make_cfg(
        data_csv,
        tmp_path / "cmp",
        models=[{"name": "gbt", "params": {"rounds": 3, "max_depth": 2}}, xgdnn],
        metrics=metrics,
    )
    table, _ = cmd_compare(cfg)
    assert all(c.error is None for c in table.rows)
    assert len(calls) == fits

    # a shared booster changes no xgdnn value against a run of its own
    for cell in table.rows[1::2]:
        single = make_cfg(
            data_csv, tmp_path / "single", model=xgdnn, lda={"enabled": cell.with_lda}, metrics=metrics
        )
        outcome = run_pipeline(single)
        assert cell.model == "xgdnn"
        assert cell.values == {m: getattr(outcome.metrics, m) for m in metrics}


def test_compare_refits_a_failed_booster_and_fails_alike(data_csv, tmp_path, monkeypatch):
    calls = _count_booster_fits(monkeypatch)

    def boom(train, cfg=None):
        calls.append(cfg)
        raise RuntimeError("no boosting today")

    monkeypatch.setattr("credo.zoo.fit_gbt", boom)
    gbt = {"rounds": 3, "max_depth": 2}
    cfg = make_cfg(
        data_csv,
        tmp_path / "cmp",
        models=[{"name": "gbt", "params": gbt}, {"name": "xgdnn", "params": {"gbt": gbt}}],
        metrics=["accuracy"],
    )
    table, _ = cmd_compare(cfg)
    assert [c.error for c in table.rows] == ["stage 'fit' failed: no boosting today"] * 4
    assert len(calls) == 4  # a failure is not remembered


def test_compare_lda_failure_marks_only_reduced_cells(data_csv, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("no projection today")

    monkeypatch.setattr("credo.pipeline.fit_lda", boom)
    cfg = make_cfg(
        data_csv, tmp_path / "cmp", models=[{"name": "gnb"}, {"name": "tree"}], metrics=["accuracy"]
    )
    table, _ = cmd_compare(cfg)
    assert [c.error for c in table.rows if not c.with_lda] == [None, None]
    assert [c.error for c in table.rows if c.with_lda] == [
        "stage 'lda' failed: no projection today"
    ] * 2


def test_compare_csv_renders_every_cell(data_csv, tmp_path):
    cfg = make_cfg(data_csv, tmp_path / "cmp", metrics=["accuracy", "f1"])
    table, out = cmd_compare(cfg)
    text = table.to_csv()
    header, *records = csv.reader(io.StringIO(text))
    assert header == ["model", "lda", *table.metric_names, "error"]
    assert [(r[0], r[1], r[-1]) for r in records] == [
        (c.model, "on" if c.with_lda else "off", "") for c in table.rows
    ]
    for cell, record in zip(table.rows, records):
        for m, rendered in zip(table.metric_names, record[2:-1]):
            assert float(rendered) / 100.0 == pytest.approx(cell.values[m], abs=5e-5)
    # a second render is stable, and it is the file written
    assert table.to_csv() == text == (out / "compare.csv").read_text()


def test_compare_csv_renders_error_rows():
    table = ComparisonTable(
        ("accuracy",),
        (
            CompareCell("gnb", False, {"accuracy": 0.912345}, None),
            CompareCell("mlp", True, None, "stage 'fit' failed: nope"),
        ),
    )
    assert table.to_csv() == (
        "model,lda,accuracy,error\ngnb,off,91.23,\nmlp,on,,stage 'fit' failed: nope\n"
    )


# ------------------------------------------------------------- cmd_explain


@pytest.fixture(scope="module")
def run_artifacts(data_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = make_cfg(data_csv, out)
    outcome, out_path = cmd_run(cfg)
    return outcome, out_path


def test_report_config_resolves_to_the_runs_config(run_artifacts):
    outcome, out = run_artifacts
    report = json.loads((out / "report.json").read_text())
    assert resolve_config(report["config"]) == outcome.config


def test_cmd_explain_lime_from_archive(run_artifacts, tmp_path):
    _, run_out = run_artifacts
    result = cmd_explain(
        archive_dir=str(run_out / "model"),
        data_path=str(run_out / "processed_test.csv"),
        method="lime",
        row=2,
        out_dir=str(tmp_path),
        seed=1,
    )
    exp = result["explanation"]
    assert exp.row_index == 2
    assert abs(sum(exp.importances) - 1.0) < 1e-9
    data = json.loads((tmp_path / "explanations" / "lime_row2.json").read_text())
    assert data["seed"] == 1
    again = cmd_explain(
        archive_dir=str(run_out / "model"),
        data_path=str(run_out / "processed_test.csv"),
        method="lime",
        row=2,
        out_dir=str(tmp_path),
        seed=1,
    )
    assert np.array_equal(again["explanation"].weights, exp.weights)


def test_cmd_explain_morris_from_archive(run_artifacts, tmp_path):
    _, run_out = run_artifacts
    result = cmd_explain(
        archive_dir=str(run_out / "model"),
        data_path=str(run_out / "processed_test.csv"),
        method="morris",
        out_dir=str(tmp_path),
    )
    exp = result["explanation"]
    assert len(exp.mu_star) == len(exp.feature_names)
    text = (tmp_path / "explanations" / "morris.csv").read_text()
    assert text.startswith("feature,score")


def test_cmd_explain_rejects_unknown_method(run_artifacts, tmp_path):
    _, run_out = run_artifacts
    with pytest.raises(ConfigError, match="method"):
        cmd_explain(
            archive_dir=str(run_out / "model"),
            data_path=str(run_out / "processed_test.csv"),
            method="shap",
            out_dir=str(tmp_path),
        )


def test_cmd_explain_schema_mismatch_lists_columns(run_artifacts, tmp_path):
    outcome, run_out = run_artifacts
    lines = (run_out / "processed_test.csv").read_text().splitlines()
    header = lines[0].split(",")
    # drop the first feature, add a bogus one
    new_header = ",".join(["bogus"] + header[1:])
    mangled = tmp_path / "mangled.csv"
    mangled.write_text("\n".join([new_header] + lines[1:]) + "\n")
    dropped = header[0]
    with pytest.raises(DataError) as exc:
        cmd_explain(
            archive_dir=str(run_out / "model"),
            data_path=str(mangled),
            method="lime",
            out_dir=str(tmp_path),
        )
    msg = str(exc.value)
    assert "schema mismatch" in msg
    assert dropped in msg and "bogus" in msg


def test_cmd_explain_rejects_missing_cells(run_artifacts, tmp_path):
    _, run_out = run_artifacts
    lines = (run_out / "processed_test.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[0] = "NA"
    lines[1] = ",".join(cells)
    holey = tmp_path / "holey.csv"
    holey.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="impute"):
        cmd_explain(
            archive_dir=str(run_out / "model"),
            data_path=str(holey),
            method="lime",
            out_dir=str(tmp_path),
        )


def test_cmd_explain_row_out_of_range(run_artifacts, tmp_path):
    _, run_out = run_artifacts
    with pytest.raises(DataError, match="out of range"):
        cmd_explain(
            archive_dir=str(run_out / "model"),
            data_path=str(run_out / "processed_test.csv"),
            method="lime",
            row=10_000,
            out_dir=str(tmp_path),
        )


def test_cmd_explain_cleans_up_after_write_failure(run_artifacts, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise OSError("disk full")

    # the CSV is rendered after the JSON is written
    monkeypatch.setattr("credo.pipeline.explanation_to_csv", boom)
    _, run_out = run_artifacts
    with pytest.raises(PipelineError, match="stage 'write'"):
        cmd_explain(
            archive_dir=str(run_out / "model"),
            data_path=str(run_out / "processed_test.csv"),
            method="lime",
            row=1,
            out_dir=str(tmp_path),
        )
    assert list(tmp_path.rglob("lime_row1.*")) == []
