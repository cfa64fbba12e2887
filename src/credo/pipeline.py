"""Config-driven experiment orchestration.

``prepare`` executes load -> drop sparse -> impute -> encode -> split ->
scale -> [balance], and a cell runs [reduce] -> fit -> evaluate on its
output. ``run_pipeline`` is preparation, one cell and [explain], timing each
stage, recording every warning with its stable code, and echoing the exact
settings used.  ``cmd_run`` adds the on-disk deliverables (report.json,
metrics.csv, processed splits, a model archive, explanation files);
``cmd_compare`` prepares once and renders each model with the discriminant
reduction off and on as one matrix; ``cmd_explain`` replays a stored
archive against a CSV.  Any stage failure aborts with the stage name and
cause, and files written by the failed invocation are removed.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .archive import load_model, save_model
from .errors import CredoWarning, DataError, PipelineError
from .explain import (
    LimeConfig,
    MorrisConfig,
    explanation_to_csv,
    lime_explain,
    morris_screen,
)
from .frame import (
    Frame,
    apply_scaler,
    drop_sparse_features,
    encode,
    fit_scaler,
    impute,
    load_csv,
    numeric_frame,
    split,
)
from .lda import fit_lda, transform_lda
from .metrics import MetricReport, evaluate
from .resample import SmoteConfig, smote
from .zoo import fit_model

__all__ = [
    "CompareCell",
    "ComparisonTable",
    "RunOutcome",
    "cmd_compare",
    "cmd_explain",
    "cmd_run",
    "prepare",
    "run_pipeline",
]


@dataclass
class RunOutcome:
    """Everything a run produced, in memory."""

    config: dict
    report: dict
    metrics: MetricReport
    model: object
    train: Frame
    test: Frame
    lime_explanations: list
    morris_screening: object | None


def _class_counts(frame: Frame) -> list[int]:
    return np.bincount(frame.labels, minlength=frame.target.n_classes).tolist()


def _stage(timings: list[dict], name: str, fn):
    """Run one named stage, recording its wall time or wrapping its failure."""
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as e:
        raise PipelineError(name, e) from e
    timings.append({"stage": name, "seconds": time.perf_counter() - t0})
    return result


def prepare(cfg: dict, timings: list[dict]) -> tuple[Frame, Frame, dict]:
    """Load -> drop sparse -> impute -> encode -> [smote] -> split -> scale
    -> [smote]. Returns the model-ready train and test frames and the
    report's preprocessing accounting; no intermediate frame is kept."""
    target = cfg["target"]

    def load():
        frame = load_csv(cfg["data"], schema_hints={target: "categorical"})
        mask = frame.column(target).missing_mask
        if mask.any():
            frame = frame.select_rows(np.flatnonzero(~mask))
        return frame, int(mask.sum())

    frame, dropped_rows = _stage(timings, "load", load)
    n_loaded = frame.n_rows

    before_names = frame.column_names
    frame = _stage(timings, "drop_sparse", lambda: drop_sparse_features(frame, cfg["null_threshold"]))
    dropped_columns = [n for n in before_names if n not in frame.column_names]

    frame = _stage(timings, "impute", lambda: impute(frame))
    frame = _stage(timings, "encode", lambda: encode(frame, target))

    smote_cfg = cfg["smote"]
    smote_path = "disabled"
    if smote_cfg["enabled"]:
        smote_path = "before_split" if smote_cfg["before_split"] else "after_split"
    counts: list[list[int]] = []  # class counts before and after oversampling

    def balance(f: Frame, when: str) -> Frame:
        if when != smote_path:
            return f
        counts.append(_class_counts(f))
        f = _stage(
            timings, "smote", lambda: smote(f, SmoteConfig(smote_cfg["k_neighbors"], smote_cfg["seed"]))
        )
        counts.append(_class_counts(f))
        return f

    frame = balance(frame, "before_split")
    train, test = _stage(
        timings, "split", lambda: split(frame, cfg["split"]["train_fraction"], cfg["split"]["seed"])
    )

    if cfg["scaler"] != "none":
        def scale():
            params = fit_scaler(train, cfg["scaler"])
            return apply_scaler(train, params), apply_scaler(test, params)

        train, test = _stage(timings, "scale", scale)

    train = balance(train, "after_split")
    counts_before, counts_after = counts or [_class_counts(train)] * 2

    return train, test, {
        "rows": {
            "loaded": n_loaded,
            "dropped_missing_target": dropped_rows,
            "train": train.n_rows,
            "test": test.n_rows,
        },
        "columns_dropped": dropped_columns,
        "scaler": cfg["scaler"],
        "smote": {
            "path": smote_path,
            "class_counts_before": counts_before,
            "class_counts_after": counts_after,
        },
        "class_names": list(train.target.class_names),
    }


def _reduce(train: Frame, test: Frame, lda_cfg: dict, timings: list[dict]):
    """Fit the discriminant projection on train; project both splits."""
    def project():
        projection = fit_lda(train, lda_cfg["n_components"], lda_cfg["ridge"])
        return projection, transform_lda(projection, train), transform_lda(projection, test)

    return _stage(timings, "lda", project)


def _fit_and_score(train: Frame, test: Frame, model_cfg: dict, timings: list[dict]):
    """One model: fit on train, then score its test-split probabilities."""
    model = _stage(timings, "fit", lambda: fit_model(model_cfg["name"], train, model_cfg["params"]))

    def score():
        proba = np.asarray(model.predict_proba(test.feature_matrix()), dtype=float)
        pred = np.argmax(proba, axis=1)
        return proba, evaluate(test.labels, pred, proba, test.target.n_classes)

    proba, metric_report = _stage(timings, "evaluate", score)
    return model, proba, metric_report


def run_pipeline(cfg: dict) -> RunOutcome:
    """Execute one resolved configuration end to end, nothing written."""
    timings: list[dict] = []

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        train, test, preprocessing = prepare(cfg, timings)

        lda_cfg = cfg["lda"]
        lda_summary = {"enabled": lda_cfg["enabled"], "n_components_requested": None, "n_components_used": None}
        if lda_cfg["enabled"]:
            projection, train, test = _reduce(train, test, lda_cfg, timings)
            lda_summary["n_components_requested"] = projection.n_requested
            lda_summary["n_components_used"] = projection.n_components

        model, proba, metric_report = _fit_and_score(train, test, cfg["model"], timings)

        explain_cfg = cfg["explain"]
        lime_explanations: list = []
        morris_screening = None
        if explain_cfg["lime_rows"] or explain_cfg["morris"]["enabled"]:
            def explain():
                X_test = test.feature_matrix()
                lime_conf = LimeConfig(**explain_cfg["lime"])
                lime_out = []
                for r in explain_cfg["lime_rows"]:
                    if r >= test.n_rows:
                        raise DataError(f"lime row {r} out of range, test split has {test.n_rows} rows")
                    lime_out.append(
                        lime_explain(
                            model,
                            train,
                            X_test[r],
                            int(np.argmax(proba[r])),
                            lime_conf,
                            row_index=r,
                        )
                    )
                screening = None
                if explain_cfg["morris"]["enabled"]:
                    X_train = train.feature_matrix()
                    ranges = np.column_stack([X_train.min(axis=0), X_train.max(axis=0)])
                    morris = {k: v for k, v in explain_cfg["morris"].items() if k != "enabled"}
                    screening = morris_screen(
                        model, ranges, cfg=MorrisConfig(**morris), feature_names=train.column_names
                    )
                return lime_out, screening

            lime_explanations, morris_screening = _stage(timings, "explain", explain)

    warning_entries = [
        {
            "code": w.message.code if isinstance(w.message, CredoWarning) else "EXTERNAL",
            "message": str(w.message),
        }
        for w in caught
    ]

    report = {
        "config": cfg,
        "preprocessing": {
            **preprocessing,
            "lda": lda_summary,
            "feature_names": list(train.column_names),
        },
        "metrics": {
            "requested": list(cfg["metrics"]),
            "values": {m: getattr(metric_report, m) for m in cfg["metrics"]},
            "detail": metric_report.to_dict(),
        },
        "timings": timings,
        "warnings": warning_entries,
        "explanations": {
            "lime": [e.to_dict() for e in lime_explanations],
            "morris": None if morris_screening is None else morris_screening.to_dict(),
        },
    }
    return RunOutcome(
        config=cfg,
        report=report,
        metrics=metric_report,
        model=model,
        train=train,
        test=test,
        lime_explanations=lime_explanations,
        morris_screening=morris_screening,
    )


# ----------------------------------------------------------------- cmd_run


def _metrics_csv(outcome: RunOutcome) -> str:
    lines = ["metric,value"]
    for name in outcome.config["metrics"]:
        value = getattr(outcome.metrics, name)
        lines.append(f"{name},{'' if value is None else repr(float(value))}")
    return "\n".join(lines) + "\n"


def _frame_csv(frame: Frame, target_name: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(frame.column_names) + [target_name])
    X = frame.feature_matrix()
    names = frame.target.class_names
    labels = frame.labels
    for i in range(frame.n_rows):
        writer.writerow([repr(float(v)) for v in X[i]] + [names[labels[i]]])
    return buf.getvalue()


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_outputs(outputs) -> None:
    """Write each (path, text or writer function) in order, rendering lazily
    if `outputs` is a generator. If one fails, remove what the earlier ones
    created and raise a 'write' stage error."""
    created: list[Path] = []
    try:
        for path, content in outputs:
            path.parent.mkdir(parents=True, exist_ok=True)
            if callable(content):
                content(path)
            else:
                path.write_text(content)
            created.append(path)
    except Exception as e:
        for path in reversed(created):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)
        raise PipelineError("write", e) from e


def _run_outputs(outcome: RunOutcome, out: Path):
    """The deliverables of a run, one (path, text or writer) at a time."""
    target = outcome.config["target"]
    yield out / "report.json", _json(outcome.report)
    yield out / "metrics.csv", _metrics_csv(outcome)
    yield out / "processed_train.csv", _frame_csv(outcome.train, target)
    yield out / "processed_test.csv", _frame_csv(outcome.test, target)
    yield out / "model", lambda path: save_model(
        outcome.model,
        path,
        feature_names=outcome.train.column_names,
        class_names=outcome.train.target.class_names,
        target_name=target,
    )
    for e in outcome.lime_explanations:
        yield out / "explanations" / f"lime_row{e.row_index}.json", _json(e.to_dict())
        yield out / "explanations" / f"lime_row{e.row_index}.csv", explanation_to_csv(e)
    if outcome.morris_screening is not None:
        yield out / "explanations" / "morris.json", _json(outcome.morris_screening.to_dict())
        yield out / "explanations" / "morris.csv", explanation_to_csv(outcome.morris_screening)


def cmd_run(cfg: dict) -> tuple[RunOutcome, Path]:
    """Run one configuration and write its deliverables under out_dir."""
    outcome = run_pipeline(cfg)
    out = Path(cfg["out_dir"])
    _write_outputs(_run_outputs(outcome, out))
    return outcome, out


# ------------------------------------------------------------- cmd_compare


@dataclass(frozen=True)
class CompareCell:
    model: str
    with_lda: bool
    values: dict | None
    error: str | None


@dataclass(frozen=True)
class ComparisonTable:
    """Model-by-setting metric matrix, rendered as percentages."""

    metric_names: tuple[str, ...]
    rows: tuple[CompareCell, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["model", "lda", *self.metric_names, "error"])
        for cell in self.rows:
            rendered = []
            for m in self.metric_names:
                v = None if cell.values is None else cell.values.get(m)
                rendered.append("" if v is None else f"{100.0 * v:.2f}")
            writer.writerow([cell.model, "on" if cell.with_lda else "off", *rendered,
                             cell.error or ""])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ComparisonTable":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if header[:2] != ["model", "lda"] or header[-1] != "error":
            raise DataError("not a comparison table: bad header")
        metric_names = tuple(header[2:-1])
        rows = []
        for record in reader:
            if not record:
                continue
            model, lda_flag, *cells, error = record
            if error:
                rows.append(CompareCell(model, lda_flag == "on", None, error))
            else:
                values = {
                    m: (float(c) / 100.0 if c else None) for m, c in zip(metric_names, cells)
                }
                rows.append(CompareCell(model, lda_flag == "on", values, None))
        return cls(metric_names, tuple(rows))

    def to_dict(self) -> dict:
        return {
            "metrics": list(self.metric_names),
            "rows": [
                {
                    "model": c.model,
                    "lda": c.with_lda,
                    "values": c.values,
                    "error": c.error,
                }
                for c in self.rows
            ],
        }


def cmd_compare(cfg: dict) -> tuple[ComparisonTable, Path]:
    """Prepare the data once, then score every configured model on it with
    the reduction off and on.

    A preparation failure aborts the grid. A failed projection marks every
    reduced cell, and a failed fit or evaluation marks only its own cell.
    """

    def cell(entry: dict, with_lda: bool, frames) -> CompareCell:
        """`frames` is the (train, test) pair, or the error that prevented it."""
        try:
            if isinstance(frames, PipelineError):
                raise frames
            metric_report = _fit_and_score(*frames, entry, [])[2]
        except PipelineError as e:
            return CompareCell(entry["name"], with_lda, None, str(e))
        values = {m: getattr(metric_report, m) for m in cfg["metrics"]}
        return CompareCell(entry["name"], with_lda, values, None)

    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        train, test, _ = prepare(cfg, [])
        try:
            reduced = _reduce(train, test, cfg["lda"], [])[1:]
        except PipelineError as e:
            reduced = e
        rows = [
            cell(entry, with_lda, frames)
            for with_lda, frames in ((False, (train, test)), (True, reduced))
            for entry in cfg["models"]
        ]
    table = ComparisonTable(tuple(cfg["metrics"]), tuple(rows))

    out = Path(cfg["out_dir"])
    _write_outputs([(out / "compare.csv", table.to_csv()), (out / "compare.json", _json(table.to_dict()))])
    return table, out


# ------------------------------------------------------------- cmd_explain


def _load_background(data_path: str, manifest: dict) -> tuple[Frame, np.ndarray]:
    data = load_csv(data_path)
    features = manifest["schema"]["features"]
    target = manifest["schema"]["target"]
    present = set(data.column_names)
    missing = sorted(set(features) - present)
    extra = sorted(present - set(features) - {target})
    if missing or extra:
        raise DataError(
            f"data schema mismatch; missing columns: {missing}; extra columns: {extra}"
        )
    bad_kind = [n for n in features if data.column(n).kind != "numeric"]
    if bad_kind:
        raise DataError(f"columns are not numeric: {bad_kind}")
    X = np.column_stack([data.column(n).values for n in features]).astype(float)
    if np.isnan(X).any():
        raise DataError("data has missing cells in feature columns, impute first")
    return numeric_frame(X, names=list(features)), X


def cmd_explain(
    archive_dir: str,
    data_path: str,
    method: str,
    row: int = 0,
    target_class: int | None = None,
    out_dir: str = ".",
    seed: int = 0,
) -> dict:
    """Explain an archived model against a processed CSV; writes files."""
    if method not in ("lime", "morris"):
        raise DataError(f"unknown explain method {method!r}")
    model, manifest = load_model(archive_dir)
    background, X = _load_background(data_path, manifest)

    out = Path(out_dir) / "explanations"
    out.mkdir(parents=True, exist_ok=True)
    if method == "lime":
        if not 0 <= row < background.n_rows:
            raise DataError(f"row {row} out of range, data has {background.n_rows} rows")
        cls = int(model.predict(X[row : row + 1])[0]) if target_class is None else int(target_class)
        explanation = lime_explain(
            model, background, X[row], cls, LimeConfig(seed=seed), row_index=row
        )
        json_path = out / f"lime_row{row}.json"
        csv_path = out / f"lime_row{row}.csv"
    else:
        ranges = np.column_stack([X.min(axis=0), X.max(axis=0)])
        output = "predicted_class_prob" if target_class is None else "class_prob"
        explanation = morris_screen(
            model,
            ranges,
            output,
            target_class=target_class,
            cfg=MorrisConfig(seed=seed),
            feature_names=background.column_names,
        )
        json_path = out / "morris.json"
        csv_path = out / "morris.csv"

    json_path.write_text(_json(explanation.to_dict()))
    csv_path.write_text(explanation_to_csv(explanation))
    return {
        "method": method,
        "json": str(json_path),
        "csv": str(csv_path),
        "explanation": explanation,
    }
