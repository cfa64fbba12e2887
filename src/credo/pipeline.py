"""Config-driven experiment orchestration.

``run`` and ``compare`` take the frozen tree ``resolve_config`` returns
and hand its smote, lda, lime and morris sections to their stages as they
are. ``prepare`` executes load -> drop sparse -> impute -> encode -> split
-> scale -> [balance], and a cell runs [reduce] -> fit -> evaluate on its
output. ``run_pipeline`` is preparation, one cell and [explain], timing
each stage, recording each distinct warning once with its stable code and
its count, and echoing the exact settings used. ``cmd_run`` adds the on-disk
deliverables (report.json, metrics.csv, processed splits, a model archive,
explanation files); ``cmd_compare`` prepares once and renders each model
with the discriminant reduction off and on as one matrix; ``cmd_explain``
replays a stored archive against a CSV through the run's explanation step.
``cmd_run`` and ``cmd_compare`` refuse an out_dir that cannot become a
directory before reading any data. Any stage failure aborts with the stage
name and cause, and files written by the failed invocation are removed.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from . import blas
from .archive import load_model, save_model
from .bounds import NonNegInt
from .config import _Model, _plain, _Run, read_value
from .errors import CredoWarning, DataError, PipelineError
from .explain import LimeConfig, MorrisConfig, explanation_to_csv, lime_explain, morris_screen
from .frame import (
    Frame,
    apply_scaler,
    drop_sparse_features,
    encode,
    fit_scaler,
    impute,
    load_csv,
    split,
    write_csv,
)
from .lda import fit_lda, transform_lda
from .metrics import MetricReport, evaluate
from .resample import smote
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

    config: _Run
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


def prepare(cfg: _Run, timings: list[dict]) -> tuple[Frame, Frame, dict]:
    """Load -> drop sparse -> impute -> encode -> [smote] -> split -> scale
    -> [smote]. Returns the model-ready train and test frames and the
    report's preprocessing accounting; no intermediate frame is kept."""
    target = cfg.target

    def load():
        table = load_csv(cfg.data, categorical=target)
        mask = table.column(target).missing_mask
        if mask.all():
            raise DataError(f"target {target!r} is missing in every row")
        if mask.any():
            table = table.select_rows(np.flatnonzero(~mask))
        return table, int(mask.sum())

    table, dropped_rows = _stage(timings, "load", load)
    n_loaded = table.n_rows

    before_names = table.column_names
    table = _stage(timings, "drop_sparse", lambda: drop_sparse_features(table, cfg.null_threshold))
    dropped_columns = [n for n in before_names if n not in table.column_names]

    table = _stage(timings, "impute", lambda: impute(table))
    frame = _stage(timings, "encode", lambda: encode(table, target))
    del table

    smote_path = "disabled"
    if cfg.smote.enabled:
        smote_path = "before_split" if cfg.smote.before_split else "after_split"
    counts: list[list[int]] = []  # class counts before and after oversampling

    def balance(f: Frame, when: str) -> Frame:
        if when != smote_path:
            return f
        counts.append(_class_counts(f))
        f = _stage(timings, "smote", lambda: smote(f, cfg.smote))
        counts.append(_class_counts(f))
        return f

    frame = balance(frame, "before_split")
    train, test = _stage(timings, "split", lambda: split(frame, cfg.split.train_fraction, cfg.split.seed))
    del frame  # the splits hold their own rows

    if cfg.scaler != "none":
        def scale():
            params = fit_scaler(train, cfg.scaler)
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
        "scaler": cfg.scaler,
        "smote": {
            "path": smote_path,
            "class_counts_before": counts_before,
            "class_counts_after": counts_after,
        },
        "class_names": list(train.target.class_names),
    }


def _reduce(train: Frame, test: Frame, lda_cfg, timings: list[dict]):
    """Fit the discriminant projection on train; project both splits."""
    def project():
        projection = fit_lda(train, lda_cfg)
        return projection, transform_lda(projection, train), transform_lda(projection, test)

    return _stage(timings, "lda", project)


def _fit_and_score(
    train: Frame, test: Frame, model_cfg: _Model, timings: list[dict], boosters: dict | None = None
):
    """One model: fit on train, then score its test-split probabilities.
    `boosters` is compare's memo of the boosters fitted on this `train`."""
    model = _stage(
        timings, "fit", lambda: fit_model(model_cfg.name, train, model_cfg.params, boosters)
    )

    def score():
        proba = np.asarray(model.predict_proba(test.matrix), dtype=float)
        pred = np.argmax(proba, axis=1)
        return proba, evaluate(test.labels, pred, proba, test.target.n_classes)

    proba, metric_report = _stage(timings, "evaluate", score)
    return model, proba, metric_report


def _explain(model, background: Frame, X, rows, lime_cfg, morris_cfg, target_class=None, classes=None):
    """LIME for each row of `X` in `rows`, against `background`, then Morris
    over the background's column ranges if `morris_cfg` is given.

    LIME explains `target_class`, else `classes[r]`, else the model's
    prediction for row r; Morris reads `target_class`'s probability if it
    is given, else the probability of the class predicted at the midpoint.
    """
    lime_out = []
    for r in rows:
        if not 0 <= r < len(X):
            raise DataError(f"row {r} out of range, data has {len(X)} rows")
        cls = target_class
        if cls is None:
            cls = classes[r] if classes is not None else model.predict(X[r : r + 1])[0]
        lime_out.append(lime_explain(model, background, X[r], int(cls), lime_cfg, row_index=r))
    screening = None
    if morris_cfg is not None:
        B = background.matrix
        screening = morris_screen(
            model,
            np.column_stack([B.min(axis=0), B.max(axis=0)]),
            target_class=target_class,
            cfg=morris_cfg,
            feature_names=background.column_names,
        )
    return lime_out, screening


def run_pipeline(cfg: _Run) -> RunOutcome:
    """Execute one resolved configuration end to end, nothing written."""
    timings: list[dict] = []

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        train, test, preprocessing = prepare(cfg, timings)

        lda_summary = {"enabled": cfg.lda.enabled, "n_components_requested": None, "n_components_used": None}
        if cfg.lda.enabled:
            projection, train, test = _reduce(train, test, cfg.lda, timings)
            lda_summary["n_components_requested"] = projection.n_requested
            lda_summary["n_components_used"] = projection.n_components

        model, proba, metric_report = _fit_and_score(train, test, cfg.model, timings)

        explain = cfg.explain
        lime_explanations, morris_screening = [], None
        if explain.lime_rows or explain.morris.enabled:
            lime_explanations, morris_screening = _stage(timings, "explain", lambda: _explain(
                model,
                train,
                test.matrix,
                explain.lime_rows,
                explain.lime,
                explain.morris if explain.morris.enabled else None,
                classes=proba.argmax(axis=1),
            ))

    # one entry per distinct (code, message), in order of first occurrence
    warning_counts = Counter(
        (w.message.code if isinstance(w.message, CredoWarning) else "EXTERNAL", str(w.message))
        for w in caught
    )
    warning_entries = [
        {"code": code, "message": message, "count": count}
        for (code, message), count in warning_counts.items()
    ]

    report = {
        "config": _plain(cfg),
        "preprocessing": {
            **preprocessing,
            "lda": lda_summary,
            "feature_names": list(train.column_names),
        },
        "metrics": {
            "requested": list(cfg.metrics),
            "values": {m: getattr(metric_report, m) for m in cfg.metrics},
            "detail": metric_report.to_dict(),
        },
        "timings": timings,
        "blas": blas.describe(),
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
    for name in outcome.config.metrics:
        value = getattr(outcome.metrics, name)
        lines.append(f"{name},{'' if value is None else repr(float(value))}")
    return "\n".join(lines) + "\n"


def _frame_csv(frame: Frame, target_name: str):
    """A writer of the frame's features with its target column restored."""
    def write(path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_csv(
                fh,
                [*frame.column_names, target_name],
                frame.matrix,
                frame.labels[:, None],
                [frame.target.class_names],
            )

    return write


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _check_out_dir(out: Path) -> None:
    """Refuse an `out` that is not, and cannot become, a directory: the
    nearest existing path at or above it must be one. Creates nothing."""
    existing = out
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise DataError(f"cannot write under {out}: {existing} is not a directory")


def _write_outputs(outputs) -> None:
    """Write each (path, text or writer function) in order, rendering lazily
    if `outputs` is a generator. If one fails, remove what it and the
    earlier ones created, directories included, and raise a 'write' stage
    error; an unwritable path is a DataError."""
    created: list[Path] = []
    try:
        for path, content in outputs:
            new_dirs, parent = [], path.parent
            while not parent.exists():
                new_dirs.append(parent)
                parent = parent.parent
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                created += reversed(new_dirs)
                created.append(path)
                if callable(content):
                    content(path)
                else:
                    path.write_text(content)
            except OSError as e:
                raise DataError(f"cannot write {path}: {e}") from e
    except Exception as e:
        for path in reversed(created):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)
        raise PipelineError("write", e) from e


def _run_outputs(outcome: RunOutcome, out: Path):
    """The deliverables of a run, one (path, text or writer) at a time."""
    target = outcome.config.target
    yield out / "report.json", _json(outcome.report)
    yield out / "metrics.csv", _metrics_csv(outcome)
    yield out / "processed_train.csv", _frame_csv(outcome.train, target)
    yield out / "processed_test.csv", _frame_csv(outcome.test, target)
    yield out / "model", lambda path: save_model(
        outcome.model,
        path,
        class_names=outcome.train.target.class_names,
        target_name=target,
    )
    for e in outcome.lime_explanations:
        yield from _explanation_outputs(e, out / "explanations", f"lime_row{e.row_index}")
    if outcome.morris_screening is not None:
        yield from _explanation_outputs(outcome.morris_screening, out / "explanations", "morris")


def _explanation_outputs(explanation, out: Path, stem: str):
    """An explanation's <stem>.json, then its <stem>.csv, under `out`."""
    yield out / f"{stem}.json", _json(explanation.to_dict())
    yield out / f"{stem}.csv", explanation_to_csv(explanation)


def cmd_run(cfg: _Run) -> tuple[RunOutcome, Path]:
    """Run one configuration and write its deliverables under out_dir."""
    out = Path(cfg.out_dir)
    _check_out_dir(out)
    outcome = run_pipeline(cfg)
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


def cmd_compare(cfg: _Run) -> tuple[ComparisonTable, Path]:
    """Prepare the data once, then score every configured model on it with
    the reduction off and on.

    A preparation failure aborts the grid. A failed projection marks every
    reduced cell, and a failed fit or evaluation marks only its own cell.
    The cells of one setting share each booster fitted for them, so gbt
    and xgdnn with equal booster settings fit it once.
    """

    def cell(entry: _Model, with_lda: bool, frames, boosters: dict) -> CompareCell:
        """`frames` is the (train, test) pair, or the error that prevented it."""
        try:
            if isinstance(frames, PipelineError):
                raise frames
            metric_report = _fit_and_score(*frames, entry, [], boosters)[2]
        except PipelineError as e:
            return CompareCell(entry.name, with_lda, None, str(e))
        values = {m: getattr(metric_report, m) for m in cfg.metrics}
        return CompareCell(entry.name, with_lda, values, None)

    out = Path(cfg.out_dir)
    _check_out_dir(out)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        train, test, _ = prepare(cfg, [])
        try:
            reduced = _reduce(train, test, cfg.lda, [])[1:]
        except PipelineError as e:
            reduced = e
        rows = []
        for with_lda, frames in ((False, (train, test)), (True, reduced)):
            boosters: dict = {}  # the boosters fitted on this setting's train split
            rows += [cell(entry, with_lda, frames, boosters) for entry in cfg.models]
    table = ComparisonTable(cfg.metrics, tuple(rows))
    _write_outputs([(out / "compare.csv", table.to_csv()), (out / "compare.json", _json(table.to_dict()))])
    return table, out


# ------------------------------------------------------------- cmd_explain


def _load_background(data_path: str, manifest: dict) -> Frame:
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
    return Frame(tuple(features), np.column_stack([data.column(n).values for n in features]))


def cmd_explain(
    archive_dir: str,
    data_path: str,
    method: str,
    row: int = 0,
    target_class: int | None = None,
    out_dir: str = ".",
    seed: int = 0,
) -> dict:
    """Explain an archived model against a processed CSV; writes the
    explanation's JSON and CSV under out_dir/explanations, or neither. A bad
    method, row, target class or seed is a ConfigError, and an out_dir that
    cannot be a directory a DataError, both raised before any file is read."""
    method = read_value(Literal["lime", "morris"], method, "explain.method")
    row = read_value(NonNegInt, row, "explain.row")
    target_class = read_value(NonNegInt | None, target_class, "explain.target_class")
    lime_cfg = read_value(LimeConfig, {"seed": seed}, "explain")
    morris_cfg = read_value(MorrisConfig, {"seed": seed}, "explain")
    _check_out_dir(Path(out_dir))
    model, manifest = load_model(archive_dir)
    background = _load_background(data_path, manifest)
    lime_out, screening = _explain(
        model,
        background,
        background.matrix,
        [row] if method == "lime" else [],
        lime_cfg,
        morris_cfg if method == "morris" else None,
        target_class,
    )
    explanation, stem = (lime_out[0], f"lime_row{row}") if method == "lime" else (screening, "morris")

    out = Path(out_dir) / "explanations"
    _write_outputs(_explanation_outputs(explanation, out, stem))
    return {
        "method": method,
        "json": str(out / f"{stem}.json"),
        "csv": str(out / f"{stem}.csv"),
        "explanation": explanation,
    }
