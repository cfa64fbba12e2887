"""Span recorder for the traced benchmark run.

The tracer wraps credo's public functions at the names their callers
import them under (``credo.pipeline.load_csv``, ``credo.zoo.fit_gbt``,
``credo.neural.fit_gbt``, ...) and every model class's ``predict_proba``.
Each call becomes a span with a name, start, end and parent. Spans stay in
memory while a pass runs; ``layer_metrics`` turns one pass's spans into the
per-layer metrics, and the caller writes the spans out at the end.

Nothing under ``src/`` is changed: the wrappers are installed on the
imported modules for the duration of a traced pass and removed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    timings: list | None = None  # a run_pipeline span keeps report["timings"]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


# ------------------------------------------------------- counters per span


def _rows_out(span, args, kwargs, frame):
    span.counts["rows"] = frame.n_rows


def _synthetic_rows(span, args, kwargs, frame):
    span.counts["synthetic_rows"] = frame.n_rows - args[0].n_rows


def _logreg_iters(span, args, kwargs, model):
    span.counts["iters"] = int(model.n_iter)


def _gbt_size(span, args, kwargs, model):
    span.counts["trees"] = len(model.trees)
    span.counts["nodes"] = sum(len(t.feature) for t in model.trees)


def _mlp_epochs(span, args, kwargs, model):
    from credo.neural import MlpConfig

    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    span.counts["epochs"] = (cfg or MlpConfig()).epochs


def _archive_bytes(span, args, kwargs, manifest):
    root = Path(args[1] if len(args) > 1 else kwargs["dir_path"])
    span.counts["bytes_written"] = sum(p.stat().st_size for p in root.iterdir() if p.is_file())


def _stage_timings(span, args, kwargs, outcome):
    span.timings = outcome.report["timings"]


PREPROCESS = ("drop_sparse_features", "impute", "encode", "split", "fit_scaler", "apply_scaler")

# (module, attribute its callers look up, span name, counter)
FUNCTIONS = (
    ("credo.cli", "cmd_run", "pipeline.cmd_run", None),
    ("credo.cli", "cmd_compare", "pipeline.cmd_compare", None),
    ("credo.cli", "cmd_explain", "pipeline.cmd_explain", None),
    ("credo.pipeline", "run_pipeline", "pipeline.run_pipeline", _stage_timings),
    ("credo.pipeline", "load_csv", "frame.load_csv", _rows_out),
    *(("credo.pipeline", fn, f"frame.{fn}", None) for fn in PREPROCESS),
    ("credo.pipeline", "smote", "resample.smote", _synthetic_rows),
    ("credo.pipeline", "fit_lda", "lda.fit_lda", None),
    ("credo.pipeline", "transform_lda", "lda.transform_lda", None),
    ("credo.pipeline", "fit_model", "zoo.fit_model", None),
    ("credo.pipeline", "evaluate", "metrics.evaluate", None),
    ("credo.pipeline", "lime_explain", "explain.lime_explain", None),
    ("credo.pipeline", "morris_screen", "explain.morris_screen", None),
    ("credo.pipeline", "save_model", "archive.save_model", _archive_bytes),
    ("credo.pipeline", "load_model", "archive.load_model", None),
    ("credo.zoo", "fit_logreg", "baselines.fit_logreg", _logreg_iters),
    ("credo.zoo", "fit_gnb", "baselines.fit_gnb", None),
    ("credo.zoo", "fit_tree", "baselines.fit_tree", None),
    ("credo.zoo", "fit_forest", "baselines.fit_forest", None),
    ("credo.zoo", "fit_gbt", "gbt.fit_gbt", _gbt_size),
    ("credo.zoo", "fit_mlp", "neural.fit_mlp", _mlp_epochs),
    ("credo.zoo", "fit_hybrid", "neural.fit_hybrid", None),
    ("credo.zoo", "fit_lda", "lda.fit_lda", None),
    ("credo.neural", "fit_gbt", "gbt.fit_gbt", _gbt_size),
    ("credo.neural", "fit_mlp", "neural.fit_mlp", _mlp_epochs),
)

PREDICT = "zoo.predict_proba"


class Tracer:
    """Installs span-recording wrappers; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unwrapped: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(span, args, kwargs, result)
            return result

        return traced

    def _count_rows_if_outermost(self, span, args, kwargs, proba):
        p = span.parent
        while p is not None:
            if self.spans[p].name == PREDICT:
                return
            p = self.spans[p].parent
        span.counts["rows"] = len(proba)

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        self.unwrapped = []
        for module_name, attr, name, counter in FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.unwrapped.append(f"{module_name}.{attr}")
                continue
            self._patch(module, attr, self._wrap(name, fn, counter))
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("credo.") or module is None:
                continue
            for cls in vars(module).values():
                if (
                    inspect.isclass(cls)
                    and cls.__module__ == module_name
                    and "predict_proba" in vars(cls)
                ):
                    fn = vars(cls)["predict_proba"]
                    self._patch(cls, "predict_proba",
                                self._wrap(PREDICT, fn, self._count_rows_if_outermost))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


# ------------------------------------------------------- per-layer metrics

# (metric, unit); self times are a span's duration minus its children's.
PER_LAYER = (
    ("frame.load_csv_s", "s"),
    ("frame.load_csv.calls", "count"),
    ("frame.load_csv.rows", "rows"),
    ("frame.preprocess_s", "s"),
    ("resample.smote_s", "s"),
    ("resample.smote.calls", "count"),
    ("resample.smote.synthetic_rows", "rows"),
    ("lda.fit_lda_s", "s"),
    ("lda.transform_lda_s", "s"),
    ("gbt.fit_gbt_s", "s"),
    ("gbt.trees", "count"),
    ("gbt.nodes", "count"),
    ("baselines.fit_logreg_s", "s"),
    ("baselines.fit_logreg.iters", "count"),
    ("baselines.fit_tree_s", "s"),
    ("baselines.fit_forest_s", "s"),
    ("baselines.fit_gnb_s", "s"),
    ("neural.fit_mlp_s", "s"),
    ("neural.fit_hybrid_s", "s"),
    ("neural.epochs", "count"),
    ("zoo.fit_model_s", "s"),
    ("zoo.predict_proba_s", "s"),
    ("zoo.predict_proba.rows", "rows"),
    ("metrics.evaluate_s", "s"),
    ("explain.lime_explain_s", "s"),
    ("explain.lime_explain.calls", "count"),
    ("explain.morris_screen_s", "s"),
    ("archive.save_model_s", "s"),
    ("archive.load_model_s", "s"),
    ("archive.bytes_written", "bytes"),
    ("pipeline.write_s", "s"),
    ("pipeline.cells", "count"),
)

# A stage of report["timings"] against the run_pipeline child spans that
# make it up. The stage timer encloses those spans, so the stage may exceed
# their sum by the untraced glue between them and by no more than
# CROSSCHECK_ABS_S + CROSSCHECK_REL * stage; it may fall short of it only
# by timer granularity.
STAGE_SPANS = {
    "load": ("frame.load_csv",),
    "smote": ("resample.smote",),
    "lda": ("lda.fit_lda", "lda.transform_lda"),
    "fit": ("zoo.fit_model",),
    "evaluate": (PREDICT, "metrics.evaluate"),
    "explain": ("explain.lime_explain", "explain.morris_screen"),
}
CROSSCHECK_ABS_S = 0.01
CROSSCHECK_REL = 0.05
CROSSCHECK_SHORT_S = 0.0005


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans."""
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.seconds
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        self_s[s.name] += s.seconds - children[i]
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] += value

    return {
        "frame.load_csv_s": self_s["frame.load_csv"],
        "frame.load_csv.calls": calls["frame.load_csv"],
        "frame.load_csv.rows": counts["frame.load_csv.rows"],
        "frame.preprocess_s": sum(self_s[f"frame.{fn}"] for fn in PREPROCESS),
        "resample.smote_s": self_s["resample.smote"],
        "resample.smote.calls": calls["resample.smote"],
        "resample.smote.synthetic_rows": counts["resample.smote.synthetic_rows"],
        "lda.fit_lda_s": self_s["lda.fit_lda"],
        "lda.transform_lda_s": self_s["lda.transform_lda"],
        "gbt.fit_gbt_s": self_s["gbt.fit_gbt"],
        "gbt.trees": counts["gbt.fit_gbt.trees"],
        "gbt.nodes": counts["gbt.fit_gbt.nodes"],
        "baselines.fit_logreg_s": self_s["baselines.fit_logreg"],
        "baselines.fit_logreg.iters": counts["baselines.fit_logreg.iters"],
        "baselines.fit_tree_s": self_s["baselines.fit_tree"],
        "baselines.fit_forest_s": self_s["baselines.fit_forest"],
        "baselines.fit_gnb_s": self_s["baselines.fit_gnb"],
        "neural.fit_mlp_s": self_s["neural.fit_mlp"],
        "neural.fit_hybrid_s": self_s["neural.fit_hybrid"],
        "neural.epochs": counts["neural.fit_mlp.epochs"],
        "zoo.fit_model_s": self_s["zoo.fit_model"],
        "zoo.predict_proba_s": self_s[PREDICT],
        "zoo.predict_proba.rows": counts[f"{PREDICT}.rows"],
        "metrics.evaluate_s": self_s["metrics.evaluate"],
        "explain.lime_explain_s": self_s["explain.lime_explain"],
        "explain.lime_explain.calls": calls["explain.lime_explain"],
        "explain.morris_screen_s": self_s["explain.morris_screen"],
        "archive.save_model_s": self_s["archive.save_model"],
        "archive.load_model_s": self_s["archive.load_model"],
        "archive.bytes_written": counts["archive.save_model.bytes_written"],
        "pipeline.write_s": self_s["pipeline.cmd_run"] + self_s["pipeline.cmd_compare"],
        "pipeline.cells": calls["pipeline.run_pipeline"],
    }


def crosscheck(spans: list[Span]) -> tuple[float, list[str]]:
    """Compare each run's report["timings"] with its spans.

    Returns the largest |stage - spans| seen, in seconds, and a message for
    every stage outside the tolerance stated above STAGE_SPANS.
    """
    direct: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.parent is not None:
            direct[s.parent][s.name] += s.seconds
    worst, problems = 0.0, []
    for i, s in enumerate(spans):
        if s.timings is None:
            continue
        for t in s.timings:
            names = STAGE_SPANS.get(t["stage"])
            if names is None:
                continue
            traced = sum(direct[i][n] for n in names)
            dev = t["seconds"] - traced
            worst = max(worst, abs(dev))
            if not -CROSSCHECK_SHORT_S <= dev <= CROSSCHECK_ABS_S + CROSSCHECK_REL * t["seconds"]:
                problems.append(
                    f"stage {t['stage']!r}: report {t['seconds']:.6f} s, spans {traced:.6f} s"
                )
    return worst, problems
