"""The four benchmark workloads: set-up and one pass of each.

Set-up synthesizes the workload's data from the seed (and, for
``explain_replay``, trains and archives the models it explains). The
runner calls it in a child process, ``python3 bench/workloads.py
<workload> <seed> <dir>``, so that set-up memory stays out of the
measured process's peak RSS. A pass drives the ``credo`` CLI functions
(``credo.cli.main``) on the files set-up left behind and returns one
``Op`` per operation, naming the outputs that must match the first pass
byte for byte.

Sizes are scaled down from the acceptance configuration so that every
workload fits several passes into one run; see README.md.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HYBRID = {
    "name": "xgdnn",
    "params": {
        "gbt": {"rounds": 6, "max_depth": 2, "learning_rate": 0.4},
        "mlp": {"hidden": [32], "epochs": 8, "batch_size": 512, "learning_rate": 3e-3},
    },
}

ZOO = [
    {"name": "logreg", "params": {"max_iter": 100}},
    {"name": "gnb"},
    {"name": "tree", "params": {"max_depth": 6}},
    {"name": "forest", "params": {"n_trees": 5, "max_depth": 6}},
    {"name": "gbt", "params": {"rounds": 2, "max_depth": 3}},
    {"name": "mlp", "params": {"epochs": 10}},
    {"name": "lda"},
    {"name": "xgdnn", "params": {"gbt": {"rounds": 2, "max_depth": 3}, "mlp": {"epochs": 10}}},
]

REPLAY_MODELS = {
    "lda": {"name": "lda"},
    "forest": {"name": "forest", "params": {"n_trees": 5, "max_depth": 6}},
    "xgdnn": HYBRID,
}
LIME_ROWS = range(40)
MORRIS_SEEDS = range(5)


@dataclass
class Op:
    """One attempted operation of a pass."""

    name: str
    ok: bool
    files: tuple[Path, ...] = ()  # outputs compared with the first pass
    problem: str = ""


@dataclass
class PassResult:
    ops: list[Op]
    scores: list[tuple[float, float]]  # (accuracy, h_measure) per model scored


def cli(name: str, argv: list, files=()) -> Op:
    """Call credo's CLI entry point in-process, capturing what it prints."""
    from credo.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        try:
            code = main([str(a) for a in argv])
        except Exception:  # an escaped exception is a failed operation, not a crash
            traceback.print_exc()
            code = None
    problem = "" if code == 0 else f"exit {code}: {buf.getvalue().strip()[-500:]}"
    return Op(name, code == 0, tuple(files), problem)


def read_scores(metrics_csv: Path) -> tuple[float, float]:
    values = dict(csv.reader(io.StringIO(metrics_csv.read_text())))
    return float(values["accuracy"]), float(values["h_measure"])


def write_config(path: Path, cfg: dict) -> None:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def synth(path: Path, **spec) -> None:
    from credo.synth import SynthSpec, write_synthetic

    write_synthetic(str(path), SynthSpec(**spec))


# --------------------------------------------------------------- run_hybrid


def setup_run_hybrid(d: Path, seed: int) -> None:
    synth(d / "data.csv", rows=3000, seed=seed)
    write_config(d / "run.json", {
        "data": str(d / "data.csv"),
        "target": "status",
        "smote": {"enabled": True},
        "lda": {"enabled": True},
        "model": HYBRID,
        "explain": {"lime_rows": [0], "morris": {"enabled": True}},
    })


def pass_run_hybrid(d: Path, out: Path) -> PassResult:
    run, replay = out / "run", out / "replay"
    op = cli("run", ["run", "-c", d / "run.json", "--out", run], [
        run / "metrics.csv",
        run / "explanations" / "lime_row0.json",
        run / "explanations" / "morris.json",
    ])
    ops, scores = [op], []
    if op.ok:
        used = json.loads((run / "report.json").read_text())["preprocessing"]["lda"]["n_components_used"]
        if used != 9:
            op.ok, op.problem = False, f"n_components_used is {used}, expected 9"
        scores.append(read_scores(run / "metrics.csv"))
    archive = ["-a", run / "model", "-d", run / "processed_test.csv", "--out", replay]
    ops.append(cli("explain_lime", ["explain", "-m", "lime", *archive, "--row", 3],
                   [replay / "explanations" / "lime_row3.json"]))
    ops.append(cli("explain_morris", ["explain", "-m", "morris", *archive],
                   [replay / "explanations" / "morris.json"]))
    return PassResult(ops, scores)


# -------------------------------------------------------------- compare_zoo


def setup_compare_zoo(d: Path, seed: int) -> None:
    synth(d / "data.csv", rows=1000, separation=0.8, seed=seed)
    write_config(d / "compare.json", {
        "data": str(d / "data.csv"),
        "target": "status",
        "smote": {"enabled": True},
        "models": ZOO,
    })


def pass_compare_zoo(d: Path, out: Path) -> PassResult:
    op = cli("compare", ["compare", "-c", d / "compare.json", "--out", out], [out / "compare.csv"])
    ops, scores = [op], []
    if op.ok:
        rows = json.loads((out / "compare.json").read_text())["rows"]
        if len(rows) != 2 * len(ZOO):
            op.ok, op.problem = False, f"{len(rows)} compare rows, expected {2 * len(ZOO)}"
        for row in rows:
            cell = f"cell_{row['model']}_lda_{'on' if row['lda'] else 'off'}"
            ops.append(Op(cell, row["error"] is None, problem=row["error"] or ""))
            if row["error"] is None:
                scores.append((row["values"]["accuracy"], row["values"]["h_measure"]))
    return PassResult(ops, scores)


# --------------------------------------------------------------- ingest_20k


def setup_ingest_20k(d: Path, seed: int) -> None:
    synth(d / "data.csv", rows=20000, seed=seed)
    write_config(d / "run.json", {
        "data": str(d / "data.csv"),
        "target": "status",
        "smote": {"enabled": False},
        "lda": {"enabled": False},
        "model": {"name": "gnb"},
    })


def pass_ingest_20k(d: Path, out: Path) -> PassResult:
    op = cli("run", ["run", "-c", d / "run.json", "--out", out], [out / "metrics.csv"])
    return PassResult([op], [read_scores(out / "metrics.csv")] if op.ok else [])


# ----------------------------------------------------------- explain_replay


def setup_explain_replay(d: Path, seed: int) -> None:
    synth(d / "data.csv", rows=3000, seed=seed)
    for name, model in REPLAY_MODELS.items():
        cfg = d / f"{name}.json"
        write_config(cfg, {
            "data": str(d / "data.csv"),
            "target": "status",
            "smote": {"enabled": True},
            "lda": {"enabled": True},
            "model": model,
        })
        op = cli(name, ["run", "-c", cfg, "--out", d / name])
        if not op.ok:
            raise SystemExit(f"set-up of {name} failed: {op.problem}")


def pass_explain_replay(d: Path, out: Path) -> PassResult:
    ops, scores = [], []
    for name in REPLAY_MODELS:
        archive = ["-a", d / name / "model", "-d", d / name / "processed_test.csv"]
        for row in LIME_ROWS:
            ops.append(cli(f"{name}_lime{row}",
                           ["explain", "-m", "lime", *archive, "--row", row, "--out", out / name],
                           [out / name / "explanations" / f"lime_row{row}.json"]))
        for seed in MORRIS_SEEDS:
            where = out / name / f"morris_seed{seed}"
            ops.append(cli(f"{name}_morris{seed}",
                           ["explain", "-m", "morris", *archive, "--seed", seed, "--out", where],
                           [where / "explanations" / "morris.json"]))
        scores.append(read_scores(d / name / "metrics.csv"))
    return PassResult(ops, scores)


WORKLOADS = {
    "run_hybrid": (setup_run_hybrid, pass_run_hybrid),
    "compare_zoo": (setup_compare_zoo, pass_compare_zoo),
    "ingest_20k": (setup_ingest_20k, pass_ingest_20k),
    "explain_replay": (setup_explain_replay, pass_explain_replay),
}


if __name__ == "__main__":
    _, workload, seed, target = sys.argv
    sys.path.insert(0, str(ROOT / "src"))
    directory = Path(target)
    directory.mkdir(parents=True)
    WORKLOADS[workload][0](directory, int(seed))
