"""Synthetic credit-style dataset generator."""

import csv
from pathlib import Path

import numpy as np
import pytest

from credo.errors import DataError
from credo.frame import CATEGORICAL, NUMERIC, load_csv
from credo.synth import SynthSpec, class_counts, write_synthetic

SMALL = SynthSpec(
    rows=400,
    features=8,
    classes=4,
    imbalance=0.6,
    null_rate=0.05,
    separation=2.5,
    categorical=3,
    seed=3,
)


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ------------------------------------------------------------- class_counts


def test_counts_largest_remainder_exact():
    # mass 1, .5, .25 over 100 rows: quotas 57.14, 28.57, 14.29
    spec = SynthSpec(rows=100, classes=3, imbalance=0.5, features=8)
    assert class_counts(spec).tolist() == [57, 29, 14]


def test_counts_sum_and_tail():
    counts = class_counts(SynthSpec())
    assert counts.sum() == 20000
    assert counts[0] == counts.max()
    # long tail: strictly decreasing until the repair floor kicks in
    assert np.all(np.diff(counts) <= 0)
    assert counts.min() >= 10


def test_counts_repair_floors_tiny_classes():
    spec = SynthSpec(rows=200, classes=4, imbalance=0.1, features=8)
    counts = class_counts(spec)
    assert counts.sum() == 200
    assert counts.min() >= 10
    assert counts[0] == counts.max()


def test_counts_uniform_when_balanced():
    spec = SynthSpec(rows=120, classes=4, imbalance=1.0, features=8)
    assert class_counts(spec).tolist() == [30, 30, 30, 30]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"classes": 1},
        {"rows": 15, "classes": 2},
        {"features": 3, "categorical": 3},
        {"imbalance": 0.0},
        {"imbalance": 1.2},
        {"null_rate": 1.0},
        {"null_rate": -0.1},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(DataError):
        SynthSpec(**kwargs)


def test_spec_refuses_a_non_finite_separation():
    with pytest.raises(DataError, match="separation: expected a finite number"):
        SynthSpec(separation=float("inf"))


@pytest.mark.parametrize("name", ["num_00", "num_04", "cat_0", "cat_2"])
def test_target_name_may_not_be_a_feature_column(name):
    with pytest.raises(DataError, match="also a feature column"):
        SynthSpec(rows=100, features=8, target_name=name)


@pytest.mark.parametrize("name", ["num_05", "num_0", "num_000", "cat_3", "cat_01", "num_" + "9" * 30])
def test_target_name_beside_the_feature_columns_is_written(tmp_path, name):
    path = tmp_path / "t.csv"
    write_synthetic(str(path), SynthSpec(rows=100, features=8, target_name=name))
    header = path.read_text().splitlines()[0].split(",")
    assert header[-1] == name and len(set(header)) == len(header)


# ----------------------------------------------------------- file contents


def test_header_and_row_count(tmp_path):
    path = str(tmp_path / "s.csv")
    summary = write_synthetic(path, SMALL)
    header, rows = read_rows(path)
    assert header == [
        "num_00",
        "num_01",
        "num_02",
        "num_03",
        "num_04",
        "cat_0",
        "cat_1",
        "cat_2",
        "status",
    ]
    assert len(rows) == 400
    assert summary["rows"] == 400
    assert summary["columns"] == 9


def test_cell_vocabulary(tmp_path):
    path = str(tmp_path / "s.csv")
    write_synthetic(path, SMALL)
    _, rows = read_rows(path)
    levels = {"alpha", "beta", "delta", "gamma", "NA"}
    for row in rows:
        for cell in row[:5]:
            if cell != "NA":
                float(cell)
        assert set(row[5:8]) <= levels
        assert row[8] in {"c0", "c1", "c2", "c3"}


def test_target_histogram_matches_counts(tmp_path):
    path = str(tmp_path / "s.csv")
    summary = write_synthetic(path, SMALL)
    _, rows = read_rows(path)
    seen = {}
    for row in rows:
        seen[row[8]] = seen.get(row[8], 0) + 1
    expected = dict(zip(summary["class_names"], summary["class_counts"]))
    assert seen == expected
    # target column never goes missing
    assert "NA" not in seen


def test_null_rate_within_one_point(tmp_path):
    path = str(tmp_path / "s.csv")
    write_synthetic(path, SMALL)
    _, rows = read_rows(path)
    cells = [cell for row in rows for cell in row[:8]]
    realized = sum(cell == "NA" for cell in cells) / len(cells)
    assert abs(realized - 0.05) <= 0.01


def test_loads_with_expected_kinds(tmp_path):
    path = str(tmp_path / "s.csv")
    write_synthetic(path, SMALL)
    frame = load_csv(path)
    assert frame.n_rows == 400
    kinds = {n: c.kind for n, c in zip(frame.column_names, frame.columns)}
    for name in ("num_00", "num_04"):
        assert kinds[name] == NUMERIC
    for name in ("cat_0", "cat_1", "cat_2", "status"):
        assert kinds[name] == CATEGORICAL


def test_same_seed_same_bytes(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_synthetic(a, SMALL)
    write_synthetic(b, SMALL)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_seed_changes_content_not_schema(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_synthetic(a, SMALL)
    import dataclasses

    write_synthetic(b, dataclasses.replace(SMALL, seed=4))
    ha, rows_a = read_rows(a)
    hb, rows_b = read_rows(b)
    assert ha == hb
    assert rows_a != rows_b


def test_clusters_are_separable(tmp_path):
    # per-class means of the first numeric column should spread out
    path = str(tmp_path / "s.csv")
    write_synthetic(path, SMALL)
    _, rows = read_rows(path)
    by_class = {}
    for row in rows:
        if row[0] != "NA":
            by_class.setdefault(row[8], []).append(float(row[0]))
    means = sorted(np.mean(v) for v in by_class.values())
    assert means[-1] - means[0] > 1.0


def test_default_spec_shape():
    spec = SynthSpec()
    assert (spec.rows, spec.features, spec.classes) == (20000, 30, 10)
    assert spec.categorical == 3
