"""The memory budget of the blocked loops changes no output byte.

Every budget from 1 byte (one row per block) to 2**40 (one block) must give
the same table from ``load_csv``, the same text from ``write_csv`` as a
per-cell ``repr`` oracle, the same tree-ensemble predictions and booster
leaf indices, and the same SMOTE rows.
"""

import csv
import io
import os
import tempfile
from functools import cache
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from credo import budget
from credo.frame import load_csv, numeric_frame, write_csv
from credo.gbt import extract_leaf_indices
from credo.resample import SmoteConfig, smote
from credo.trees import FlatTree, TreeStack
from credo.zoo import fit_model

BUDGETS = st.one_of(st.integers(1, 4096), st.integers(1, 2**40))
ONE_HOT = (-0.5773502691896258, 1.7320508075688772)  # a z-scored 0/1 column
CELLS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.1, 5e-324, 1e16]), st.floats(-1e3, 1e3))


# ------------------------------------------------------------------ inputs


@st.composite
def csv_texts(draw):
    """CSV text with numeric cells, missing tokens, a column that turns
    categorical after its first rows, and a categorical target."""
    n = draw(st.integers(1, 30))
    late = draw(st.integers(0, n - 1))
    rows = []
    for i in range(n):
        number = draw(CELLS)
        rows.append([
            draw(st.sampled_from(["NA", "", repr(number)])),
            "word" if i == late else repr(float(i)),
            draw(st.sampled_from(["a", "b,c", 'd"'])),
        ])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "late", "status"])
    writer.writerows(rows)
    return buf.getvalue()


@st.composite
def tables_to_write(draw):
    """(X, codes, levels, missing): one-hot, signed-zero, all-distinct and
    drawn float columns, two code columns, and an NA mask."""
    n = draw(st.integers(0, 40))
    pick = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    drawn = draw(st.lists(CELLS, min_size=n, max_size=n))
    X = np.column_stack([
        np.where(pick, *ONE_HOT),
        np.where(pick, 0.0, -0.0),
        np.arange(n) / 7 - 3,
        np.array(drawn, dtype=float),
    ]).reshape(n, 4)
    levels = [("no", "yes"), ("a", "b,c", 'd"')]
    codes = np.column_stack([pick.astype(int), np.arange(n) % 3]).reshape(n, 2)
    flags = draw(st.lists(st.booleans(), min_size=n * 5, max_size=n * 5))
    missing = np.array(flags, dtype=bool).reshape(n, 5)
    return X, codes, levels, missing


@st.composite
def smote_frames(draw):
    """A tie-heavy class-imbalanced frame and a SMOTE config whose k fits
    every class."""
    k = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(k + 1, 60), min_size=2, max_size=3))
    d = draw(st.integers(1, 40))
    # values off the binary grid tie in exact arithmetic but not in floats,
    # so a product that rounds differently per chunk reorders neighbours
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.array([0.0, 0.1, 0.3, *ONE_HOT])[rng.integers(0, 5, (sum(counts), d))]
    X[draw(st.integers(0, len(X) - 1))] = X[0]  # a duplicated row
    frame = numeric_frame(X, labels=np.repeat(np.arange(len(counts)), counts))
    return frame, SmoteConfig(k_neighbors=k, seed=draw(st.integers(0, 3)))


# ---------------------------------------------------------------- oracles


def _table_key(table):
    return table.column_names, table.n_rows, [(c.kind, c.levels, c.values.tobytes()) for c in table.columns]


def _csv_by_cell(X, codes, levels, missing):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"h{j}" for j in range(X.shape[1] + codes.shape[1])])
    for i in range(len(X)):
        row = [repr(float(x)) for x in X[i]] + [names[c] for names, c in zip(levels, codes[i])]
        writer.writerow(["NA" if j < missing.shape[1] and missing[i, j] else cell for j, cell in enumerate(row)])
    return out.getvalue()


@cache
def _ensembles():
    """Forest, booster and CART fitted once, with a tie-heavy query matrix."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(90, 4)).round(1)
    y = rng.integers(0, 3, len(X))
    train = numeric_frame(X, labels=y)
    models = [
        fit_model("forest", train, {"n_trees": 5, "max_depth": 4, "seed": 1}),
        fit_model("gbt", train, {"rounds": 3, "max_depth": 2}),
        fit_model("tree", train, {"max_depth": 5}),
    ]
    return X, models


def _inference(X, models):
    out = [m.predict_proba(X).tobytes() for m in models]
    return out + [extract_leaf_indices(models[1], X).tobytes()]


# ---------------------------------------------------------------- property


@settings(max_examples=100, deadline=None)
@given(BUDGETS, csv_texts(), tables_to_write(), smote_frames())
def test_no_budget_changes_a_byte(block_bytes, text, table, smote_case):
    X, models = _ensembles()
    frame, cfg = smote_case
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        loaded = _table_key(load_csv(path, categorical="status"))
        inference, oversampled = _inference(X, models), smote(frame, cfg)
        with mock.patch.object(budget, "BLOCK_BYTES", block_bytes):
            assert _table_key(load_csv(path, categorical="status")) == loaded

            written = io.StringIO()
            Xw, codes, levels, missing = table
            write_csv(written, [f"h{j}" for j in range(6)], Xw, codes, levels, missing=missing)
            assert written.getvalue() == _csv_by_cell(Xw, codes, levels, missing)

            assert _inference(X, models) == inference

            again = smote(frame, cfg)
            assert again.matrix.tobytes() == oversampled.matrix.tobytes()
            assert np.array_equal(again.labels, oversampled.labels)


# ------------------------------------------------------------- the walk


def test_a_thousand_tree_stack_walks_blocks_within_the_budget():
    stump = FlatTree(
        np.array([0, -1, -1]), np.array([0.0, np.nan, np.nan]), np.array([1, -1, -1]), np.array([2, -1, -1])
    )
    stack = TreeStack([stump] * 1000)
    X = np.linspace(-1, 1, 300)[:, None]
    blocks = list(stack.blocks(X))
    assert max(len(nodes) for _, nodes in blocks) <= budget.BLOCK_BYTES // (8 * 1000)
    assert np.array_equal(np.vstack([nodes for _, nodes in blocks]), stack.route(X))
    assert np.array_equal(stack.route(X)[:, 999], np.where(X[:, 0] <= 0, 2998, 2999))
