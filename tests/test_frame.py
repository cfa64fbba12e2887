import csv
import io
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from credo import budget
from credo.errors import DataError
from credo.frame import (
    CATEGORICAL,
    MISSING_TOKENS,
    NUMERIC,
    Column,
    Frame,
    Table,
    apply_scaler,
    drop_sparse_features,
    encode,
    fit_scaler,
    impute,
    load_csv,
    numeric_frame,
    split,
    write_csv,
)
from credo.lda import fit_lda, transform_lda
from credo.resample import SmoteConfig, smote
from credo.synth import SynthSpec, write_synthetic


# ---------------------------------------------------------------- load_csv


def test_numeric_inference_and_null_fraction(csv_file):
    path = csv_file("a,b\n1,x\n2.5,y\n,z\n")
    f = load_csv(path)
    a = f.column("a")
    assert a.kind == NUMERIC
    assert a.null_fraction == pytest.approx(1 / 3)
    assert f.column("b").kind == CATEGORICAL


def test_missing_tokens_are_case_sensitive(csv_file):
    # "na" is a real value, so the whole column turns categorical
    path = csv_file("a,b\nNA,null\n1,na\n")
    f = load_csv(path)
    assert f.column("a").kind == NUMERIC
    assert f.column("a").missing_mask.tolist() == [True, False]
    b = f.column("b")
    assert b.kind == CATEGORICAL
    assert b.missing_mask.tolist() == [True, False]
    assert b.levels[b.values[1]] == "na"


def test_non_finite_cells_force_categorical(csv_file):
    f = load_csv(csv_file("a\n1\ninf\n"))
    assert f.column("a").kind == CATEGORICAL


def test_quoted_cells_with_commas(csv_file):
    f = load_csv(csv_file('a,b\n"1,5",2\n"x",3\n'))
    assert f.column("a").kind == CATEGORICAL
    a = f.column("a")
    assert a.levels[a.values[0]] == "1,5"


def test_ragged_row_reports_index(csv_file):
    with pytest.raises(DataError, match="data row 2"):
        load_csv(csv_file("a,b\n1,2\n3\n"))


def test_empty_file_and_headerless(csv_file):
    with pytest.raises(DataError, match="empty"):
        load_csv(csv_file(""))
    with pytest.raises(DataError, match="no data rows"):
        load_csv(csv_file("a,b\n"))


def test_categorical_overrides_inference(csv_file):
    path = csv_file("code,v\n1,2\n2,3\n")
    f = load_csv(path, categorical="code")
    assert f.column("code").kind == CATEGORICAL
    code = f.column("code")
    assert code.levels[code.values[0]] == "1"


def test_categorical_names_a_missing_column(csv_file):
    path = csv_file("a\nx\n")
    with pytest.raises(DataError, match=f"^{re.escape(path)}: no column named 'nope'$"):
        load_csv(path, categorical="nope")


def test_duplicate_header_rejected(csv_file):
    with pytest.raises(DataError, match="unique"):
        load_csv(csv_file("a,a\n1,2\n"))


def _cells(column):
    """A column's cells: the float64 bytes of a numeric column, else the
    level of each categorical cell, None where it is missing."""
    if column.kind == NUMERIC:
        return column.values.tobytes()
    return [None if c < 0 else column.levels[c] for c in column.values.tolist()]


def _load_csv_cells(path, categorical=None):
    frame = load_csv(path, categorical=categorical)
    columns = [(c.kind, c.missing_mask.tobytes(), _cells(c)) for c in frame.columns]
    return frame.column_names, frame.n_rows, columns


def _load_csv_cell_by_cell(path, categorical=None):
    """The loader as it was before columnar conversion: one float() per cell,
    strings for categorical cells.

    Kept as the oracle for :func:`load_csv`, which must match it in kinds,
    masks, cells and error messages.
    """

    def parse_finite(cell):
        try:
            value = float(cell)
        except ValueError:
            return None
        return value if math.isfinite(value) else None

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if categorical is not None and categorical not in header:
            raise DataError(f"{path}: no column named {categorical!r}")
        rows = []
        for i, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: data row {i}: expected {len(header)} cells, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")

    columns = []
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        missing = np.fromiter((c in MISSING_TOKENS for c in cells), dtype=bool, count=len(cells))
        parsed = [None if m else parse_finite(c) for c, m in zip(cells, missing)]
        all_numeric = all(p is not None for p, m in zip(parsed, missing) if not m)
        kind = NUMERIC if all_numeric and name != categorical else CATEGORICAL
        if kind == NUMERIC:
            values = np.array(
                [np.nan if m else p for p, m in zip(parsed, missing)], dtype=np.float64
            )
        else:
            values = np.array([None if m else c for c, m in zip(cells, missing)], dtype=object)
        cells = values.tobytes() if kind == NUMERIC else values.tolist()
        columns.append((kind, missing.tobytes(), cells))

    return tuple(header), len(rows), columns


ORACLE_CELLS = [
    "", "NA", "null", "na", "Null", " 1.5", "1.5 ", "1_000", "+2", "-0.0", "3", "2.5e-3",
    "1e308", "1e999", "Infinity", "-inf", "nan", "x", "a,b", 'say "hi"', "line\nbreak",
]
ORACLE_NAMES = ["a", "b,c", 'q"t', "d"]


@st.composite
def csv_tables(draw):
    """CSV text mixing missing tokens, float() edge cases, quoting, blank
    lines and the occasional ragged row, plus a column to read as categorical:
    none, a header name or one not in the header."""
    width = draw(st.integers(1, len(ORACLE_NAMES)))
    header = ORACLE_NAMES[:width]
    # a column leans numeric or textual so that numeric columns actually occur
    pools = [
        draw(st.sampled_from([ORACLE_CELLS[:13], ORACLE_CELLS])) for _ in range(width)
    ]
    cell = lambda j: st.one_of(
        st.sampled_from(pools[j]), st.floats(allow_nan=False, allow_infinity=False).map(repr)
    )
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "short", "long"]))
        if kind == "blank":
            rows.append(None)
            continue
        row = [draw(cell(j)) for j in range(width)]
        if kind == "short" and width > 1:
            row = row[:-1]
        elif kind == "long":
            row = row + ["9"]
        rows.append(row)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if draw(st.integers(0, 9)) == 0:
        buf.write("\n")  # a blank first line is an empty header
    writer.writerow(header)
    for row in rows:
        if row is None:
            buf.write("\n")
        else:
            writer.writerow(row)
    categorical = draw(st.none() | st.sampled_from(header + ["ghost"]))
    return buf.getvalue(), categorical


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DataError as e:
        return "error", str(e)


@settings(max_examples=300, deadline=None)
@given(csv_tables())
@example(("\n\n\n", None))  # an empty header over blank lines only
@example(("a,b\n1000,x\n1_000,y\n\n2,z\nword,w\n1000,v\n", None))  # a turns categorical late
@example(("a,b\n1,2\n\n3,4\n\n\nx,5\n", "a"))  # a numeric-looking column read as categorical
@example(("a,b\n1,2\n3\n", "ghost"))  # the missing name is found before the ragged row
def test_load_csv_matches_cell_by_cell_oracle(table):
    text, categorical = table
    width = max(1, len(next(csv.reader(io.StringIO(text)), [])))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        expected = _outcome(_load_csv_cell_by_cell, path, categorical)
        assert _outcome(_load_csv_cells, path, categorical) == expected
        for block_rows in (1, 2, 3):  # every block boundary, and a re-read per late column
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(budget, "BLOCK_BYTES", block_rows * width * budget.TEXT_CELL)
                assert _outcome(_load_csv_cells, path, categorical) == expected, block_rows


def test_load_csv_memory_is_the_columns_and_one_block(tmp_path, monkeypatch):
    # a reader that holds every cell as a Python string until the transpose
    # peaks near 10x the arrays; a block of 4,096 cells is about 0.4 MB here
    path = str(tmp_path / "t.csv")
    write_synthetic(path, SynthSpec(rows=4000, seed=1))
    monkeypatch.setattr(budget, "BLOCK_BYTES", 4096 * budget.TEXT_CELL)
    tracemalloc.start()
    try:
        frame = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(c.values.nbytes for c in frame.columns)
    assert peak < 3 * arrays, (peak, arrays)


SPECIAL_FLOATS = [0.0, -0.0, 1.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 1e-5, 0.1]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 9),
    st.integers(0, 3),
    st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3, unique=True),
    st.data(),
)
def test_write_csv_matches_csv_writer(n, d, words, data):
    block_rows = data.draw(st.integers(1, 4))  # several blocks and a partial last one
    cell = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))
    X = np.array(data.draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n)))
    X = X.reshape(n, d)
    codes = np.array(data.draw(st.lists(st.integers(0, len(words) - 1), min_size=n, max_size=n)))
    missing = np.array(data.draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d)), dtype=bool)
    missing = missing.reshape(n, d)
    header = [f"h{j}" for j in range(d)] + ["t,\"arget"]

    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    for i in range(n):
        row = ["NA" if missing[i, j] else repr(float(X[i, j])) for j in range(d)]
        writer.writerow(row + [words[codes[i]]])
    actual = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(budget, "BLOCK_BYTES", block_rows * (d + 1) * budget.TEXT_CELL)
        write_csv(actual, header, X, codes.reshape(n, 1), [words], missing=missing)
    assert actual.getvalue() == expected.getvalue()


def test_write_csv_renders_repeated_cells_like_csv_writer(monkeypatch):
    # a column that repeats its values renders each distinct float
    # once; values count as distinct by their bits, so -0.0 and 0.0 stay apart
    n, block_rows = 50, 16  # 4 blocks, the last partial
    specials = [0.0, -0.0, math.nan, math.copysign(math.nan, -1), math.inf, -math.inf, 5e-324]
    X = np.column_stack([
        np.where(np.arange(n) % 3 == 0, -0.5773502691896258, 1.7320508075688772),  # one-hot, z-scored
        np.resize(specials, n),  # each block repeats every special
        np.arange(n) / 7 - 3,  # all distinct
    ])
    codes = np.column_stack([np.arange(n) % 2, np.arange(n) % 3])
    levels = [("no", "yes"), ("a", "b,c", 'd"')]
    missing = np.zeros((n, 4), dtype=bool)  # the three float columns and the first code column
    missing[np.arange(n) % 5 == 1, 0] = True
    missing[np.arange(n) % 4 == 2, 1] = True
    missing[[0, 17, 49], 2] = True
    missing[np.arange(n) % 6 == 3, 3] = True
    header = ["h0", "h1", "h2", "k0", "k1"]

    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    for i in range(n):
        row = [repr(float(x)) for x in X[i]] + [levels[c][codes[i, c]] for c in range(2)]
        writer.writerow(["NA" if j < 4 and missing[i, j] else cell for j, cell in enumerate(row)])
    actual = io.StringIO()
    monkeypatch.setattr(budget, "BLOCK_BYTES", block_rows * len(header) * budget.TEXT_CELL)
    write_csv(actual, header, X, codes, levels, missing=missing)
    assert actual.getvalue() == expected.getvalue()
    assert ",0.0," in actual.getvalue() and ",-0.0," in actual.getvalue()


# ---------------------------------------------- drop_sparse_features


def _frame_with_null_fractions(fractions, n_rows=100):
    cols = []
    for frac in fractions:
        mask = np.zeros(n_rows, dtype=bool)
        mask[: int(round(frac * n_rows))] = True
        cols.append(Column(NUMERIC, np.where(mask, np.nan, 1.0)))
    names = tuple(f"f{i}" for i in range(len(fractions)))
    return Table(names, tuple(cols), n_rows)


def test_drop_sparse_strictly_greater():
    f = _frame_with_null_fractions([0.0, 0.5, 0.51, 1.0])
    kept = drop_sparse_features(f, 0.5)
    assert kept.column_names == ("f0", "f1")


def test_drop_sparse_idempotent():
    f = _frame_with_null_fractions([0.0, 0.2, 0.5, 0.7, 0.9])
    once = drop_sparse_features(f, 0.5)
    twice = drop_sparse_features(once, 0.5)
    assert once.column_names == twice.column_names
    assert once.n_rows == twice.n_rows


def test_drop_sparse_bad_threshold():
    f = _frame_with_null_fractions([0.0])
    with pytest.raises(DataError):
        drop_sparse_features(f, 0.0)
    with pytest.raises(DataError):
        drop_sparse_features(f, 1.5)


def test_drop_sparse_all_dropped():
    # a table left with no feature column is refused by `encode`, which
    # knows the target: see tests/test_cli.py's no-feature-column test
    f = _frame_with_null_fractions([0.9, 1.0])
    kept = drop_sparse_features(f, 0.5)
    assert kept.column_names == () and kept.columns == ()
    assert kept.n_rows == 100


# --------------------------------------------------------------- impute


def test_impute_numeric_median(csv_file):
    f = load_csv(csv_file("a\n1\nNA\n3\n"))
    filled = impute(f)
    assert filled.column("a").values.tolist() == [1.0, 2.0, 3.0]
    assert not filled.column("a").missing_mask.any()


def test_impute_median_of_huge_cells_stays_finite(csv_file, recwarn):
    # the two middle cells' sum overflows; their halves do not
    f = load_csv(csv_file("a,y\n1.7e308,p\n1.7e308,q\nNA,p\n1e308,q\n1e308,p\n"))
    filled = impute(f).column("a").values
    assert filled[2] == 1e308 / 2 + 1.7e308 / 2
    assert np.isfinite(filled).all()
    assert not recwarn.list


def test_impute_categorical_mode(csv_file):
    f = load_csv(csv_file("c\na\nb\nb\nNA\n"))
    filled = impute(f)
    c = filled.column("c")
    assert [c.levels[code] for code in c.values] == ["a", "b", "b", "b"]


def test_impute_mode_tie_lexicographic(csv_file):
    f = load_csv(csv_file("c\nb\na\nNA\nNA\n"))
    filled = impute(f)
    # a and b tie at count 1; the smaller value wins
    c = filled.column("c")
    assert c.levels[c.values[2]] == "a"
    assert c.levels[c.values[3]] == "a"


def test_impute_all_missing_column_errors(csv_file):
    f = load_csv(csv_file("a,b\n,1\n,2\n"))
    with pytest.raises(DataError, match="entirely missing"):
        impute(f)


@given(
    st.lists(
        st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False)),
        min_size=2,
        max_size=30,
    )
)
def test_impute_preserves_observed_cells(cells):
    mask = np.array([c is None for c in cells])
    if mask.all():
        return
    values = np.array([np.nan if c is None else c for c in cells])
    f = Table(("a",), (Column(NUMERIC, values),), len(cells))
    filled = impute(f)
    out = filled.column("a").values
    assert np.array_equal(out[~mask], values[~mask])
    assert not np.isnan(out).any()


# --------------------------------------------------------------- encode


LOAN_STATUSES = [
    "Active",
    "Approved",
    "Cancelled",
    "Charged Off",
    "Closed",
    "Current",
    "Default",
    "Fully Paid",
    "Issued",
    "Late",
]


def test_encode_ten_status_target_current_is_label_5(csv_file):
    rows = "".join(f"{s},1\n" for s in LOAN_STATUSES)
    f = load_csv(csv_file("loan_status,x\n" + rows))
    enc = encode(f, "loan_status")
    assert enc.target.n_classes == 10
    assert sorted(LOAN_STATUSES).index("Current") == 5
    assert enc.target.class_names[5] == "Current"
    current_row = LOAN_STATUSES.index("Current")
    assert enc.target.labels[current_row] == 5


def test_encode_lexicographic_labels(csv_file):
    f = load_csv(csv_file("t,x\nc,1\na,2\nb,3\n"))
    enc = encode(f, "t")
    assert enc.target.class_names == ("a", "b", "c")
    assert enc.target.labels.tolist() == [2, 0, 1]


def test_encode_one_hot_binary_feature(csv_file):
    f = load_csv(csv_file("g,t\nx,a\ny,b\nx,a\n"))
    enc = encode(f, "t")
    assert enc.column_names == ("g=x", "g=y")
    X = enc.matrix
    assert np.array_equal(X.sum(axis=1), np.ones(3))
    assert X[:, 0].tolist() == [1.0, 0.0, 1.0]


def test_encode_one_hot_group_sums_to_one(csv_file):
    f = load_csv(csv_file("g,h,t\nred,u,a\ngreen,v,b\nblue,u,a\nred,w,b\n"))
    enc = encode(f, "t")
    g_cols = [i for i, n in enumerate(enc.column_names) if n.startswith("g=")]
    h_cols = [i for i, n in enumerate(enc.column_names) if n.startswith("h=")]
    X = enc.matrix
    assert np.array_equal(X[:, g_cols].sum(axis=1), np.ones(4))
    assert np.array_equal(X[:, h_cols].sum(axis=1), np.ones(4))


def test_trailing_nul_keeps_its_own_level(csv_file):
    # numpy's fixed-width strings drop a trailing NUL; a level keeps its spelling
    f = load_csv(csv_file("g,t\na\x00,a\x00\na,a\nNA,b\na\x00,b\n"), categorical="t")
    enc = encode(impute(f), "t")
    assert enc.target.class_names == ("a", "a\x00", "b")
    assert enc.target.labels.tolist() == [1, 0, 2, 2]
    assert enc.column_names == ("g=a", "g=a\x00")
    assert enc.matrix[:, 1].tolist() == [1.0, 0.0, 1.0, 1.0]  # a\x00 is the mode


def _impute_encode_by_strings(frame, cells, target):
    """:func:`impute` then :func:`encode` on categorical cells held as
    strings (None where missing): categories by ``astype(str)`` and
    ``sorted(set(...))``, the mode's ties to the smallest value.

    Kept as the reference for the coded columns. Returns the imputed cells
    of each column (as :func:`_cells` gives them), the feature names, the
    feature matrix bytes, the class names and the labels.
    """
    imputed, names, features = [], [], []
    for name, col in zip(frame.column_names, frame.columns):
        if col.kind == NUMERIC:
            values = col.values.copy()
            missing = np.isnan(values)
            if missing.any():
                observed = np.sort(values[~missing])
                k = len(observed) // 2
                with np.errstate(over="ignore"):  # an overflowing sum is caught just below
                    median = observed[k] if len(observed) % 2 else (observed[k - 1] + observed[k]) / 2
                if math.isinf(median):  # two middle cells whose sum overflows: average by halves
                    median = observed[k - 1] / 2 + observed[k] / 2
                values[missing] = median
            imputed.append(values.tobytes())
            names.append(name)
            features.append(values)
            continue
        values = np.array(cells[name], dtype=object)
        missing = np.array([c is None for c in cells[name]])
        if missing.any():
            uniq, counts = np.unique(values[~missing].astype(str), return_counts=True)
            values[missing] = str(min(uniq[counts == counts.max()]))
        imputed.append(values.tolist())
        raw = values.astype(str)
        categories = sorted(set(raw.tolist()))
        if name == target:
            class_names = tuple(categories)
            labels = [categories.index(v) for v in raw.tolist()]
            continue
        for category in categories:
            names.append(f"{name}={category}")
            features.append((raw == category).astype(np.float64))
    return imputed, tuple(names), np.column_stack(features).tobytes(), class_names, labels


def _impute_encode(frame, target):
    imputed = impute(frame)
    enc = encode(imputed, target)
    cells = [_cells(c) for c in imputed.columns]
    X = enc.matrix.tobytes()
    return cells, enc.column_names, X, enc.target.class_names, enc.labels.tolist()


TEXT_CELLS = st.one_of(
    st.sampled_from(["", "NA", "null", "a", "b", "ab", "B", "1_000", "1000", "é"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r"), max_size=3),
)
NUMBER_CELLS = st.one_of(
    st.sampled_from(["", "NA"]), st.floats(allow_nan=False, allow_infinity=False).map(repr)
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_impute_encode_match_string_reference(data):
    n = data.draw(st.integers(2, 12))
    pools = data.draw(st.lists(st.sampled_from([TEXT_CELLS, NUMBER_CELLS]), min_size=1, max_size=3))
    table = {f"f{j}": data.draw(st.lists(pool, min_size=n, max_size=n)) for j, pool in enumerate(pools)}
    table["t"] = data.draw(st.lists(st.sampled_from(["x", "y", "z", "x "]), min_size=n, max_size=n))
    assume(len(set(table["t"])) > 1)
    assume(all(not MISSING_TOKENS.issuperset(cells) for cells in table.values()))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(table)
            writer.writerows(zip(*table.values()))
        frame = load_csv(path, categorical="t")
    cells = {name: [None if c in MISSING_TOKENS else c for c in col] for name, col in table.items()}
    expected = _outcome(_impute_encode_by_strings, frame, cells, "t")
    assert _outcome(_impute_encode, frame, "t") == expected


def test_encode_errors(csv_file):
    f = load_csv(csv_file("a,t\n1,x\n2,y\n"))
    with pytest.raises(DataError, match="unknown target"):
        encode(f, "nope")
    with pytest.raises(DataError, match="numeric"):
        encode(f, "a")
    g = load_csv(csv_file("c,t\n,x\nu,y\n"))
    with pytest.raises(DataError, match="impute first"):
        encode(g, "t")


# ------------------------------------------------------ the feature matrix


def _assert_read_only_matrix(frame):
    X = frame.matrix
    assert X.dtype == np.float64 and X.flags.c_contiguous and not X.flags.writeable
    with pytest.raises(ValueError):
        X[0, 0] = 1.0


def test_every_frame_holds_one_read_only_c_order_matrix(csv_file):
    A = np.arange(24, dtype=np.float64).reshape(8, 3)
    viewed = numeric_frame(A, labels=[0, 1] * 4)
    assert np.shares_memory(viewed.matrix, A)  # a view, not a copy
    assert A.flags.writeable  # the caller's array keeps its flag
    assert numeric_frame(np.asfortranarray(A)).matrix.flags.c_contiguous

    rows = "".join(f"{i % 7},{'uv'[i % 2]},{'ab'[i % 5 == 0]}\n" for i in range(40))
    encoded = encode(load_csv(csv_file("x,g,t\n" + rows)), "t")
    train, test = split(encoded, 0.5, seed=0)
    scaled = apply_scaler(train, fit_scaler(train))
    balanced = smote(scaled, SmoteConfig(k_neighbors=2, seed=0))
    assert balanced.n_rows > scaled.n_rows
    reduced = transform_lda(fit_lda(scaled), scaled)
    for frame in (viewed, encoded, train, test, scaled, balanced, reduced):
        assert isinstance(frame, Frame)
        _assert_read_only_matrix(frame)


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
def test_a_frame_rejects_a_missing_or_non_finite_cell(cell):
    with pytest.raises(DataError, match="impute"):
        numeric_frame(np.array([[0.0, 1.0], [cell, 2.0]]))


def test_each_stage_peaks_within_a_multiple_of_the_feature_matrix(tmp_path):
    # a frame of columns, stacked and split again around each stage, peaks
    # near 2.5x the matrix in scale; one matrix per frame keeps it near 1x
    path = str(tmp_path / "t.csv")
    write_synthetic(path, SynthSpec(rows=4000, seed=3))
    table = drop_sparse_features(load_csv(path, categorical="status"), 0.5)

    def peak(stage):
        tracemalloc.start()
        try:
            return stage(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def scale():
        params = fit_scaler(train, "zscore")
        return apply_scaler(train, params), apply_scaler(test, params)

    imputed, impute_peak = peak(lambda: impute(table))
    encoded, encode_peak = peak(lambda: encode(imputed, "status"))
    (train, test), split_peak = peak(lambda: split(encoded, 0.8, seed=0))
    _, scale_peak = peak(scale)
    matrix = encoded.matrix.nbytes
    peaks = {"impute": impute_peak, "encode": encode_peak, "split": split_peak, "scale": scale_peak}
    bounds = {"impute": 2.0, "encode": 1.5, "split": 1.25, "scale": 1.5}
    assert {k: v / matrix for k, v in peaks.items() if v > bounds[k] * matrix} == {}


# --------------------------------------------------------------- scaler


def test_minmax_endpoints():
    f = numeric_frame(np.array([[0.0], [10.0]]))
    p = fit_scaler(f, "minmax")
    out = apply_scaler(f, p).matrix
    assert out[:, 0].tolist() == [0.0, 1.0]


def test_zscore_population_std():
    f = numeric_frame(np.array([[1.0], [2.0], [3.0]]))
    p = fit_scaler(f, "zscore")
    out = apply_scaler(f, p).matrix[:, 0]
    assert out.mean() == pytest.approx(0.0, abs=1e-12)
    assert out.var() == pytest.approx(1.0, abs=1e-12)
    # population std of {1,2,3} is sqrt(2/3), not 1
    assert p.scale[0] == pytest.approx(np.sqrt(2.0 / 3.0))


def test_constant_column_maps_to_zero():
    f = numeric_frame(np.full((4, 1), 7.0))
    for mode in ("zscore", "minmax"):
        p = fit_scaler(f, mode)
        out = apply_scaler(f, p).matrix
        assert np.array_equal(out[:, 0], np.zeros(4))
        assert p.scale[0] == 1.0


def test_minmax_out_of_range_unclamped():
    train = numeric_frame(np.array([[0.0], [10.0]]))
    p = fit_scaler(train, "minmax")
    test = numeric_frame(np.array([[15.0], [-5.0]]))
    out = apply_scaler(test, p).matrix[:, 0]
    assert out.tolist() == [1.5, -0.5]


def test_an_unknown_scaler_mode_is_refused_naming_the_modes():
    f = numeric_frame(np.zeros((3, 1)))
    with pytest.raises(DataError) as refused:
        fit_scaler(f, "x")
    assert str(refused.value) == "mode: expected one of zscore, minmax, got 'x'"


def test_scaler_column_mismatch():
    f = numeric_frame(np.zeros((3, 2)), names=["a", "b"])
    g = numeric_frame(np.zeros((3, 2)), names=["a", "c"])
    p = fit_scaler(f, "zscore")
    with pytest.raises(DataError, match="mismatch"):
        apply_scaler(g, p)


@settings(max_examples=50)
@given(
    st.integers(2, 20),
    st.integers(1, 5),
    st.sampled_from(["zscore", "minmax"]),
    st.integers(0, 2**32 - 1),
)
def test_scaler_round_trip(n, d, mode, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=10.0, size=(n, d))
    X[:, 0] = 3.5  # keep one constant column in the mix
    f = numeric_frame(X)
    p = fit_scaler(f, mode)
    back = apply_scaler(f, p).matrix * p.scale + p.location
    assert np.allclose(back, X, atol=1e-10)


# ----------------------------------------------------------------- split


def _labeled_frame(counts, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(counts)), counts)
    X = rng.normal(size=(len(labels), 3))
    return numeric_frame(X, labels=labels)


def test_split_80_20_balanced():
    f = _labeled_frame([10] * 10)
    train, test = split(f, 0.8, seed=7)
    assert (train.n_rows, test.n_rows) == (80, 20)
    assert np.bincount(train.labels, minlength=10).tolist() == [8] * 10
    assert np.bincount(test.labels, minlength=10).tolist() == [2] * 10


def test_split_smallest_case():
    f = _labeled_frame([2, 2])
    train, test = split(f, 0.5, seed=1)
    assert np.bincount(train.labels).tolist() == [1, 1]
    assert np.bincount(test.labels).tolist() == [1, 1]


def test_split_deterministic():
    f = _labeled_frame([7, 13, 5])
    a_train, a_test = split(f, 0.8, seed=42)
    b_train, b_test = split(f, 0.8, seed=42)
    assert np.array_equal(a_train.matrix, b_train.matrix)
    assert np.array_equal(a_test.matrix, b_test.matrix)
    c_train, _ = split(f, 0.8, seed=43)
    assert not np.array_equal(a_train.matrix, c_train.matrix)


def test_split_largest_remainder_totals():
    # quotas 1.5/1.5/2.0 under fraction 0.5: totals must hit round(5)=5... here
    # round(10*0.5)=5, floor sum is 4, so exactly one class gains a row and the
    # tie at remainder 0.5 goes to the smaller class index
    f = _labeled_frame([3, 3, 4])
    train, test = split(f, 0.5, seed=3)
    got = np.bincount(train.labels, minlength=3).tolist()
    assert got == [2, 1, 2]
    assert train.n_rows == 5 and test.n_rows == 5


def test_split_partition_invariant():
    f = _labeled_frame([9, 4, 6], seed=5)
    # tag rows uniquely through a feature so we can recover indices
    X = f.matrix.copy()
    X[:, 0] = np.arange(f.n_rows)
    f = numeric_frame(X, labels=f.labels)
    train, test = split(f, 0.7, seed=11)
    ids = np.concatenate([train.matrix[:, 0], test.matrix[:, 0]])
    assert sorted(ids.tolist()) == list(range(f.n_rows))


def test_split_rejects_tiny_class():
    f = _labeled_frame([5, 1])
    with pytest.raises(DataError, match="fewer than 2"):
        split(f, 0.8, seed=0)


def test_split_needs_target():
    f = numeric_frame(np.zeros((4, 2)))
    with pytest.raises(DataError, match="target"):
        split(f, 0.8, seed=0)
