"""Walk a raw CSV through the preprocessing stages, then balance it.

Generates a small messy dataset (nulls, categorical columns, skewed
classes), cleans it step by step, and shows what SMOTE does to the class
histogram. Everything is seeded, so the printout is reproducible.
"""

import tempfile
from pathlib import Path

import numpy as np

from credo import (
    SmoteConfig,
    SynthSpec,
    apply_scaler,
    drop_sparse_features,
    encode,
    fit_scaler,
    impute,
    load_csv,
    smote,
    split,
    write_synthetic,
)


def histogram(frame):
    counts = np.bincount(frame.labels, minlength=frame.target.n_classes)
    return {name: int(c) for name, c in zip(frame.target.class_names, counts)}


def main():
    path = Path(tempfile.mkdtemp()) / "loans.csv"
    spec = SynthSpec(rows=1200, features=10, classes=4, imbalance=0.55,
                     null_rate=0.06, categorical=3, seed=42)
    summary = write_synthetic(str(path), spec)
    print(f"wrote {summary['rows']} rows, class counts {summary['class_counts']}")

    frame = load_csv(str(path))
    print(f"\nloaded {frame.n_rows} rows x {frame.n_features} columns")
    null_rates = {n: float(c.missing_mask.mean()) for n, c in zip(frame.column_names, frame.columns)}
    worst = max(null_rates, key=null_rates.get)
    print(f"highest null rate: {worst} at {null_rates[worst]:.1%}")

    frame = drop_sparse_features(frame, threshold=0.5)
    frame = impute(frame)
    frame = encode(frame, target_name="status")
    print(f"after impute + one-hot encode: {frame.n_features} feature columns")

    train, test = split(frame, train_fraction=0.8, seed=7)
    print(f"\nstratified split: {train.n_rows} train / {test.n_rows} test")
    print("train histogram:", histogram(train))
    print("test histogram: ", histogram(test))

    params = fit_scaler(train, "zscore")
    train = apply_scaler(train, params)
    test = apply_scaler(test, params)
    mu = train.matrix.mean(axis=0)
    print(f"train means after scaling: max |mean| = {np.abs(mu).max():.2e}")

    balanced = smote(train, SmoteConfig(k_neighbors=5, seed=0))
    print(f"\nSMOTE: {train.n_rows} -> {balanced.n_rows} rows")
    print("balanced histogram:", histogram(balanced))


if __name__ == "__main__":
    main()
