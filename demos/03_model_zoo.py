"""Fit every model family on one dataset and print the six-metric table."""

import numpy as np

from credo import MODEL_NAMES, evaluate, fit_model, numeric_frame, split

PARAMS = {
    "forest": {"n_trees": 20, "max_depth": 6},
    "gbt": {"rounds": 15, "max_depth": 3},
    "mlp": {"hidden": [32], "epochs": 30, "batch_size": 64},
    "xgdnn": {
        "gbt": {"rounds": 15, "max_depth": 3},
        "mlp": {"hidden": [32], "epochs": 30, "batch_size": 64},
        "feature_mode": "margins_plus_raw",
    },
}

METRICS = ("accuracy", "sensitivity", "specificity", "g_mean", "h_measure", "f1")


def main():
    rng = np.random.default_rng(8)
    means = rng.normal(scale=1.8, size=(4, 10))
    labels = np.repeat(np.arange(4), 350)
    X = rng.normal(size=(1400, 10)) + means[labels]
    frame = numeric_frame(X, labels=labels)
    train, test = split(frame, 0.8, seed=2)
    y, n_classes = test.labels, 4

    header = f"{'model':8s}" + "".join(f"{m:>12s}" for m in METRICS)
    print(header)
    print("-" * len(header))
    for name in MODEL_NAMES:
        model = fit_model(name, train, dict(PARAMS.get(name, {})))
        proba = model.predict_proba(test.matrix)
        report = evaluate(y, proba.argmax(axis=1), proba, n_classes)
        cells = "".join(f"{100 * getattr(report, m):11.2f}%" for m in METRICS)
        print(f"{name:8s}{cells}")


if __name__ == "__main__":
    main()
