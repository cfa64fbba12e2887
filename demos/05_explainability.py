"""Explain one prediction locally and the whole model globally.

Local: perturb around a single row, fit a weighted linear surrogate, and
read signed feature weights for that prediction. Global: one-at-a-time
trajectory screening gives each feature a mean absolute effect (overall
influence) and a spread (interactions/nonlinearity).
"""

import numpy as np

from credo import (
    GbtConfig,
    LimeConfig,
    MorrisConfig,
    fit_gbt,
    lime_explain,
    morris_screen,
    numeric_frame,
    rank_features,
    split,
)

FEATURES = ["income", "debt_ratio", "util", "age", "n_accounts", "noise_a", "noise_b"]


def main():
    rng = np.random.default_rng(17)
    n = 2000
    X = rng.normal(size=(n, len(FEATURES)))
    # ground truth uses only the first three columns
    score = 1.4 * X[:, 0] - 2.0 * X[:, 1] - 0.8 * X[:, 2]
    labels = (score > np.median(score)).astype(int)
    frame = numeric_frame(X, FEATURES, labels=labels, class_names=("risky", "safe"))
    train, test = split(frame, 0.8, seed=4)

    model = fit_gbt(train, GbtConfig(rounds=25, max_depth=3))
    X_test = test.matrix

    row = 5
    target = int(model.predict(X_test[row : row + 1])[0])
    local = lime_explain(model, train, X_test[row], target,
                         LimeConfig(n_samples=3000, seed=0), row_index=row)
    print(f"local surrogate for test row {row}, class {test.target.class_names[target]}"
          f" (fit R^2 {local.r_squared:.3f}):")
    for name, w, imp in zip(local.feature_names, local.weights, local.importances):
        print(f"  {name:11s} weight {w:+.4f}  share {imp:.2f}")

    X_train = train.matrix
    ranges = np.column_stack([X_train.min(axis=0), X_train.max(axis=0)])
    screening = morris_screen(model, ranges, cfg=MorrisConfig(n_trajectories=30, seed=1),
                              feature_names=train.column_names)
    print("\nglobal screening (mean |effect| and spread):")
    for name, mu_star in rank_features(screening):
        i = screening.feature_names.index(name)
        print(f"  {name:11s} mu* {mu_star:.4f}  sigma {screening.sigma[i]:.4f}")
    print("\nthe three real drivers should lead both lists; the noise columns trail")


if __name__ == "__main__":
    main()
