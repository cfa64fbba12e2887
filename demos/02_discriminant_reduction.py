"""Fit the discriminant projection and use it both ways.

The same fitted object serves as a dimensionality reducer (project onto
the leading discriminant axes) and as a shared-covariance Gaussian
classifier of the original features: it is the zoo's ``lda`` model.
"""

import numpy as np

from credo import LdaConfig, fit_lda, numeric_frame, split, transform_lda


def main():
    rng = np.random.default_rng(3)
    n_classes, per_class, d = 5, 300, 12
    means = rng.normal(scale=2.0, size=(n_classes, d))
    labels = np.repeat(np.arange(n_classes), per_class)
    X = rng.normal(size=(n_classes * per_class, d)) + means[labels]
    frame = numeric_frame(X, labels=labels,
                          class_names=tuple(f"grade_{c}" for c in "ABCDE"))
    train, test = split(frame, 0.8, seed=1)

    projection = fit_lda(train, LdaConfig(n_components=4))
    print(f"kept {projection.n_components} of {d} dimensions")
    print("eigenvalues (between/within separation per axis):")
    for i, ev in enumerate(projection.eigenvalues):
        print(f"  LD{i + 1}: {ev:10.4f}")

    reduced = transform_lda(projection, test)
    print(f"\nprojected test block: {reduced.n_rows} x {reduced.n_features}",
          f"columns {list(reduced.column_names)}")

    # class separation before vs after, using mean pairwise centroid distance
    def centroid_spread(f):
        M = f.matrix
        cents = np.array([M[f.labels == c].mean(axis=0) for c in range(n_classes)])
        dists = np.linalg.norm(cents[:, None] - cents[None, :], axis=2)
        return dists[np.triu_indices(n_classes, 1)].mean() / M.std()

    print(f"centroid spread, raw space:       {centroid_spread(test):.2f}")
    print(f"centroid spread, projected space: {centroid_spread(reduced):.2f}")

    proba = projection.predict_proba(test)
    acc = float(np.mean(proba.argmax(axis=1) == test.labels))
    print(f"\nclassifying with the same fitted object: accuracy {acc:.3f}")


if __name__ == "__main__":
    main()
