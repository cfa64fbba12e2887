"""The two-stage model against its own parts, across seeds.

Stage 1 boosts trees on the raw features; stage 2 trains a network head on
features derived from the frozen booster. The claim worth checking is that
the stack does not fall behind whichever single stage is stronger.
"""

import numpy as np

from credo import GbtConfig, MlpConfig, XgdnnConfig, fit_gbt, fit_hybrid, fit_mlp, numeric_frame, split


def accuracy(model, test):
    return float(np.mean(model.predict(test.matrix) == test.labels))


def main():
    print(f"{'seed':>4s} {'gbt':>8s} {'mlp':>8s} {'hybrid':>8s}  verdict")
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        means = rng.normal(scale=2.1, size=(5, 8))
        labels = np.repeat(np.arange(5), 700)
        X = rng.normal(scale=1.5, size=(3500, 8)) + means[labels]
        frame = numeric_frame(X, labels=labels)
        train, test = split(frame, 0.8, seed)

        gbt_cfg = GbtConfig(rounds=12, max_depth=3)
        mlp_cfg = MlpConfig(hidden=(32,), epochs=25, batch_size=128, seed=seed)

        acc_g = accuracy(fit_gbt(train, gbt_cfg), test)
        acc_m = accuracy(fit_mlp(train, mlp_cfg), test)
        acc_h = accuracy(fit_hybrid(train, XgdnnConfig(gbt_cfg, mlp_cfg, "margins_plus_raw")), test)

        edge = acc_h - max(acc_g, acc_m)
        verdict = "ahead" if edge > 0 else f"{100 * edge:+.2f}pp"
        print(f"{seed:4d} {acc_g:8.4f} {acc_m:8.4f} {acc_h:8.4f}  {verdict}")


if __name__ == "__main__":
    main()
