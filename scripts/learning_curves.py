#!/usr/bin/env python3
"""Synthetic learning-curve experiment: test MSE of random Fourier vs
random binning ridge regression as the number of feature copies grows.

Targets are one draw per seed of a smooth random function whose covariance
is the exponential kernel exp(-2|x - x'|) (plus observation noise), so both
map kinds approximate exactly the kernel that generated the data.  Output
is a long-form CSV ``seed,kind,copies,mse`` plus per-kind means on stderr.

Usage:
    python3 scripts/learning_curves.py --out curves.csv
    python3 scripts/learning_curves.py --seeds 20 --copies 8,16,32,64,128 \
        --train 400 --test 200 --out curves.csv
"""

import argparse
import sys

import numpy as np

from polyakern import learn
from polyakern.distributions import Gamma
from polyakern.feature_maps import (
    BINNING,
    FOURIER_REAL,
    FeatureMapConfig,
    TensorCauchy,
    build_map,
    featurize,
)
from polyakern.polya_kernels import KernelSpec
from polyakern.rng import RandomStream


def gp_dataset(seed, n_train, n_test, domain=16.0, noise=0.1):
    n = n_train + n_test
    stream = RandomStream(seed)
    x = domain * np.sort(stream.child(0).uniform(n))
    cov = np.exp(-2.0 * np.abs(x[:, None] - x[None, :]))
    chol = np.linalg.cholesky(cov + 1e-10 * np.eye(n))
    y = chol @ stream.child(1).normal(n) + noise * stream.child(2).normal(n)
    X = x.reshape(-1, 1)
    test = np.zeros(n, dtype=bool)
    test[np.argsort(stream.child(3).uniform(n))[:n_test]] = True
    return X[~test], y[~test], X[test], y[test]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--copies", default="8,32,128")
    parser.add_argument("--train", type=int, default=200)
    parser.add_argument("--test", type=int, default=100)
    parser.add_argument("--lambda", dest="lam", type=float, default=0.1)
    parser.add_argument("--tau", type=float, default=1.0,
                        help="area parameter of the binning kernel")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = KernelSpec(Gamma(s=2.0, theta=1.0), tau=args.tau)
    law = TensorCauchy(scale=spec.rho)  # same kernel through the Fourier route
    sizes = tuple(int(v) for v in args.copies.split(","))

    lines = ["seed,kind,copies,mse"]
    sums = {}
    for i in range(args.seeds):
        seed = 2000 + i
        X_tr, y_tr, X_te, y_te = gp_dataset(seed, args.train, args.test)
        for kind, kern in ((FOURIER_REAL, law), (BINNING, spec)):
            for copies in sizes:
                cfg = FeatureMapConfig(
                    kind=kind, kernel=kern, dim=1, copies=copies,
                    seed=seed * 7 + copies,
                )
                state = build_map(cfg)
                model = learn.fit(state, featurize(state, X_tr), y_tr, args.lam)
                mse = float(np.mean((learn.predict(model, X_te) - y_te) ** 2))
                lines.append(f"{seed},{kind},{copies},{mse!r}")
                sums.setdefault((kind, copies), []).append(mse)

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    for (kind, copies), values in sorted(sums.items()):
        sys.stderr.write(
            f"mean {kind} D={copies}: {float(np.mean(values)):.5f}\n"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
