"""Acceptance suite: one test per acceptance criterion, each printing a
single machine-greppable [PASS]/[FAIL] line with its measured margin.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
suite executes; without ``-s`` they appear in pytest's captured output.

Every check here is against an independent oracle: brute-force quadrature,
Monte Carlo sampling with theory formulas derived separately, or frozen
reference values computed by hand.  Nothing in this file reuses the code
path it is checking as its own reference.
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate
from scipy.special import exp1, gammainc, gammaincc, hyp1f1

from polyakern import approx, learn
from polyakern.distributions import (
    Chi,
    ChiSquare,
    Exponential,
    Gamma,
    HalfNormal,
    Nakagami,
    Rayleigh,
    ShiftedPoisson,
    Weibull,
)
from polyakern.feature_maps import (
    BINNING,
    FOURIER_COMPLEX,
    FOURIER_REAL,
    FeatureMapConfig,
    TensorCauchy,
    build_map,
    feature_matrix,
    featurize,
    gram,
    per_copy_inner_products,
    to_sparse,
    variance_theory,
)
from polyakern.polya_kernels import (
    KernelSpec,
    area_under_curve,
    eval_ft,
    eval_ft_numeric,
    eval_kernel,
    eval_kernel_numeric,
    kernel_to_cdf,
)
from polyakern.rng import RandomStream

# Three parameter settings per distribution family.
FAMILY_SETTINGS = [
    ShiftedPoisson(mu=0.5), ShiftedPoisson(mu=1.0), ShiftedPoisson(mu=2.5),
    Gamma(s=1.0, theta=1.0), Gamma(s=2.5, theta=1.0), Gamma(s=3.0, theta=0.7),
    Exponential(theta=0.5), Exponential(theta=1.0), Exponential(theta=2.0),
    Weibull(theta=1.0, alpha=1.0), Weibull(theta=1.0, alpha=1.5),
    Weibull(theta=1.3, alpha=2.0),
    ChiSquare(nu=2), ChiSquare(nu=4), ChiSquare(nu=6),
    Chi(nu=2), Chi(nu=3), Chi(nu=5),
    HalfNormal(sigma=0.8), HalfNormal(sigma=1.0), HalfNormal(sigma=2.0),
    Rayleigh(sigma=0.7), Rayleigh(sigma=1.0), Rayleigh(sigma=1.5),
    Nakagami(m=0.75, omega=1.0), Nakagami(m=1.0, omega=1.0),
    Nakagami(m=2.0, omega=1.3),
]

# Laws with C = E 1/X infinite, whose density does not vanish at zero. Their
# kernels take the closed tail Gamma(a - 1/p, x) of the generalized gamma
# law; gamma s = 0.5 and chi-square nu = 1 take the tilt formula continued
# to the tilted shape s - 1 < 0, and the Weibull alpha = 0.7 transform is
# numeric. The kernels with no closed
# form (Weibull alpha <= 1/2) are pinned to mpmath in test_polya_kernels.
NUMERIC_ONLY_SETTINGS = [
    Gamma(s=0.5, theta=1.0), Weibull(theta=1.0, alpha=0.7), ChiSquare(nu=1),
]

R_GRID = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]

# The exponential kernel exp(-r) and its matching Fourier frequency law.
LAPLACE = KernelSpec(Gamma(s=2.0, theta=1.0))
CAUCHY = TensorCauchy(scale=1.0)


def _report(number, ok, description, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({detail})")
    assert ok, f"criterion {number} failed: {description} ({detail})"


def test_criterion_1_closed_forms_match_quadrature():
    start = time.monotonic()
    worst = 0.0
    for d in FAMILY_SETTINGS:
        spec = KernelSpec(d)
        for r in R_GRID:
            diff = abs(eval_kernel(spec, r) - eval_kernel_numeric(d, r))
            worst = max(worst, diff)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(
        1, ok,
        "kernel evaluations match brute-force quadrature to 1e-8 on every "
        "family at three settings",
        f"worst |diff| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_fourier_transform_agreement():
    start = time.monotonic()
    settings = [
        ShiftedPoisson(mu=1.0), ShiftedPoisson(mu=2.0),
        Gamma(s=1.0, theta=1.0), Gamma(s=2.0, theta=1.0), Gamma(s=3.0, theta=1.0),
        Chi(nu=2), Chi(nu=3),
        Rayleigh(sigma=1.0),
        Nakagami(m=1.0, omega=1.0), Nakagami(m=1.5, omega=1.0),
    ]
    worst = 0.0
    for d in settings:
        spec = KernelSpec(d)
        for t in (0.4, 1.0, 2.7):
            diff = abs(eval_ft(spec, t) - eval_ft_numeric(d, t))
            worst = max(worst, diff)

    # Spot value: the transform of the kernel generated by the unit-mean,
    # unit-shape gamma law equals log 2 at frequency 1.
    spot = abs(eval_ft(KernelSpec(Gamma(s=1.0, theta=1.0)), 1.0) - math.log(2.0))

    hn = HalfNormal(sigma=1.0)
    hn_spec = KernelSpec(hn)
    worst_hn = max(
        abs(eval_ft(hn_spec, t) - eval_ft_numeric(hn, t))
        for t in (0.4, 1.0, 2.7)
    )
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and spot <= 1e-9 and worst_hn <= 1e-5 and elapsed < 120.0
    _report(
        2, ok,
        "closed-form transforms match dual-route quadrature (1e-6), the "
        "log-2 spot value (1e-9), and the oscillatory half-normal "
        "transform is self-consistent (1e-5)",
        f"worst {worst:.2e}, spot {spot:.2e}, half-normal {worst_hn:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_area_equals_mean_over_rho():
    worst_area = 0.0
    worst_ft0 = 0.0
    for d in FAMILY_SETTINGS + NUMERIC_ONLY_SETTINGS:
        for kwargs in ({}, {"tau": 2.0}):
            spec = KernelSpec(d, **kwargs)
            expected = d.mean() / spec.rho
            worst_area = max(worst_area, abs(area_under_curve(spec) - expected))
            worst_ft0 = max(worst_ft0, abs(eval_ft(spec, 0.0) - expected))
    ok = worst_area <= 1e-6 and worst_ft0 <= 1e-8
    _report(
        3, ok,
        "whole-line kernel area equals mean/rho (1e-6) and the transform "
        "at zero equals the same value (1e-8)",
        f"worst area diff {worst_area:.2e}, worst ft(0) diff {worst_ft0:.2e}",
    )


def test_criterion_4_structural_suite_and_cdf_roundtrip():
    grid = np.linspace(0.0, 10.0, 201)
    ok_unit = True
    worst_monotone = -np.inf  # most positive first difference (should be <= 0)
    worst_convex = np.inf  # most negative second difference (should be >= -1e-9)
    worst_cdf = 0.0
    for d in FAMILY_SETTINGS + NUMERIC_ONLY_SETTINGS:
        spec = KernelSpec(d)
        ok_unit = ok_unit and eval_kernel(spec, 0.0) == 1.0
        values = np.array([eval_kernel(spec, r) for r in grid])
        worst_monotone = max(worst_monotone, float(np.max(np.diff(values))))
        worst_convex = min(worst_convex, float(np.min(np.diff(values, 2))))
        for x in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
            worst_cdf = max(worst_cdf, abs(kernel_to_cdf(spec, x) - d.cdf(x)))
    ok = (
        ok_unit
        and worst_monotone <= 1e-12
        and worst_convex >= -1e-9
        and worst_cdf <= 1e-6
    )
    _report(
        4, ok,
        "k(0)=1 exactly, kernels are nonincreasing and convex on [0,10], "
        "and the kernel-to-cdf roundtrip reproduces every generating cdf "
        "to 1e-6",
        f"max first diff {worst_monotone:.2e}, min second diff "
        f"{worst_convex:.2e}, worst cdf diff {worst_cdf:.2e}",
    )


def test_criterion_5_single_copy_variance_identities():
    # Pairs at kernel values ~0.14, e^{-1}, and 0.6 under the exponential
    # kernel; 1e5 single-copy estimates per (kind, level).
    worst = 0.0
    for r in (-math.log(0.14), 1.0, -math.log(0.6)):
        k = math.exp(-r)
        k2 = math.exp(-2.0 * r)
        for kind, kern in (
            (FOURIER_COMPLEX, CAUCHY), (FOURIER_REAL, CAUCHY), (BINNING, LAPLACE)
        ):
            cfg = FeatureMapConfig(
                kind=kind, kernel=kern, dim=1, copies=100000, seed=515
            )
            state = build_map(cfg)
            copies = per_copy_inner_products(state, [0.0], [r])
            empirical = float(np.mean(np.abs(copies - k) ** 2))
            theory = variance_theory(kind, k, k2 if kind == FOURIER_REAL else None)
            worst = max(worst, abs(empirical / theory - 1.0))
    ok = worst <= 0.05
    _report(
        5, ok,
        "empirical single-copy variance over 1e5 trials matches the "
        "per-kind identity within 5% at three kernel levels",
        f"worst relative deviation {worst:.3f}",
    )


def test_criterion_6_expected_frobenius_error():
    start = time.monotonic()
    seed = 77
    points = 2.0 * RandomStream(seed, path=(50,)).uniform(150).reshape(50, 3) - 1.0
    worst = 0.0
    theory_by_kind = {}
    for kind, kern in (
        (FOURIER_COMPLEX, CAUCHY), (FOURIER_REAL, CAUCHY), (BINNING, LAPLACE)
    ):
        reference = approx.ErrorReference(kern, points, kind)
        for copies in (1, 4, 16):
            cfg = FeatureMapConfig(
                kind=kind, kernel=kern, dim=3, copies=copies, seed=seed + copies
            )
            stats = approx.empirical_error(reference, cfg, trials=200)
            worst = max(worst, abs(stats.mean_sq / stats.theory_sq - 1.0))
            theory_by_kind[(kind, copies)] = stats.theory_sq
    gap_ok = all(
        theory_by_kind[(BINNING, D)] < theory_by_kind[(FOURIER_COMPLEX, D)]
        for D in (1, 4, 16)
    )
    elapsed = time.monotonic() - start
    ok = worst <= 0.05 and gap_ok and elapsed < 300.0
    _report(
        6, ok,
        "empirical mean squared Frobenius error over 200 trials matches "
        "its expectation within 5% for all three kinds at D in {1,4,16}, "
        "and binning's expectation is strictly below the complex map's",
        f"worst relative deviation {worst:.3f}, binning<complex {gap_ok}, "
        f"{elapsed:.1f}s",
    )


def _gp_learning_curves(seed):
    """Test MSE for both map kinds at D in (8, 32, 128) on one draw of a
    smooth random function generated by the exponential kernel itself."""
    spec = KernelSpec(Gamma(s=2.0, theta=1.0), tau=1.0)  # k(d) = exp(-2|d|)
    law = TensorCauchy(scale=2.0)  # the same kernel, Fourier route
    n = 300
    stream = RandomStream(seed)
    x = 16.0 * np.sort(stream.child(0).uniform(n))
    cov = np.exp(-2.0 * np.abs(x[:, None] - x[None, :]))
    chol = np.linalg.cholesky(cov + 1e-10 * np.eye(n))
    targets = chol @ stream.child(1).normal(n) + 0.1 * stream.child(2).normal(n)
    X = x.reshape(-1, 1)
    test_mask = np.arange(n) % 3 == 2  # 200 train, 100 test
    curves = {}
    for kind, kern in ((FOURIER_REAL, law), (BINNING, spec)):
        mses = []
        for copies in (8, 32, 128):
            cfg = FeatureMapConfig(
                kind=kind, kernel=kern, dim=1, copies=copies,
                seed=seed * 7 + copies,
            )
            state = build_map(cfg)
            batch = featurize(state, X[~test_mask])
            model = learn.fit(state, batch, targets[~test_mask], lam=0.1)
            preds = learn.predict(model, X[test_mask])
            mses.append(float(np.mean((preds - targets[test_mask]) ** 2)))
        curves[kind] = mses
    return curves


def test_criterion_7_learning_curves():
    sizes = (8, 32, 128)
    rf_curves = []
    rb_curves = []
    wins = 0
    for seed in range(2000, 2010):
        curves = _gp_learning_curves(seed)
        rf, rb = curves[FOURIER_REAL], curves[BINNING]
        rf_curves.append(rf)
        rb_curves.append(rb)
        threshold = rf[-1]
        d_rb = next((D for D, m in zip(sizes, rb) if m <= threshold), None)
        d_rf = next((D for D, m in zip(sizes, rf) if m <= threshold), None)
        if d_rb is not None and (d_rf is None or d_rb <= d_rf):
            wins += 1
    rf_mean = np.mean(rf_curves, axis=0)
    rb_mean = np.mean(rb_curves, axis=0)
    monotone = bool(
        np.all(np.diff(rf_mean) <= 1e-12) and np.all(np.diff(rb_mean) <= 1e-12)
    )
    ok = monotone and wins >= 8
    _report(
        7, ok,
        "average test MSE is nonincreasing in D for both map kinds, and "
        "binning reaches the Fourier D=128 error at no larger D in at "
        "least 8 of 10 seeds",
        f"mean RF curve {np.round(rf_mean, 4).tolist()}, mean RB curve "
        f"{np.round(rb_mean, 4).tolist()}, wins {wins}/10",
    )


def test_criterion_8_primal_dual_equivalence():
    worst = 0.0
    instances = [
        (FOURIER_REAL, CAUCHY, 16, 100),   # feature count below point count
        (FOURIER_REAL, CAUCHY, 256, 100),  # feature count above point count
        (BINNING, LAPLACE, 8, 150),
        (BINNING, LAPLACE, 64, 60),
    ]
    for idx, (kind, kern, copies, n) in enumerate(instances):
        stream = RandomStream(3000 + idx)
        X = stream.normal(2 * n).reshape(n, 2)
        y = stream.normal(n)
        lam = 0.2
        cfg = FeatureMapConfig(kind=kind, kernel=kern, dim=2, copies=copies, seed=idx)
        state = build_map(cfg)
        batch = featurize(state, X)
        model = learn.fit(state, batch, y, lam)
        got = learn.predict(model, X)

        Z = feature_matrix(batch) if kind != BINNING else to_sparse(batch).toarray()
        y_c = y - y.mean()
        # Dual oracle: Gram-matrix solve.
        K = gram(batch)
        alpha = np.linalg.solve(K + lam * np.eye(n), y_c)
        dual = K @ alpha + y.mean()
        # Primal oracle: normal equations in feature space.
        p = Z.shape[0]
        w = np.linalg.solve(Z @ Z.T + lam * np.eye(p), Z @ y_c)
        primal = w @ Z + y.mean()

        worst = max(
            worst,
            float(np.max(np.abs(got - dual))),
            float(np.max(np.abs(got - primal))),
            float(np.max(np.abs(dual - primal))),
        )
    ok = worst <= 1e-6
    _report(
        8, ok,
        "predictions from the fitted model, the explicit feature-space "
        "solve, and the explicit Gram-matrix solve agree within 1e-6 on "
        "all instances with n <= 200",
        f"worst |diff| {worst:.2e}",
    )


def test_criterion_9_special_function_suite():
    worst = 0.0

    # Gamma recurrence and incomplete-gamma identities.
    for s in (0.3, 1.0, 2.5, 7.0):
        worst = max(
            worst,
            abs(math.gamma(s + 1.0) / (s * math.gamma(s)) - 1.0),
        )
        worst = max(worst, abs(gammaincc(s, 0.0) - 1.0))
        for t in (0.2, 1.0, 4.0):
            worst = max(
                worst,
                abs(
                    gammaincc(s, t)
                    + gammainc(s, t)
                    - 1.0
                ),
            )
    for t in (0.5, 1.0, 3.0):
        worst = max(worst, abs(gammaincc(1.0, t) - math.exp(-t)))

    # Kummer function: M(a,b,0)=1 and the exponential reflection identity.
    worst = max(worst, abs(hyp1f1(0.7, 1.3, 0.0) - 1.0))
    for a, b, z in ((0.5, 1.5, 0.8), (1.0, 2.0, 2.5), (0.25, 0.5, 1.2)):
        lhs = hyp1f1(a, b, -z)
        rhs = math.exp(-z) * hyp1f1(b - a, b, z)
        worst = max(worst, abs(lhs / rhs - 1.0))

    # Error-function identities.
    for x in (0.3, 1.0, 2.0):
        worst = max(worst, abs(math.erf(x) + math.erf(-x)))
        worst = max(worst, abs(math.erf(x) + math.erfc(x) - 1.0))

    # Frozen values and quadrature oracles at 1e-9.
    e1_quad, _ = scipy.integrate.quad(lambda t: math.exp(-t) / t, 1.0, np.inf)
    erf_quad, _ = scipy.integrate.quad(
        lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t), 0.0, 1.0
    )
    e1_diffs = (
        abs(exp1(1.0) - 0.21938393439552027),
        abs(exp1(1.0) - e1_quad),
    )
    erf_diffs = (
        abs(math.erf(1.0) - 0.8427007929497149),
        abs(math.erf(1.0) - erf_quad),
    )
    ok = worst <= 1e-10 and all(d <= 1e-9 for d in e1_diffs + erf_diffs)
    _report(
        9, ok,
        "special-function identities hold and E1(1), erf(1) match frozen "
        "values and quadrature oracles to 1e-9",
        f"worst identity deviation {worst:.2e}, E1 diffs "
        f"{tuple(f'{d:.1e}' for d in e1_diffs)}, erf diffs "
        f"{tuple(f'{d:.1e}' for d in erf_diffs)}",
    )
