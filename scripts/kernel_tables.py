#!/usr/bin/env python3
"""Emit per-family CSV tables of the kernel, its Fourier transform, and the
recovered generating cdf — the raw material for shape/spectrum plots.

Each catalog family gets one file ``<out-dir>/<family>.csv`` with columns
``r, k, ft, cdf`` where ``cdf`` is the value recovered from the kernel alone
(it should match the generating distribution's cdf to high precision).

Usage:
    python3 scripts/kernel_tables.py --out-dir tables --max 8 --points 81
"""

import argparse
from pathlib import Path

import numpy as np

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
from polyakern.polya_kernels import KernelSpec, eval_ft, eval_kernel, kernel_to_cdf

REPRESENTATIVES = [
    ShiftedPoisson(mu=1.0),
    Gamma(s=2.0, theta=1.0),
    Exponential(theta=1.0),
    Weibull(theta=1.0, alpha=1.5),
    ChiSquare(nu=2),
    Chi(nu=3),
    HalfNormal(sigma=1.0),
    Rayleigh(sigma=1.0),
    Nakagami(m=1.5, omega=1.0),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="tables")
    parser.add_argument("--max", type=float, default=8.0)
    parser.add_argument("--points", type=int, default=81)
    parser.add_argument("--tau", type=float, default=None,
                        help="optional area parameter applied to every kernel")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = np.linspace(0.0, args.max, args.points)
    for dist in REPRESENTATIVES:
        spec = KernelSpec(dist) if args.tau is None else KernelSpec(dist, tau=args.tau)
        lines = ["r,k,ft,cdf"]
        for r, k, cdf in zip(grid.tolist(), eval_kernel(spec, grid).tolist(),
                             kernel_to_cdf(spec, grid).tolist()):
            lines.append(f"{r!r},{k!r},{eval_ft(spec, r)!r},{cdf!r}")
        path = out_dir / f"{dist.family}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
