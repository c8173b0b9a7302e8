#!/usr/bin/env python3
"""Time the two products that can build the fit's Hessian block.

Each Newton iteration of ``multifair.model.fit`` needs ``z.T @ diag(s) @ z``
for the n x k standardized features ``z`` and the n row curvatures ``s``.
Two forms give it:

  gemm  ``z.T @ (s[:, None] * z)``: a general matrix product
  syrk  ``r = sqrt(s)[:, None] * z; r.T @ r``: numpy hands the product of
        an operand with its own transpose to BLAS ``dsyrk``

``model._SYRK_WORK`` picks between them from the work n * k * k alone.
This script prints the time of each path, scaling included, over a grid
of shapes, with BLAS single-threaded (as the benchmark runs it), so the
constant can be rechecked on another BLAS build.

Usage:
  python3 scripts/hessian_crossover.py

prints one row per shape: n, k, the work n*k*k, the microseconds of each
path (best of 7 repeats), their ratio gemm/syrk, and the path that
``fit`` takes for that shape.
"""

import os

# Before numpy loads its BLAS
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import sys  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from multifair.model import _SYRK_WORK  # noqa: E402

ROWS = (3200, 5051, 26049)
COLUMNS = (7, 12, 24, 48, 96, 201)


def _gemm(z, s):
    return z.T @ (s[:, None] * z)


def _syrk(z, s):
    r = np.sqrt(s)[:, None] * z
    return r.T @ r


def _microseconds(product, z, s) -> float:
    """Best time of one call, in µs, over 7 repeats of a batch that runs
    for about 20 ms."""
    timer = timeit.Timer(lambda: product(z, s))
    number, _ = timer.autorange()
    number = max(1, number // 10)
    return min(timer.repeat(repeat=7, number=number)) / number * 1e6


def main() -> int:
    rng = np.random.default_rng(0)
    print(f"{'n':>6} {'k':>4} {'n*k*k':>10} {'gemm_us':>9} {'syrk_us':>9} {'ratio':>6}  fit uses")
    for n in ROWS:
        for k in COLUMNS:
            # fit's z is a column-major gather of the centered features
            z = rng.standard_normal((n, k + 1))[:, np.arange(k)]
            p = rng.uniform(0.01, 0.99, n)
            s = rng.uniform(0.5, 2.0, n) * p * (1.0 - p)
            gemm, syrk = _microseconds(_gemm, z, s), _microseconds(_syrk, z, s)
            path = "gemm" if n * k * k <= _SYRK_WORK else "syrk"
            print(f"{n:>6} {k:>4} {n * k * k:>10} {gemm:>9.1f} {syrk:>9.1f} {gemm / syrk:>6.2f}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
