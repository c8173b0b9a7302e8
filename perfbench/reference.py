"""Reference fit for the output check: scipy's L-BFGS-B on the program's
objective, swapped in for ``multifair.experiment.fit``.

The objective is written out here rather than imported, so the reference
shares no optimizer or loss code with the program.  Only the weighted
standardization, which defines the coordinates the L2 penalty acts in, is
taken from the program's own fit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

import multifair.cli
import multifair.experiment
from multifair.model import TrainConfig

GRADIENT_TOLERANCE = 1e-7  # on the loss divided by the total weight

_PROGRAM_FIT = multifair.experiment.fit


def lbfgs_fit(train, weights, config: TrainConfig = TrainConfig()):
    """Same signature and result type as ``multifair.model.fit``."""
    # One program iteration yields a ModelParams carrying the program's
    # standardization; the optimum is then found independently.
    template = _PROGRAM_FIT(train, weights, dataclasses.replace(config, max_iterations=1))
    z = (train.features - template.means) / template.scales
    y = train.labels.astype(np.float64)
    w = weights.values
    total = w.sum()
    d = z.shape[1]

    def objective(x):
        margin = z @ x[:d] + x[d]
        loss = w @ (np.logaddexp(0.0, margin) - y * margin) + config.l2_penalty * (x[:d] @ x[:d])
        residual = w * (expit(margin) - y)
        grad = np.append(z.T @ residual + 2.0 * config.l2_penalty * x[:d], residual.sum())
        return loss / total, grad / total

    result = minimize(objective, np.zeros(d + 1), jac=True, method="L-BFGS-B",
                      options={"maxiter": 20000, "maxcor": 30, "ftol": 0.0, "gtol": 1e-12})
    if np.abs(result.jac).max() > GRADIENT_TOLERANCE:
        raise RuntimeError(f"reference fit did not converge: max|g| = {np.abs(result.jac).max():.3g}")
    return dataclasses.replace(
        template, coefficients=result.x[:d], intercept=float(result.x[d]),
        converged=True, n_iter=int(result.nit),
    )


def reference_run(argv) -> None:
    """Run one CLI job with the reference fit in place; raise if it fails."""
    stdout, stderr = io.StringIO(), io.StringIO()
    multifair.experiment.fit = lbfgs_fit
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = multifair.cli.main(argv)
    finally:
        multifair.experiment.fit = _PROGRAM_FIT
    if code != 0:
        raise RuntimeError(f"reference job exited {code}: {stderr.getvalue().strip()}")
