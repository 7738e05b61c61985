"""Least squares with error bars: both solvers, covariance and conditioning bound of every fit."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, FitError, IdentifiabilityError

# residual evaluations allowed per nonlinear fit
MAX_NFEV = 200
# a fit whose Gram matrix J^T J at the solution has a larger condition
# number does not determine its parameters
MAX_GRAM_COND = 1e12


def covariance(r: np.ndarray, sv: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, float]:
    """``(s^2 (J^T J)^+, cond(J^T J))`` at residual ``r``, from the thin SVD
    ``J = U diag(sv) V^T`` of the Jacobian or design.

    ``s^2 = r.r / max(n - p, 1)``.  As ``J^T J = V S^2 V^T``, like
    ``np.linalg.pinv(J^T J)`` the inverse drops the directions with
    ``s^2 <= 1e-15 s_max^2``.  FitError when ``s^2`` is not finite.
    """
    # math.hypot does not overflow where r @ r would
    norm = math.hypot(*r.tolist())
    s2 = norm * norm / max(r.size - vt.shape[1], 1)
    if not math.isfinite(s2):
        raise FitError(f"the fit's residual norm {norm:.3g} has no finite variance")
    keep = sv > math.sqrt(1e-15) * sv.max(initial=0.0)
    w = vt[keep].T / sv[keep]
    # J^T J is singular unless J has p nonzero singular values
    ratio = float(sv[0]) / float(sv[-1]) if np.count_nonzero(sv) == vt.shape[1] else math.inf
    return (w @ w.T) * s2, ratio * ratio


def linear(design: np.ndarray, y: np.ndarray):
    """``(c, r, covariance of c, cond(D^T D))`` of ``D c ~ y``, ``D = design``, from one thin SVD.

    ``c`` is the minimum-norm solution of ``np.linalg.lstsq(rcond=None)``, which drops
    the singular values ``s <= eps max(n, p) s_max``; ``r = D c - y``.
    """
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(design.shape) * sv.max(initial=0.0)
    c = vt[keep].T @ ((u[:, keep].T @ y) / sv[keep])
    r = design @ c - y
    return (c, r, *covariance(r, sv, vt))


def solve(fun, x: np.ndarray, what: str, best):
    """Minimise ``|r(x)|^2`` from ``x``; ``fun`` returns ``(r, dr/dx)``.

    Levenberg-Marquardt with Marquardt's diagonal scaling (More, LNM 630,
    1978): each step solves ``(J^T J + lam diag(J^T J)) dx = -J^T r``; ``lam``
    falls tenfold after a step that lowers the cost, else rises tenfold.  A
    step whose predicted decrease is round-off in the cost, which no cost
    comparison can judge, is taken and ends the fit.  Returns ``(x, r,
    covariance of x)``.  A singular step (a parameter without effect) or
    ``MAX_NFEV`` evaluations raise ConvergenceError with ``best(x)``, the
    ``what`` fit's own parameters; cond(J^T J) > ``MAX_GRAM_COND`` at the
    solution raises IdentifiabilityError.
    """
    r, jac = fun(x)
    lam = 1e-3
    for _ in range(MAX_NFEV - 1):
        jtj, grad = jac.T @ jac, jac.T @ r
        try:
            dx = -np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), grad)
        except np.linalg.LinAlgError:
            break
        last = -dx @ (2.0 * grad + jtj @ dx) <= np.finfo(float).eps * (r @ r)
        r_new, jac_new = fun(x + dx)
        if last or r_new @ r_new < r @ r:
            x, r, jac = x + dx, r_new, jac_new
            if last:
                cov, cond = covariance(r, *np.linalg.svd(jac, full_matrices=False)[1:])
                if cond > MAX_GRAM_COND:
                    raise IdentifiabilityError(f"the data cannot determine the {what} fit's "
                                               f"parameters: its Gram matrix has cond {cond:.1e}")
                return x, r, cov
            lam *= 0.1
        else:
            lam *= 10.0
    raise ConvergenceError(
        f"{what} fit did not converge: a singular step or the evaluation cap",
        best=best(x), residual=float(np.linalg.norm(r)),
    )
