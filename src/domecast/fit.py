"""Maximum-likelihood fitting, inverse-Hessian standard errors, AIC/BIC.

Both Pareto-family fits profile alpha out and seek the least profile NLLH
by Newton's method on its closed-form gradient and Hessian
(``_Kernel.profile_derivatives``, one pass over the data per point),
through one search (``_pareto_fit``) over one box: log beta in
[LOG_BETA_LO, LOG_BETA_HI] and |gamma| <= GAMMA_BOUND.  The fits differ
only in their starts: the aggregate fit starts log beta from the best
point of a 100-point audit grid, the regression fit starts
(log beta, gamma_alpha, gamma_beta) from several points.  An optimum on
the box is noted and is not converged.  Standard errors come from the
analytic observed information on the working (log-positive) scale,
mapped back by the delta method; the exponential fit's are closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .catalog import Catalog, CompositionClass
from .likelihood import MODELS, _Kernel, _ProfileDerivatives, catalog_arrays
from .likelihood import model_kernel, nllh_exponential
from .pareto import ExpParams

__all__ = [
    "FitError",
    "HessianError",
    "FitResult",
    "fit_aggregate",
    "fit_grouped",
    "fit_exponential",
    "fit_regression",
    "standard_errors",
    "compare_models",
    "pool_grouped",
    "aic",
    "bic",
]

LOG_BETA_LO = math.log(1e-4)
LOG_BETA_HI = math.log(1e4)
GAMMA_BOUND = 5.0
BETA_GRID_POINTS = 100
RESTARTS = 5  # regression starts besides the origin
NEWTON_STEPS = 100  # per start
HALVINGS = 40  # step halvings before a start gives up
# P and its gradient are sums of about n1 terms of order one, so their
# rounding scales with n1, not with |P| (which can cancel to near zero).
GRAD_TOL = 1e-10  # converged when |projected gradient| <= GRAD_TOL n1
ROUNDING = 1e-12  # P values within ROUNDING n1 of each other are tied
CURVATURE_FLOOR = 1e-10  # relative floor on |eigenvalues| of the Newton Hessian
# The search box over theta = (log beta, gamma_alpha, gamma_beta), sliced to
# a model's coordinates.
_BOX_LO = np.array([LOG_BETA_LO, -GAMMA_BOUND, -GAMMA_BOUND])
_BOX_HI = np.array([LOG_BETA_HI, GAMMA_BOUND, GAMMA_BOUND])


class FitError(RuntimeError):
    """Optimizer failure or unusable data for the requested model."""


class HessianError(RuntimeError):
    """Hessian at the MLE is singular or not positive definite; SEs undefined."""


@dataclass(frozen=True)
class FitResult:
    model_kind: str  # aggregate | grouped | regression | exponential
    estimates: dict
    standard_errors: Optional[dict]
    nllh_at_mle: float
    n: int
    n1: int
    k: int
    converged: bool
    iterations: int
    notes: tuple = field(default_factory=tuple)

    def aic(self) -> float:
        return aic(self.nllh_at_mle, self.k)

    def bic(self) -> float:
        return bic(self.nllh_at_mle, self.k, self.n)

    def to_dict(self) -> dict:
        return {
            "model_kind": self.model_kind,
            "estimates": dict(self.estimates),
            "standard_errors": None
            if self.standard_errors is None
            else dict(self.standard_errors),
            "nllh": self.nllh_at_mle,
            "n": self.n,
            "n1": self.n1,
            "k": self.k,
            "converged": self.converged,
            "iterations": self.iterations,
            "aic": self.aic(),
            "bic": self.bic(),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class ModelScore:
    model_kind: str
    nllh: float
    k: int
    n: int
    aic: float
    bic: float


def aic(nllh: float, k: int) -> float:
    return 2.0 * k + 2.0 * nllh


def bic(nllh: float, k: int, n: int) -> float:
    return k * math.log(n) + 2.0 * nllh


def standard_errors(
    nllh_fn: Callable[[np.ndarray], float],
    theta_hat: Sequence[float],
    log_scale: Sequence[bool],
) -> np.ndarray:
    """SEs from the inverse central-difference Hessian at a local minimum.

    Coordinates flagged in ``log_scale`` are differentiated on the log
    scale (keeping positivity) and mapped back via the delta method
    SE(theta) = theta * SE(log theta).  Step is 1e-4 * max(1, |z|) per
    working coordinate.  Raises HessianError if the Hessian is not
    positive definite.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    log_scale = np.asarray(log_scale, dtype=bool)
    z0 = theta_hat.copy()
    z0[log_scale] = np.log(theta_hat[log_scale])
    d = len(z0)

    def g(z):
        theta = np.where(log_scale, np.exp(z), z)
        return nllh_fn(theta)

    h = 1e-4 * np.maximum(1.0, np.abs(z0))
    H = np.empty((d, d))
    g0 = g(z0)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        H[i, i] = (g(z0 + ei) - 2.0 * g0 + g(z0 - ei)) / h[i] ** 2
    for i in range(d):
        for j in range(i + 1, d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h[i]
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                g(z0 + ei + ej) - g(z0 + ei - ej) - g(z0 - ei + ej) + g(z0 - ei - ej)
            ) / (4.0 * h[i] * h[j])

    se_z = _inverse_sd(H)
    return np.where(log_scale, theta_hat * se_z, se_z)


def _inverse_sd(H: np.ndarray) -> np.ndarray:
    """sqrt(diag(H^-1)) from the eigendecomposition of H; HessianError
    unless every eigenvalue exceeds CURVATURE_FLOOR times the largest, so
    a singular H whose null eigenvalues round to tiny positive values is
    refused too."""
    eigvals, vecs = np.linalg.eigh(H)
    if not eigvals[0] > CURVATURE_FLOOR * eigvals[-1]:
        raise HessianError(
            f"Hessian singular or not positive definite (eigenvalues "
            f"{eigvals.tolist()}); standard errors undefined"
        )
    return np.sqrt(vecs**2 @ (1.0 / eigvals))


def _se_from_information(d: _ProfileDerivatives, estimates: dict):
    """(SEs or None, notes) from the observed information in (log alpha,
    log beta, gammas...) at the estimates, by the delta method."""
    try:
        se_z = _inverse_sd(d.info)
    except HessianError as exc:
        return None, (str(exc),)
    scale = [estimates["alpha"], estimates["beta"]] + [1.0] * (len(se_z) - 2)
    return {k: float(s * v) for k, s, v in zip(estimates, scale, se_z)}, ()


def _box_newton(kernel: _Kernel, x, lo, hi):
    """Seek the least profile NLLH P over theta = (log beta[, gammas]) in
    the box [lo, hi] by damped Newton from x.

    A coordinate on a bound whose gradient points out of the box is held
    there; the others take the Newton step for |H|, the Hessian with each
    eigenvalue replaced by its absolute value (floored at CURVATURE_FLOOR
    of the largest), clipped to the box and halved until P falls.  Where
    H is positive definite that is Newton's step; along negative or
    vanishing curvature it still goes downhill, at a length set by that
    curvature, where a plain gradient step would crawl along the nearly
    flat ridges of small catalogs.  A step that leaves P unchanged within
    rounding is taken only if it shrinks the projected gradient.  Returns
    (theta, derivatives there, kernel passes, converged)."""

    def at(theta):
        return kernel.profile_derivatives(math.exp(theta[0]), *theta[1:])

    def held(theta, grad):
        return ((theta <= lo) & (grad > 0)) | ((theta >= hi) & (grad < 0))

    x = np.clip(np.asarray(x, dtype=float), lo, hi)
    d, passes = at(x), 1
    g = np.where(held(x, d.grad), 0.0, d.grad)
    for _ in range(NEWTON_STEPS):
        if np.abs(g).max() <= GRAD_TOL * kernel.n1:
            return x, d, passes, True
        free = ~held(x, d.grad)
        curvature, vecs = np.linalg.eigh(d.hess[np.ix_(free, free)])
        curvature = np.maximum(
            np.abs(curvature), CURVATURE_FLOOR * np.abs(curvature).max()
        )
        step = np.zeros_like(x)
        step[free] = -vecs @ ((vecs.T @ g[free]) / curvature)
        for _ in range(HALVINGS):
            trial = np.clip(x + step, lo, hi)
            new = at(trial)
            passes += 1
            new_g = np.where(held(trial, new.grad), 0.0, new.grad)
            if new.nllh < d.nllh or (
                new.nllh <= d.nllh + ROUNDING * kernel.n1
                and np.abs(new_g).max() < np.abs(g).max()
            ):
                break
            step = step / 2
        else:
            return x, d, passes, False
        x, d, g = trial, new, new_g
    return x, d, passes, False


def fit_aggregate(catalog: Catalog) -> FitResult:
    """Profile-likelihood fit of the two-parameter heavy-tailed model.

    Newton search on log beta over the search box from the best point of
    a 100-point audit grid, with alpha profiled out in closed form.
    ``iterations`` counts kernel passes, grid included.
    """
    kernel = _fit_kernel("aggregate", catalog)
    # One pass per grid point: a (100, n) array would cost tens of MB at n=1e4.
    grid = np.linspace(LOG_BETA_LO, LOG_BETA_HI, BETA_GRID_POINTS)
    vals = [kernel.profile(math.exp(g))[1] for g in grid]
    start = grid[[int(np.argmin(vals))]]
    return _pareto_fit("aggregate", catalog, kernel, [start], len(grid))


def fit_exponential(catalog: Catalog) -> FitResult:
    """Closed-form censored exponential fit: lambda = n1 / sum t_i, with
    SE = lambda / sqrt(n1) from the observed information n1 / lambda^2."""
    t, delta, _ = catalog_arrays(catalog)
    n1 = int(delta.sum())
    if n1 < 1:
        raise FitError("exponential fit needs at least 1 uncensored record")
    lam = n1 / float(t.sum())
    nllh = nllh_exponential(catalog, ExpParams(lam))
    return FitResult(
        model_kind="exponential",
        estimates={"lambda": lam},
        standard_errors={"lambda": lam / math.sqrt(n1)},
        nllh_at_mle=nllh,
        n=catalog.n,
        n1=n1,
        k=1,
        converged=True,
        iterations=0,
    )


def fit_grouped(
    catalog: Catalog, comp_class: CompositionClass, family: str = "gpa"
) -> FitResult:
    """Fit one composition class with either the Pareto or the exponential
    family; the likelihood kernel is shared with the aggregate fit."""
    sub = catalog.filter_class(comp_class)
    if sub.n == 0:
        raise FitError(f"no records in class {comp_class.value!r}")
    family = family.lower()
    if family not in ("gpa", "exponential"):
        raise ValueError(f"unknown family {family!r}")
    exponential = family == "exponential"
    result = fit_exponential(sub) if exponential else fit_aggregate(sub)
    kind = "grouped-exponential" if exponential else "grouped"
    return replace(
        result, model_kind=kind, notes=result.notes + (f"class={comp_class.value}",)
    )


def fit_regression(catalog: Catalog) -> FitResult:
    """Log-linear silica regression fit.

    Newton search over (log beta, gamma_alpha, gamma_beta) in the search
    box, with the baseline alpha profiled out, from several starts.  One
    start is the aggregate solution at zero gammas and no accepted step
    raises the NLLH beyond rounding, so the fitted NLLH never exceeds the
    aggregate fit's (the models are nested).  ``iterations`` counts
    kernel passes, the aggregate fit's excluded.
    """
    kernel = _fit_kernel("regression", catalog)
    at_agg = np.array([math.log(fit_aggregate(catalog).estimates["beta"]), 0.0, 0.0])
    rng = np.random.default_rng(20160208)  # deterministic jittered restarts
    jittered = [at_agg + rng.normal(scale=0.3, size=3) for _ in range(RESTARTS - 1)]
    starts = [np.zeros(3), at_agg, *jittered]
    return _pareto_fit("regression", catalog, kernel, starts, 0)


def _fit_kernel(kind: str, catalog: Catalog) -> _Kernel:
    """The model's likelihood kernel; FitError unless the catalog has at
    least as many uncensored records as the model has parameters."""
    kernel = model_kernel(kind, catalog)
    k = len(MODELS[kind].params)
    if kernel.n1 < k:
        raise FitError(
            f"{kind} fit needs at least {k} uncensored records, got {int(kernel.n1)}"
        )
    return kernel


def _pareto_fit(kind, catalog, kernel, starts, passes) -> FitResult:
    """The least converged profile NLLH that ``_box_newton`` finds from the
    starts in the model's slice of the search box, as a FitResult; the
    starts took ``passes`` kernel passes.  An optimum on the box is noted
    and is not ``converged``; nor is one with singular information (a flat
    ridge, of which the estimates are one arbitrary point), which has no
    ``standard_errors``."""
    names = MODELS[kind].params[1:]  # beta for log beta, then the gammas
    lo, hi = _BOX_LO[: len(names)], _BOX_HI[: len(names)]
    best = None
    for s0 in starts:
        x, d, used, ok = _box_newton(kernel, s0, lo, hi)
        passes += used
        if ok and (best is None or d.nllh < best[1].nllh):
            best = x, d
    if best is None:
        raise FitError(f"{kind} fit did not converge from any start")

    x, d = best
    estimates = {"alpha": d.alpha, "beta": math.exp(x[0])}
    estimates.update(zip(names[1:], x[1:].tolist()))
    se, notes = _se_from_information(d, estimates)
    on_box = (x <= lo) | (x >= hi)
    notes += tuple(
        _box_note(names[j], x[j] >= hi[j], estimates[names[j]])
        for j in np.flatnonzero(on_box)
    )
    return FitResult(
        model_kind=kind,
        estimates=estimates,
        standard_errors=se,
        nllh_at_mle=d.nllh,
        n=catalog.n,
        n1=int(kernel.n1),
        k=len(names) + 1,
        converged=not on_box.any() and se is not None,
        iterations=passes,
        notes=notes,
    )


def _box_note(name: str, upper: bool, value: float) -> str:
    side = ("upper" if upper else "lower") + (" search" if name == "beta" else "")
    why = (
        "the likelihood still rises toward the exponential limit (beta -> inf with "
        "alpha/beta fixed); compare fit_exponential"
        if name == "beta" and upper
        else "no interior likelihood maximum was found; the estimates are "
        "boundary values"
    )
    return f"{name} at the {side} bound {value:g} of the search box: {why}"


def pool_grouped(fits: Sequence[FitResult]) -> FitResult:
    """Combine per-class fits into one entry for model comparison: NLLH
    and parameter counts sum, n sums across the (disjoint) classes."""
    if not fits:
        raise ValueError("no fits to pool")
    estimates = {}
    ses = {} if all(f.standard_errors is not None for f in fits) else None
    for i, f in enumerate(fits):
        tag = next(
            (note.split("=", 1)[1] for note in f.notes if note.startswith("class=")),
            str(i),
        )
        for name, v in f.estimates.items():
            estimates[f"{tag}.{name}"] = v
        if ses is not None:
            for name, v in f.standard_errors.items():
                ses[f"{tag}.{name}"] = v
    return FitResult(
        model_kind="grouped-pooled",
        estimates=estimates,
        standard_errors=ses,
        nllh_at_mle=math.fsum(f.nllh_at_mle for f in fits),
        n=sum(f.n for f in fits),
        n1=sum(f.n1 for f in fits),
        k=sum(f.k for f in fits),
        converged=all(f.converged for f in fits),
        iterations=sum(f.iterations for f in fits),
    )


def compare_models(fits: Sequence[FitResult]) -> tuple[ModelScore, ...]:
    """One AIC/BIC score per fit, in order; the fits must share n."""
    ns = {f.n for f in fits}
    if len(ns) > 1:
        raise ValueError(f"fits computed on different n: {sorted(ns)}")
    return tuple(
        ModelScore(
            model_kind=f.model_kind,
            nllh=f.nllh_at_mle,
            k=f.k,
            n=f.n,
            aic=f.aic(),
            bic=f.bic(),
        )
        for f in fits
    )
