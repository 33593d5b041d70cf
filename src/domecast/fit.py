"""Maximum-likelihood fitting, inverse-Hessian standard errors, AIC/BIC.

The two-parameter fit profiles alpha out and searches beta on a log scale;
the regression fit profiles alpha and runs a derivative-free simplex over
(log beta, gamma_alpha, gamma_beta) from several starts.  Standard errors
of the Pareto-family fits come from a central-difference Hessian on the
working (log-positive) scale, mapped back by the delta method; the
exponential fit's are closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .catalog import Catalog, CompositionClass
from .likelihood import _Kernel, catalog_arrays, nllh_exponential
from .pareto import ExpParams

__all__ = [
    "FitError",
    "HessianError",
    "FitResult",
    "ModelComparison",
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
BETA_GRID_POINTS = 100
SIMPLEX_MAXFEV = 50_000
SIMPLEX_RESTARTS = 5


class FitError(RuntimeError):
    """Optimizer failure or unusable data for the requested model."""


class HessianError(RuntimeError):
    """Hessian at the MLE is not positive definite; SEs undefined."""


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


@dataclass(frozen=True)
class ModelComparison:
    scores: tuple[ModelScore, ...]

    def best_by_aic(self) -> ModelScore:
        return min(self.scores, key=lambda s: s.aic)

    def best_by_bic(self) -> ModelScore:
        return min(self.scores, key=lambda s: s.bic)


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

    eigvals = np.linalg.eigvalsh(H)
    if np.any(eigvals <= 0):
        raise HessianError(
            f"Hessian not positive definite (eigenvalues {eigvals.tolist()}); "
            "standard errors undefined"
        )
    cov = np.linalg.inv(H)
    se_z = np.sqrt(np.diag(cov))
    return np.where(log_scale, theta_hat * se_z, se_z)


def _se_or_none(nllh_fn, theta_hat, log_scale, names):
    try:
        se = standard_errors(nllh_fn, theta_hat, log_scale)
        return dict(zip(names, (float(v) for v in se))), ()
    except HessianError as exc:
        return None, (str(exc),)


def fit_aggregate(catalog: Catalog) -> FitResult:
    """Profile-likelihood fit of the two-parameter heavy-tailed model.

    One-dimensional bounded search on log beta seeded from a 100-point
    audit grid, with alpha profiled out in closed form.
    """
    t, delta, _ = catalog_arrays(catalog)
    kernel = _Kernel(t, delta)
    n1 = int(kernel.n1)
    if n1 < 2:
        raise FitError(f"aggregate fit needs at least 2 uncensored records, got {n1}")

    evals = 0

    def objective(log_beta: float) -> float:
        nonlocal evals
        evals += 1
        return kernel.profile(math.exp(log_beta))[1]

    grid = np.linspace(LOG_BETA_LO, LOG_BETA_HI, BETA_GRID_POINTS)
    vals = [objective(g) for g in grid]
    i_best = int(np.argmin(vals))
    lo = grid[max(i_best - 1, 0)]
    hi = grid[min(i_best + 1, len(grid) - 1)]
    res = minimize_scalar(
        objective, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10}
    )
    if not res.success:
        raise FitError(f"beta search failed: {res.message}")
    beta = math.exp(float(res.x))
    alpha, nllh = kernel.profile(beta)

    se, notes = _se_or_none(
        lambda th: kernel.nllh(*th), [alpha, beta], [True, True], ["alpha", "beta"]
    )
    at_bound = i_best in (0, len(grid) - 1)
    if at_bound:
        notes += (_boundary_note(i_best == 0, math.exp(grid[i_best])),)
    return FitResult(
        model_kind="aggregate",
        estimates={"alpha": alpha, "beta": beta},
        standard_errors=se,
        nllh_at_mle=nllh,
        n=catalog.n,
        n1=n1,
        k=2,
        converged=bool(res.success) and not at_bound,
        iterations=evals,
        notes=notes,
    )


def _boundary_note(lower: bool, bound: float) -> str:
    if lower:
        return (
            f"beta at the lower search bound {bound:g}: no interior likelihood "
            "maximum was found; the estimates are boundary values"
        )
    return (
        f"beta at the upper search bound {bound:g}: the likelihood still rises "
        "toward the exponential limit (beta -> inf with alpha/beta fixed); "
        "compare fit_exponential"
    )


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
    if family == "gpa":
        result = fit_aggregate(sub)
        kind = "grouped"
    elif family == "exponential":
        result = fit_exponential(sub)
        kind = "grouped-exponential"
    else:
        raise ValueError(f"unknown family {family!r}")
    return replace(
        result, model_kind=kind, notes=result.notes + (f"class={comp_class.value}",)
    )


def fit_regression(catalog: Catalog) -> FitResult:
    """Log-linear silica regression fit.

    Simplex search over (log beta, gamma_alpha, gamma_beta) with the
    baseline alpha profiled out at every evaluation.  Starts include the
    aggregate solution at zero gammas, so the fitted NLLH never exceeds
    the aggregate fit's (the models are nested).
    """
    kernel = _Kernel(*catalog_arrays(catalog, require_silica=True))
    n1 = int(kernel.n1)
    if n1 < 4:
        raise FitError(f"regression fit needs at least 4 uncensored records, got {n1}")

    def objective(v: np.ndarray) -> float:
        log_beta, ga, gb = v
        if abs(ga) > 5 or abs(gb) > 5 or not (LOG_BETA_LO <= log_beta <= LOG_BETA_HI):
            return 1e12
        return kernel.profile(math.exp(log_beta), ga, gb)[1]

    agg = fit_aggregate(catalog)
    starts = [
        np.array([0.0, 0.0, 0.0]),
        np.array([math.log(agg.estimates["beta"]), 0.0, 0.0]),
    ]
    rng = np.random.default_rng(20160208)  # deterministic jittered restarts
    for _ in range(SIMPLEX_RESTARTS - 1):
        starts.append(starts[1] + rng.normal(scale=0.3, size=3))

    best = None
    total_evals = 0
    any_success = False
    per_start_budget = SIMPLEX_MAXFEV // len(starts)
    for s0 in starts:
        res = minimize(
            objective,
            s0,
            method="Nelder-Mead",
            options={
                "fatol": 1e-10,
                "xatol": 1e-8,
                "maxfev": per_start_budget,
            },
        )
        total_evals += res.nfev
        any_success = any_success or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    if best is None or not np.isfinite(best.fun):
        raise FitError("regression optimizer failed to find a finite optimum")

    log_beta, ga, gb = best.x
    beta = math.exp(log_beta)
    alpha, nllh = kernel.profile(beta, ga, gb)
    if not any_success:
        raise FitError("regression optimizer did not converge from any start")

    se, notes = _se_or_none(
        lambda th: kernel.nllh(*th),
        [alpha, beta, ga, gb],
        [True, True, False, False],
        ["alpha", "beta", "gamma_alpha", "gamma_beta"],
    )
    return FitResult(
        model_kind="regression",
        estimates={
            "alpha": alpha,
            "beta": beta,
            "gamma_alpha": float(ga),
            "gamma_beta": float(gb),
        },
        standard_errors=se,
        nllh_at_mle=nllh,
        n=catalog.n,
        n1=n1,
        k=4,
        converged=any_success,
        iterations=total_evals,
        notes=notes,
    )


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


def compare_models(fits: Sequence[FitResult]) -> ModelComparison:
    ns = {f.n for f in fits}
    if len(ns) > 1:
        raise ValueError(f"fits computed on different n: {sorted(ns)}")
    scores = tuple(
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
    return ModelComparison(scores)
