"""Censored negative log-likelihoods and closed-form profile MLEs.

Uncensored records contribute a density factor, censored records a
survival factor.  For the two-parameter model

    nllh = sum_i (alpha + delta_i) log(1 + t_i/beta) + n1 log(beta/alpha)

with delta_i = 1 uncensored, 0 censored.  The regression variant replaces
(alpha, beta) with per-record log-linear functions of silica centered at
60 percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .pareto import ExpParams, GPaParams

__all__ = [
    "RegressionParams",
    "catalog_arrays",
    "nllh_aggregate",
    "profile_alpha",
    "nllh_regression",
    "profile_alpha_regression",
    "nllh_exponential",
]

SILICA_CENTER = 60.0  # fixed model convention, not configurable


@dataclass(frozen=True)
class RegressionParams:
    """Baseline (alpha, beta) plus log-linear silica coefficients.

    Per-record parameters are alpha*exp(gamma_alpha*(x-60)) and
    beta*exp(gamma_beta*(x-60)).
    """

    alpha: float
    beta: float
    gamma_alpha: float
    gamma_beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        for name in ("gamma_alpha", "gamma_beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def at_silica(self, x: float) -> GPaParams:
        dx = x - SILICA_CENTER
        return GPaParams(
            self.alpha * math.exp(self.gamma_alpha * dx),
            self.beta * math.exp(self.gamma_beta * dx),
        )


def catalog_arrays(catalog: Catalog, require_silica: bool = False):
    """(t, delta, x) in catalog order: t and x are the catalog's read-only
    duration and silica columns (x NaN where silica is missing), delta is
    1.0 for completed and 0.0 for censored records.  require_silica
    raises on missing silica, naming the first record without it."""
    if catalog.n == 0:
        raise ValueError("empty catalog")
    if require_silica and np.isnan(catalog.silica).any():
        i = np.flatnonzero(np.isnan(catalog.silica))[0]
        raise ValueError(
            f"record {catalog.names[i]!r} (start {catalog.start_year[i]}) has no "
            "silica_pct; regression model requires silica for every record"
        )
    return catalog.duration, np.where(catalog.censored, 0.0, 1.0), catalog.silica


class _Kernel:
    """Both GPa likelihoods as functions of two array sums.

    With dx_i = x_i - 60, b_i = beta exp(gamma_beta dx_i),
    w_i = exp(gamma_alpha dx_i) and L_i = log(1 + t_i/b_i), the data
    enter only through S = sum_i w_i L_i and U = sum_i delta_i L_i:

        nllh = alpha S + U + n1 log(beta/alpha)
               + (gamma_beta - gamma_alpha) sum_i delta_i dx_i

    and the profile MLE of alpha is n1/S.  Without x (the aggregate
    model) w_i = 1 and b_i = beta, and silica is never read.
    """

    __slots__ = ("t", "delta", "dx", "n1", "delta_dx")

    def __init__(self, t, delta, x=None):
        self.t = t
        self.delta = delta
        self.dx = None if x is None else x - SILICA_CENTER
        self.n1 = float(delta.sum())
        self.delta_dx = 0.0 if x is None else float(delta @ self.dx)

    def sums(self, beta, gamma_alpha=0.0, gamma_beta=0.0) -> tuple[float, float]:
        if self.dx is None:
            b, w = beta, None
        else:
            b, w = beta * np.exp(gamma_beta * self.dx), np.exp(gamma_alpha * self.dx)
        L = np.log1p(self.t / b)
        return float(L.sum() if w is None else w @ L), float(self.delta @ L)

    def nllh(self, alpha, beta, gamma_alpha=0.0, gamma_beta=0.0) -> float:
        S, U = self.sums(beta, gamma_alpha, gamma_beta)
        return self._nllh(S, U, alpha, beta, gamma_alpha, gamma_beta)

    def profile(self, beta, gamma_alpha=0.0, gamma_beta=0.0) -> tuple[float, float]:
        """(alpha_hat, nllh at alpha_hat) at fixed beta and gammas."""
        if self.n1 < 1:
            raise ValueError(
                "profile MLE for alpha needs at least one uncensored record"
            )
        S, U = self.sums(beta, gamma_alpha, gamma_beta)
        alpha = self.n1 / S
        return alpha, self._nllh(S, U, alpha, beta, gamma_alpha, gamma_beta)

    def _nllh(self, S, U, alpha, beta, gamma_alpha, gamma_beta) -> float:
        return (
            alpha * S
            + U
            + self.n1 * math.log(beta / alpha)
            + (gamma_beta - gamma_alpha) * self.delta_dx
        )


def nllh_aggregate(catalog: Catalog, p: GPaParams) -> float:
    t, delta, _ = catalog_arrays(catalog)
    return _Kernel(t, delta).nllh(p.alpha, p.beta)


def profile_alpha(catalog: Catalog, beta: float) -> float:
    """Conditional MLE for alpha at fixed beta: n1 / sum log(1 + t_i/beta)."""
    t, delta, _ = catalog_arrays(catalog)
    return _Kernel(t, delta).profile(beta)[0]


def nllh_regression(catalog: Catalog, p: RegressionParams) -> float:
    kernel = _Kernel(*catalog_arrays(catalog, require_silica=True))
    return kernel.nllh(p.alpha, p.beta, p.gamma_alpha, p.gamma_beta)


def profile_alpha_regression(
    catalog: Catalog, beta: float, gamma_alpha: float, gamma_beta: float
) -> float:
    """Conditional MLE for the baseline alpha at fixed (beta, gamma_alpha,
    gamma_beta):

        n1 / sum_i exp(gamma_alpha (x_i-60)) log(1 + t_i exp(-gamma_beta (x_i-60))/beta)
    """
    kernel = _Kernel(*catalog_arrays(catalog, require_silica=True))
    return kernel.profile(beta, gamma_alpha, gamma_beta)[0]


def nllh_exponential(catalog: Catalog, p: ExpParams) -> float:
    """Censored exponential: lambda * sum t_i - n1 * log lambda."""
    t, delta, _ = catalog_arrays(catalog)
    return p.lam * float(t.sum()) - float(delta.sum()) * math.log(p.lam)
