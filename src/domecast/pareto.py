"""Generalized Pareto and exponential distribution primitives.

Survival is (1 + t/beta)^(-alpha) on t > 0 with shape alpha > 0 and scale
beta > 0 (years).  All tail computations go through log1p so they stay
accurate for t/beta up to ~1e6 and alpha down to ~0.05.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GPaParams",
    "ExpParams",
    "survival",
    "log_survival",
    "density",
    "quantile",
    "condition_on_age",
    "sample",
    "exp_survival",
    "exp_quantile",
]


@dataclass(frozen=True)
class GPaParams:
    """Shape/scale pair of a generalized Pareto distribution."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")

    def mean(self) -> float:
        """beta/(alpha-1) for alpha > 1; math.inf marks the heavy-tailed
        infinite-mean regime alpha <= 1 (a reportable fact, not an overflow)."""
        if self.alpha > 1:
            return self.beta / (self.alpha - 1)
        return math.inf

    def median(self) -> float:
        return self.beta * (2.0 ** (1.0 / self.alpha) - 1.0)


@dataclass(frozen=True)
class ExpParams:
    """Rate parameter of an exponential distribution (limit of the
    generalized Pareto for large alpha, beta with alpha/beta ~ lambda)."""

    lam: float

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError(f"lambda must be finite and > 0, got {self.lam}")

    def mean(self) -> float:
        return 1.0 / self.lam


def _check_nonneg(t, name="t"):
    if np.any(np.asarray(t) < 0):
        raise ValueError(f"{name} must be >= 0")


def log_survival(p: GPaParams, t):
    """log P[T > t] = -alpha * log1p(t/beta); exact in log space."""
    _check_nonneg(t)
    return -p.alpha * np.log1p(np.asarray(t, dtype=float) / p.beta)


def survival(p: GPaParams, t):
    """P[T > t] = (1 + t/beta)^(-alpha)."""
    return np.exp(log_survival(p, t))


def density(p: GPaParams, t):
    """f(t) = (alpha/beta) (1 + t/beta)^(-alpha-1)."""
    _check_nonneg(t)
    t = np.asarray(t, dtype=float)
    return np.exp(
        math.log(p.alpha / p.beta) - (p.alpha + 1.0) * np.log1p(t / p.beta)
    )


def quantile(p: GPaParams, q):
    """Inverse CDF: beta * ((1-q)^(-1/alpha) - 1) for q in [0, 1)."""
    return _quantile(p.alpha, p.beta, q)


def _quantile(alpha, beta, q):
    """``quantile`` elementwise over arrays of shapes and scales."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0) or np.any(q >= 1):
        raise ValueError("q must lie in [0, 1)")
    return beta * np.expm1(-np.log1p(-q) / alpha)


def condition_on_age(p: GPaParams, s: float) -> GPaParams:
    """Remaining-duration distribution after the event has lasted s years:
    same shape, scale shifted to beta + s."""
    if not (math.isfinite(s) and s >= 0):
        raise ValueError(f"age s must be finite and >= 0, got {s}")
    return GPaParams(p.alpha, p.beta + s)


def sample(p: GPaParams, u):
    """Inverse-CDF transform of a Uniform(0,1) variate u:
    beta * (u^(-1/alpha) - 1) has survival (1 + t/beta)^(-alpha)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0) or np.any(u >= 1):
        raise ValueError("u must lie in (0, 1)")
    return _sample(p.alpha, p.beta, u)


def _sample(alpha, beta, u):
    """``sample`` elementwise over arrays of shapes and scales; a draw
    beyond the float range is inf, without a warning."""
    with np.errstate(over="ignore"):
        return beta * np.expm1(-np.log(u) / alpha)


def exp_survival(p: ExpParams, t):
    _check_nonneg(t)
    return np.exp(-p.lam * np.asarray(t, dtype=float))


def exp_quantile(p: ExpParams, q):
    q = np.asarray(q, dtype=float)
    if np.any(q < 0) or np.any(q >= 1):
        raise ValueError("q must lie in [0, 1)")
    return -np.log1p(-q) / p.lam
