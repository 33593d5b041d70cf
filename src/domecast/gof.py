"""Chi-square goodness-of-fit testing with equiprobable binning.

Bin edges sit at model quantiles j/n_bins so every bin has expected count
n/n_bins; degrees of freedom are n_bins - 1 - k_fitted.  The default 13
bins give dof 10 for the two-parameter Pareto test and dof 11 for the
one-parameter exponential test.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaincc

from .catalog import Catalog

__all__ = [
    "GofReport",
    "chisq_tail",
    "gof_test",
    "DEFAULT_BINS",
]

DEFAULT_BINS = 13
MIN_EXPECTED_WARN = 5.0


class _BinCountError(ValueError):
    """The requested bin count leaves too few bins or degrees of freedom."""


@dataclass(frozen=True)
class GofReport:
    statistic: float
    dof: int
    p_value: float
    n_bins: int
    bin_edges: tuple[float, ...]
    observed: tuple[int, ...]
    expected: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "n_bins": self.n_bins,
            # The top edge is infinite, which strict JSON writes as null.
            "bin_edges": [None if e == np.inf else e for e in self.bin_edges],
            "observed": list(self.observed),
            "expected": list(self.expected),
        }


def _equiprobable_bins(
    quantile_fn: Callable[[float], float], n_bins: int
) -> np.ndarray:
    """Interior bin edges at model quantiles j/n_bins, j = 1..n_bins-1."""
    return np.array([quantile_fn(j / n_bins) for j in range(1, n_bins)])


def _chisq_statistic(observed: np.ndarray, expected: np.ndarray) -> float:
    """Pearson's sum of (observed - expected)^2 / expected over the bins;
    ValueError unless every expected count is positive (an empty catalog)."""
    if np.any(expected <= 0):
        raise ValueError("expected counts must be strictly positive")
    return float(np.sum((observed - expected) ** 2 / expected))


def chisq_tail(x: float, dof: int) -> float:
    """Upper tail P[X > x] of a chi-square with dof degrees of freedom:
    the regularized incomplete gamma Q(dof/2, x/2)."""
    if not x >= 0:  # NaN too
        raise ValueError(f"x must be >= 0, got {x}")
    if not (dof >= 1 and float(dof).is_integer()):  # NaN and inf too
        raise ValueError(f"dof must be a whole number >= 1, got {dof}")
    return float(gammaincc(dof / 2.0, x / 2.0))


def gof_test(
    catalog: Catalog,
    quantile_fn: Callable[[float], float],
    k_fitted: int,
    n_bins: int = DEFAULT_BINS,
) -> GofReport:
    """Equiprobable-bin chi-square test of completed durations against a
    fitted model given by its quantile function.

    Censored records are rejected outright: the test applies only to
    fully observed durations.
    """
    if n_bins < 3:
        raise _BinCountError(f"n_bins must be >= 3, got {n_bins}")
    dof = n_bins - 1 - k_fitted
    if dof < 1:
        raise _BinCountError(
            f"dof = n_bins - 1 - k_fitted = {dof} < 1; increase n_bins"
        )
    censored = catalog.names[catalog.censored].tolist()
    if censored:
        raise ValueError(
            f"gof_test requires completed durations only; censored records "
            f"present: {censored[:3]}{'...' if len(censored) > 3 else ''}"
        )
    data = catalog.duration
    n = len(data)
    edges = _equiprobable_bins(quantile_fn, n_bins)
    full_edges = np.concatenate(([0.0], edges, [np.inf]))
    observed, _ = np.histogram(data, bins=full_edges)
    expected = np.full(n_bins, n / n_bins)
    if expected[0] < MIN_EXPECTED_WARN:
        warnings.warn(
            f"expected count per bin {expected[0]:.2f} < {MIN_EXPECTED_WARN}; "
            "chi-square approximation may be poor",
            stacklevel=2,
        )
    stat = _chisq_statistic(observed, expected)
    return GofReport(
        statistic=stat,
        dof=dof,
        p_value=chisq_tail(stat, dof),
        n_bins=n_bins,
        bin_edges=tuple(float(e) for e in full_edges),
        observed=tuple(int(o) for o in observed),
        expected=tuple(float(e) for e in expected),
    )
