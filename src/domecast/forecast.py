"""Remaining-duration forecasts.

Plug-in forecasts evaluate the conditional quantile formula at point
estimates; Bayesian forecasts average per-draw exceedance curves over a
posterior chain, with 90% bands from the empirical 5%/95% quantiles of
the per-draw probabilities.  The Bayesian quartiles invert that mean
curve: they are quartiles of the posterior predictive distribution.

One evaluator fills (grid rows x draws) blocks of per-draw exceedance
probabilities in place.  ``predictive_curve`` walks the grid in blocks of
about ``_BLOCK_ELEMENTS`` values through one reused buffer, taking each
block's plotted draws, row means and bands before the next, so its
memory is linear in the number of draws and never holds a
(draws x grid) matrix; ``predictive_exceedance`` is its one-point case.
The bands come from one in-place sort of each block's rows, read with
numpy's own quantile arithmetic, so they equal ``np.quantile`` to the
bit.  The quartile bisection evaluates one row at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bayes import PosteriorChain
from .likelihood import MODELS, _at_silica
from .pareto import GPaParams, _quantile, condition_on_age, survival

__all__ = [
    "BracketError",
    "ForecastCurve",
    "plugin_remaining_quantile",
    "predictive_exceedance",
    "predictive_curve",
    "predictive_quartiles",
]

BAND_LEVEL = 0.90
BISECT_T_FIRST = 1e4  # first bracket [0, 1e4] years, widened x10 as needed
BISECT_T_CAP = 1e12
BISECT_REL_TOL = 1e-6
N_PLOT_DRAWS = 100
_BLOCK_ELEMENTS = 1 << 18  # values per curve block: 2 MB of float64


class BracketError(RuntimeError):
    """Bisection target not bracketed on [0, BISECT_T_CAP]."""


@dataclass(frozen=True)
class ForecastCurve:
    t_grid: np.ndarray
    mean_probability: np.ndarray
    band_low: np.ndarray
    band_high: np.ndarray
    plug_in_probability: np.ndarray
    draw_curves: np.ndarray  # (min(100, n_draws), len(t_grid)) for plotting
    eruption_age_s: float
    model_kind: str
    band_level: float = BAND_LEVEL


def plugin_remaining_quantile(p: GPaParams, s: float, q: float) -> float:
    """q-th quantile of remaining activity for an event already s years
    old: (beta + s) * ((1-q)^(-1/alpha) - 1).  FloatingPointError when it
    overflows."""
    p = condition_on_age(p, s)
    with np.errstate(over="ignore"):
        value = float(_quantile(p.alpha, p.beta, q))
    if not math.isfinite(value):
        raise FloatingPointError(
            f"the q={q:g} quantile of remaining duration at age {s:g} overflows"
        )
    return value


def _check_nonneg_finite(name: str, v: float) -> None:
    if not (math.isfinite(v) and v >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {v}")


def _draw_params(chain: PosteriorChain, silica: Optional[float]):
    """Per-draw (alpha', beta') arrays, silica-adjusted for regression chains."""
    if not MODELS[chain.model_kind].silica:
        return chain.column("alpha"), chain.column("beta")
    if silica is None:
        raise ValueError("silica is required for forecasts from a regression chain")
    return _at_silica(*(chain.column(name) for name in chain.param_names), silica)


def _exceedance(alpha, beta, s: float):
    """Evaluator that fills out[i, j] with draw j's conditional survival
    (1 + t[i]/(beta_j + s))^(-alpha_j) in place and returns out, which
    has shape (len(t), n_draws) and is allocated when not given."""
    scale = beta + s
    neg_alpha = -alpha

    def fill(t, out=None):
        out = np.divide(np.reshape(t, (-1, 1)), scale, out=out)
        np.log1p(out, out=out)
        np.multiply(neg_alpha, out, out=out)
        return np.exp(out, out=out)

    return fill


def _sorted_row_quantiles(rows, qs) -> np.ndarray:
    """``np.quantile(rows, qs, axis=1)`` to the bit, from rows sorted
    ascending: numpy's linear method, with virtual index v = (n - 1) q,
    its floor i and gamma = v - i, then its ``_lerp``.
    A row holding a NaN (sorted last) gets NaN."""
    n = rows.shape[1]
    out = np.empty((len(qs), rows.shape[0]))
    for q, row_out in zip(qs, out):
        v = (n - 1) * q
        i = math.floor(v)
        a, b = rows[:, i], rows[:, min(i + 1, n - 1)]
        gamma, diff = v - i, b - a
        if gamma >= 0.5:
            np.subtract(b, diff * (1 - gamma), out=row_out)
        else:
            np.add(a, diff * gamma, out=row_out)
    out[:, np.isnan(rows[:, -1])] = np.nan
    return out


def predictive_exceedance(
    chain: PosteriorChain, s: float, silica: Optional[float], t: float
) -> dict:
    """Posterior predictive probability of lasting at least t more years:
    mean over draws, with an equal-tailed 90% band (``predictive_curve``
    at the one point t)."""
    c = predictive_curve(chain, s, silica, [t])
    return {
        "mean": float(c.mean_probability[0]),
        "low": float(c.band_low[0]),
        "high": float(c.band_high[0]),
    }


def predictive_curve(
    chain: PosteriorChain,
    s: float,
    silica: Optional[float],
    t_grid: Sequence[float],
) -> ForecastCurve:
    """Exceedance forecast over a sorted time grid, including the plug-in
    curve at the posterior-mean parameters and the first 100 per-draw
    curves for plotting.  Memory is linear in the number of draws: the
    grid is evaluated a block of rows at a time.  Each block gives its
    plotted draws and row means, and is then sorted in place, row by row,
    for the 5% and 95% bands (``_sorted_row_quantiles``)."""
    t = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("t_grid must be finite")
    if t.size < 1 or np.any(np.diff(t) < 0):
        raise ValueError("t_grid must be sorted ascending")
    if np.any(t < 0):
        raise ValueError("t_grid must be >= 0")
    _check_nonneg_finite("eruption age", s)
    alpha, beta = _draw_params(chain, silica)
    fill = _exceedance(alpha, beta, s)
    n_draws = alpha.size
    rows = max(1, _BLOCK_ELEMENTS // n_draws)
    buf = np.empty((min(rows, t.size), n_draws))
    draw_curves = np.empty((min(N_PLOT_DRAWS, n_draws), t.size))
    mean = np.empty(t.size)
    band = np.empty((2, t.size))
    lo_q = (1 - BAND_LEVEL) / 2
    for i in range(0, t.size, rows):
        block = fill(t[i : i + rows], buf[: t.size - i])
        cols = slice(i, i + block.shape[0])
        draw_curves[:, cols] = block[:, :N_PLOT_DRAWS].T
        mean[cols] = block.mean(axis=1)
        # Sorts the block in place, so it comes last.
        block.sort(axis=1)
        band[:, cols] = _sorted_row_quantiles(block, (lo_q, 1 - lo_q))
    plug = GPaParams(float(alpha.mean()), float(beta.mean()))
    return ForecastCurve(
        t_grid=t,
        mean_probability=mean,
        band_low=band[0],
        band_high=band[1],
        plug_in_probability=survival(condition_on_age(plug, s), t),
        draw_curves=draw_curves,
        eruption_age_s=s,
        model_kind=chain.model_kind,
    )


def predictive_quartiles(
    chain: PosteriorChain,
    s: float,
    silica: Optional[float] = None,
) -> tuple[float, float, float]:
    """Posterior-predictive quartiles (q25, q50, q75) of remaining duration:
    the posterior-mean exceedance curve inverted by bisection on [0, 1e4]
    years, widened tenfold until it brackets the quartile (BracketError
    past 1e12 years)."""
    _check_nonneg_finite("eruption age", s)
    alpha, beta = _draw_params(chain, silica)
    fill = _exceedance(alpha, beta, s)
    row = np.empty((1, alpha.size))

    def mean_exceedance(t: float) -> float:
        return float(fill(t, row).mean())

    out = []
    for q in (0.25, 0.50, 0.75):
        target = 1.0 - q
        lo, hi = 0.0, BISECT_T_FIRST
        while mean_exceedance(hi) > target:
            if hi >= BISECT_T_CAP:
                raise BracketError(
                    f"exceedance at t={hi:g} still above {target}; cannot bracket q={q}"
                )
            lo, hi = hi, 10.0 * hi
        while hi - lo > BISECT_REL_TOL * max(1.0, lo):
            mid = 0.5 * (lo + hi)
            if mean_exceedance(mid) > target:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return tuple(out)
