"""Bulk effective sample size, numpy and stdlib only.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat for assessing
convergence of MCMC", Bayesian Analysis 16(2): chains are split in half,
the pooled draws are rank-normalized to normal scores, and the
autocorrelation sum is truncated by Geyer's initial positive and initial
monotone sequences over the multi-chain autocorrelation estimate.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

__all__ = ["bulk_ess", "ess"]


def _autocov(chains: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, lags 0..n-1, via zero-padded FFT."""
    n = chains.shape[1]
    centred = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(f * np.conjugate(f), n=size, axis=1)[:, :n] / n


def ess(chains) -> float:
    """Multi-chain ESS of a (n_chains, n_draws) array, without splitting
    or rank-normalizing."""
    x = np.atleast_2d(np.asarray(chains, dtype=float))
    m, n = x.shape
    if n < 4:
        raise ValueError(f"need at least 4 draws per chain, got {n}")
    if np.ptp(x) == 0:
        return 1.0  # a chain that never moved holds one draw's worth
    acov = _autocov(x)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Initial positive sequence: sum adjacent pairs while their sum is > 0.
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    negative = np.flatnonzero(pairs <= 0)
    pairs = pairs[: negative[0] if negative.size else pairs.size]
    # Initial monotone sequence: no pair may exceed the one before it.
    pairs = np.minimum.accumulate(pairs)
    tau = max(-1.0 + 2.0 * pairs.sum(), 1.0 / np.log10(x.size))
    return float(x.size / tau)


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled fractional ranks (r - 3/8) / (S + 1/4),
    ties sharing their average rank."""
    values, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    avg_rank = np.cumsum(counts) - (counts - 1) / 2.0
    p = (avg_rank - 0.375) / (x.size + 0.25)
    inv_cdf = NormalDist().inv_cdf
    z = np.fromiter((inv_cdf(v) for v in p), dtype=float, count=p.size)
    return z[inverse].reshape(x.shape)


def bulk_ess(chains) -> float:
    """Bulk ESS: split each chain in half, rank-normalize, then ``ess``.

    Accepts one chain (1-D) or several of equal length (n_chains, n_draws).
    """
    x = np.atleast_2d(np.asarray(chains, dtype=float))
    half = x.shape[1] // 2
    split = np.concatenate([x[:, :half], x[:, x.shape[1] - half :]])
    return ess(_rank_normalize(split))
