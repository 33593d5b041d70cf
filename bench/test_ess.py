"""Checks of the bulk-ESS estimator against chains with known ESS.

Run with ``python3 -m pytest bench/test_ess.py``.
"""

import numpy as np
import pytest

from ess import bulk_ess


def ar1(rho: float, n: int, n_chains: int, seed: int) -> np.ndarray:
    """Stationary AR(1) chains x_t = rho x_{t-1} + sqrt(1 - rho^2) e_t."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n_chains, n))
    x = np.empty_like(eps)
    x[:, 0] = eps[:, 0]
    scale = np.sqrt(1.0 - rho**2)
    for t in range(1, n):
        x[:, t] = rho * x[:, t - 1] + scale * eps[:, t]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_bulk_ess_matches_ar1_theory(rho):
    n, n_chains = 50_000, 4
    chains = ar1(rho, n, n_chains, seed=int(rho * 10) + 1)
    expected = n_chains * n * (1 - rho) / (1 + rho)
    assert bulk_ess(chains) == pytest.approx(expected, rel=0.1)


def test_bulk_ess_is_rank_based():
    chains = ar1(0.5, 20_000, 2, seed=7)
    assert bulk_ess(np.exp(chains)) == pytest.approx(bulk_ess(chains), rel=1e-9)


def test_bulk_ess_sees_a_stuck_chain():
    # Repeated values (rejected MH moves) lower the ESS instead of breaking it.
    chain = np.repeat(ar1(0.0, 2_000, 1, seed=3)[0], 10)
    assert bulk_ess(chain) == pytest.approx(2_000, rel=0.2)
