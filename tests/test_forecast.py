import math
import tracemalloc

import numpy as np
import pytest

import domecast.forecast as forecast_module
from domecast.bayes import McmcConfig, PosteriorChain
from domecast.forecast import (
    plugin_remaining_quantile,
    predictive_curve,
    predictive_exceedance,
    predictive_quartiles,
)
from domecast.pareto import GPaParams, condition_on_age, quantile, survival

AGG = GPaParams(0.6487, 0.7018)
SHV_AGE = 7189 / 365.25
SINABUNG_AGE = 546 / 365.25


def _chain(draws, kind="aggregate"):
    draws = np.asarray(draws, dtype=float)
    return PosteriorChain(
        draws=draws,
        acceptance_rate=0.3,
        config=McmcConfig(seed=0, burn_in=0, iterations=draws.shape[0], thin=1),
        model_kind=kind,
    )


def test_plugin_quantiles_long_running():
    got = [plugin_remaining_quantile(AGG, SHV_AGE, q) for q in (0.25, 0.50, 0.75)]
    want = [11.36, 38.91, 152.18]
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=0.005)


def test_plugin_quantiles_young():
    got = [plugin_remaining_quantile(AGG, SINABUNG_AGE, q) for q in (0.25, 0.50, 0.75)]
    want = [1.23, 4.20, 16.42]
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=0.01)


def test_plugin_quantile_edges():
    assert plugin_remaining_quantile(AGG, 3.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        plugin_remaining_quantile(AGG, 3.0, 1.0)


def test_plugin_matches_conditioned_quantile():
    for s in (0.0, 1.49, 19.68, 100.0):
        for q in (0.1, 0.5, 0.9):
            assert plugin_remaining_quantile(AGG, s, q) == pytest.approx(
                float(quantile(condition_on_age(AGG, s), q)), rel=1e-14
            )


def test_plugin_median_shift():
    assert plugin_remaining_quantile(GPaParams(1, 1), 0.0, 0.5) == pytest.approx(1.0)
    assert plugin_remaining_quantile(AGG, 19.68, 0.5) == pytest.approx(38.9, abs=0.15)
    # affine in s with slope 2^(1/alpha) - 1
    slope = 2 ** (1 / AGG.alpha) - 1
    d = plugin_remaining_quantile(AGG, 7.0, 0.5) - plugin_remaining_quantile(AGG, 3.0, 0.5)
    assert d == pytest.approx(4.0 * slope, rel=1e-12)


def test_age_monotonicity():
    vals = [plugin_remaining_quantile(AGG, s, 0.5) for s in np.linspace(0, 50, 20)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_predictive_exceedance_degenerate_chain():
    chain = _chain([[0.65, 0.70]] * 150)
    out = predictive_exceedance(chain, 2.0, None, 5.0)
    plug = float(survival(condition_on_age(GPaParams(0.65, 0.70), 2.0), 5.0))
    assert out["mean"] == pytest.approx(plug, rel=1e-12)
    assert out["low"] == pytest.approx(plug, rel=1e-12)
    assert out["high"] == pytest.approx(plug, rel=1e-12)


def test_predictive_exceedance_t_zero():
    rng = np.random.default_rng(0)
    chain = _chain(np.column_stack([rng.uniform(0.4, 1, 100), rng.uniform(0.4, 1, 100)]))
    out = predictive_exceedance(chain, 1.0, None, 0.0)
    assert out == {"mean": 1.0, "low": 1.0, "high": 1.0}


def test_predictive_exceedance_regression_needs_silica():
    chain = _chain([[0.65, 0.70, 0.04, 0.13]] * 120, kind="regression")
    with pytest.raises(ValueError, match="silica"):
        predictive_exceedance(chain, 1.0, None, 5.0)
    out = predictive_exceedance(chain, 1.0, 58.0, 5.0)
    adj = GPaParams(0.65 * math.exp(0.04 * -2), 0.70 * math.exp(0.13 * -2))
    assert out["mean"] == pytest.approx(
        float(survival(condition_on_age(adj, 1.0), 5.0)), rel=1e-12
    )


def test_predictive_curve_properties():
    rng = np.random.default_rng(4)
    draws = np.column_stack([rng.uniform(0.4, 1.0, 300), rng.uniform(0.3, 1.2, 300)])
    chain = _chain(draws)
    t_grid = np.linspace(0, 50, 26)
    curve = predictive_curve(chain, 3.0, None, t_grid)
    assert np.all(np.diff(curve.mean_probability) <= 0)
    assert np.all(np.diff(curve.plug_in_probability) <= 0)
    assert np.all(curve.band_low <= curve.mean_probability + 1e-12)
    assert np.all(curve.mean_probability <= curve.band_high + 1e-12)
    assert np.all((curve.mean_probability >= 0) & (curve.mean_probability <= 1))
    assert curve.draw_curves.shape == (100, 26)
    assert curve.band_level == 0.90


def test_predictive_curve_degenerate_equals_plugin():
    chain = _chain([[0.7, 0.9]] * 150)
    curve = predictive_curve(chain, 1.0, None, np.linspace(0, 20, 11))
    np.testing.assert_allclose(
        curve.mean_probability, curve.plug_in_probability, rtol=1e-12
    )


def test_predictive_curve_t_zero_only():
    chain = _chain([[0.7, 0.9]] * 150)
    curve = predictive_curve(chain, 1.0, None, [0.0])
    assert curve.mean_probability[0] == 1.0


def test_predictive_curve_unsorted_grid():
    chain = _chain([[0.7, 0.9]] * 150)
    with pytest.raises(ValueError, match="sorted"):
        predictive_curve(chain, 1.0, None, [3.0, 1.0])


def test_predictive_quartiles_degenerate():
    chain = _chain([[AGG.alpha, AGG.beta]] * 150)
    q25, q50, q75 = predictive_quartiles(chain, SHV_AGE)
    assert q25 == pytest.approx(plugin_remaining_quantile(AGG, SHV_AGE, 0.25), rel=1e-5)
    assert q50 == pytest.approx(plugin_remaining_quantile(AGG, SHV_AGE, 0.50), rel=1e-5)
    assert q75 == pytest.approx(plugin_remaining_quantile(AGG, SHV_AGE, 0.75), rel=1e-5)


def test_quartile_exceedance_inversion():
    rng = np.random.default_rng(9)
    draws = np.column_stack([rng.uniform(0.5, 0.9, 400), rng.uniform(0.4, 1.1, 400)])
    chain = _chain(draws)
    q25, q50, q75 = predictive_quartiles(chain, 2.0)
    assert predictive_exceedance(chain, 2.0, None, q50)["mean"] == pytest.approx(
        0.5, abs=1e-5
    )
    assert predictive_exceedance(chain, 2.0, None, q25)["mean"] == pytest.approx(
        0.75, abs=1e-5
    )


def test_quartiles_vs_monte_carlo_mixture():
    # two-component parameter mixture; oracle is brute-force sampling of the
    # predictive distribution
    comp = [(0.6, 0.8), (0.9, 1.5)]
    s = 2.0
    chain = _chain(comp * 200)
    rng = np.random.default_rng(123)
    n = 10_000_000
    pick = rng.integers(0, 2, n)
    alpha = np.where(pick == 0, comp[0][0], comp[1][0])
    beta = np.where(pick == 0, comp[0][1], comp[1][1])
    u = rng.random(n)
    t = (beta + s) * np.expm1(-np.log(u) / alpha)
    mc = np.quantile(t, [0.25, 0.50, 0.75])
    got = predictive_quartiles(chain, s)
    for g, w in zip(got, mc):
        assert g == pytest.approx(w, rel=0.005)


def test_predictive_quartiles_beyond_first_bracket():
    # alpha = 0.15: q75 = 4^(1/0.15) - 1 ~ 10 320 yr lies past 1e4 yr.
    p = GPaParams(0.15, 1.0)
    got = predictive_quartiles(_chain(np.tile([0.15, 1.0], (50, 1))), 0.0)
    for g, q in zip(got, (0.25, 0.50, 0.75)):
        assert g == pytest.approx(plugin_remaining_quantile(p, 0.0, q), rel=1e-5)
    assert got[2] > 1e4


def _random_chain(n, kind, seed):
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(0.4, 1.0, n), rng.uniform(0.3, 1.2, n)]
    if kind == "aggregate":
        return _chain(np.column_stack(cols))
    cols += [rng.normal(0.04, 0.02, n), rng.normal(0.13, 0.05, n)]
    return _chain(np.column_stack(cols), kind="regression")


def _adjusted(chain, silica):
    alpha, beta = chain.column("alpha"), chain.column("beta")
    if chain.model_kind == "regression":
        dx = silica - 60.0
        alpha = alpha * np.exp(chain.column("gamma_alpha") * dx)
        beta = beta * np.exp(chain.column("gamma_beta") * dx)
    return alpha, beta


@pytest.mark.parametrize(
    "n_draws, t_grid, kind, block_elements",
    [
        # 8 grid rows per block at 30 000 draws: blocks of 8, 8, 8 and 3
        (30_000, np.linspace(0, 300, 27), "aggregate", None),
        (30_000, np.linspace(0, 300, 27), "regression", None),
        (30_000, np.linspace(0, 300, 100), "regression", None),
        (60, np.linspace(0, 50, 11), "aggregate", None),
        (60, np.linspace(0, 50, 11), "regression", None),
        (5_000, [7.5], "aggregate", None),
        (5_000, [7.5], "regression", None),
        # more draws than a block holds: one grid row per block
        (700, np.linspace(0, 80, 5), "regression", 500),
        (700, np.linspace(0, 80, 13), "aggregate", 3_000),
    ],
)
def test_predictive_curve_matches_dense_oracle(
    monkeypatch, n_draws, t_grid, kind, block_elements
):
    if block_elements is not None:
        monkeypatch.setattr(forecast_module, "_BLOCK_ELEMENTS", block_elements)
    chain = _random_chain(n_draws, kind, seed=n_draws + len(t_grid))
    silica = 58.2 if kind == "regression" else None
    s = 19.7
    t = np.asarray(t_grid, dtype=float)
    alpha, beta = _adjusted(chain, silica)
    dense = np.exp(-alpha[:, None] * np.log1p(t[None, :] / (beta[:, None] + s)))
    lo_q = (1 - 0.90) / 2
    band = np.quantile(dense, [lo_q, 1 - lo_q], axis=0)

    curve = predictive_curve(chain, s, silica, t_grid)
    # Same values, order statistics and weights as the dense evaluation,
    # so equal to the bit; a band level written as 0.05 instead of
    # (1 - 0.90) / 2 moves some of them by an ulp.
    np.testing.assert_array_equal(curve.band_low, band[0])
    np.testing.assert_array_equal(curve.band_high, band[1])
    np.testing.assert_array_equal(curve.draw_curves, dense[:100])
    assert curve.draw_curves.shape == (min(100, n_draws), t.size)
    np.testing.assert_allclose(
        curve.mean_probability, dense.mean(axis=0), rtol=1e-12, atol=0
    )


@pytest.mark.parametrize("kind", ["aggregate", "regression"])
def test_quartiles_and_exceedance_equal_closed_loop(kind):
    chain = _random_chain(4_000, kind, seed=5)
    silica = 63.0 if kind == "regression" else None
    s = 3.5
    alpha, beta = _adjusted(chain, silica)

    def mean_exceedance(t):
        return float(np.mean(np.exp(-alpha * np.log1p(t / (beta + s)))))

    want = []
    for q in (0.25, 0.50, 0.75):
        lo, hi = 0.0, 1e4
        while mean_exceedance(hi) > 1.0 - q:
            lo, hi = hi, 10.0 * hi
        while hi - lo > 1e-6 * max(1.0, lo):
            mid = 0.5 * (lo + hi)
            if mean_exceedance(mid) > 1.0 - q:
                lo = mid
            else:
                hi = mid
        want.append(0.5 * (lo + hi))
    assert predictive_quartiles(chain, s, silica) == tuple(want)

    pj = np.exp(-alpha * np.log1p(12.5 / (beta + s)))
    lo, hi = np.quantile(pj, [(1 - 0.90) / 2, 1 - (1 - 0.90) / 2])
    assert predictive_exceedance(chain, s, silica, 12.5) == {
        "mean": float(pj.mean()),
        "low": float(lo),
        "high": float(hi),
    }


def test_predictive_curve_memory_is_linear_in_draws():
    chain = _random_chain(200_000, "aggregate", seed=8)
    t_grid = np.linspace(0, 300, 100)
    tracemalloc.start()
    try:
        predictive_curve(chain, 19.7, None, t_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A dense (draws x grid) evaluation peaks near 300 MB here.
    assert peak < 32e6


@pytest.mark.parametrize("s", [math.nan, math.inf, -5.0])
def test_bayes_forecasts_refuse_bad_age(s):
    chain = _random_chain(200, "aggregate", seed=2)
    with pytest.raises(ValueError, match="age"):
        predictive_curve(chain, s, None, [0.0, 1.0])
    with pytest.raises(ValueError, match="age"):
        predictive_exceedance(chain, s, None, 1.0)
    with pytest.raises(ValueError, match="age"):
        predictive_quartiles(chain, s)


def test_overflowing_quantiles_are_refused():
    # (beta + s)(4^(1/alpha) - 1) overflows a double at s = 1e308.
    assert plugin_remaining_quantile(AGG, 1e308, 0.25) < math.inf
    with pytest.raises(FloatingPointError, match="q=0.75"):
        plugin_remaining_quantile(AGG, 1e308, 0.75)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_predictive_curve_refuses_non_finite_grid(bad):
    chain = _random_chain(200, "aggregate", seed=2)
    with pytest.raises(ValueError, match="finite"):
        predictive_curve(chain, 1.0, None, [0.0, 1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        predictive_exceedance(chain, 1.0, None, bad)
