import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from domecast.pareto import (
    ExpParams,
    GPaParams,
    condition_on_age,
    density,
    exp_quantile,
    exp_survival,
    quantile,
    sample,
    survival,
)

AGG = GPaParams(0.6487, 0.7018)  # aggregate point estimates used as a fixture


def test_param_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            GPaParams(bad, 1.0)
        with pytest.raises(ValueError):
            GPaParams(1.0, bad)
        with pytest.raises(ValueError):
            ExpParams(bad)


def test_mean_regimes():
    assert GPaParams(2.0, 3.0).mean() == 3.0
    assert GPaParams(1.0, 3.0).mean() == math.inf
    assert GPaParams(0.5, 3.0).mean() == math.inf
    assert ExpParams(0.25).mean() == 4.0


def test_survival_examples():
    assert survival(GPaParams(1, 1), 1.0) == pytest.approx(0.5, abs=1e-15)
    assert survival(AGG, 0.0) == 1.0
    # frozen from a 50-digit oracle evaluation of (1 + 10/0.7018)^(-0.6487)
    assert survival(AGG, 10.0) == pytest.approx(0.17077722929743512, rel=1e-12)


def test_survival_rejects_negative_t():
    with pytest.raises(ValueError):
        survival(AGG, -0.1)
    with pytest.raises(ValueError):
        density(AGG, -0.1)


def test_density_examples():
    assert density(GPaParams(1, 1), 0.0) == pytest.approx(1.0)
    assert density(GPaParams(2, 1), 1.0) == pytest.approx(0.25)


def test_density_integrates_to_cdf():
    p = GPaParams(0.65, 0.70)
    integral, err = quad(lambda t: density(p, t), 0, 1e6, limit=200)
    assert integral == pytest.approx(1.0 - survival(p, 1e6), abs=1e-6)


def test_quantile_examples():
    assert quantile(GPaParams(1, 1), 0.5) == pytest.approx(1.0)
    assert quantile(AGG, 0.0) == 0.0
    # median formula beta * (2^(1/alpha) - 1) at the fixture estimates
    assert quantile(AGG, 0.5) == pytest.approx(1.3411819823329925, rel=1e-12)


def test_quantile_domain():
    with pytest.raises(ValueError):
        quantile(AGG, 1.0)
    with pytest.raises(ValueError):
        quantile(AGG, -0.01)


@given(
    st.floats(0.1, 10.0),
    st.floats(0.01, 100.0),
    st.floats(0.0, 0.99),
)
def test_quantile_survival_inverse(alpha, beta, q):
    p = GPaParams(alpha, beta)
    assert abs(survival(p, quantile(p, q)) - (1 - q)) < 1e-12


def test_quantile_survival_inverse_grid():
    for alpha in (0.1, 0.5, 1.0, 3.0, 10.0):
        for beta in (0.01, 1.0, 100.0):
            p = GPaParams(alpha, beta)
            for q in np.arange(0.01, 1.0, 0.01):
                assert abs(survival(p, quantile(p, q)) - (1 - q)) < 1e-12


def test_conditioning_examples():
    out = condition_on_age(AGG, 19.7)
    assert out.alpha == AGG.alpha
    assert out.beta == pytest.approx(20.4018)
    assert condition_on_age(AGG, 0.0) == AGG
    two_step = condition_on_age(condition_on_age(AGG, 3.0), 4.5)
    assert two_step == condition_on_age(AGG, 7.5)


@pytest.mark.parametrize("s", [math.nan, math.inf, -1.0])
def test_condition_on_age_refuses_bad_age(s):
    with pytest.raises(ValueError, match="age"):
        condition_on_age(AGG, s)


def test_conditioning_identity():
    # survival(s + t) / survival(s) == survival of the age-shifted model at t
    p = GPaParams(0.8, 1.7)
    for s in (0.5, 5.0, 80.0):
        for t in (0.1, 2.0, 40.0):
            lhs = survival(p, s + t) / survival(p, s)
            rhs = survival(condition_on_age(p, s), t)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_sample_examples():
    assert sample(GPaParams(1, 1), 0.5) == pytest.approx(1.0)
    assert sample(GPaParams(0.5, 2), 0.25) == pytest.approx(30.0)
    with pytest.raises(ValueError):
        sample(AGG, 0.0)
    with pytest.raises(ValueError):
        sample(AGG, 1.0)


def test_sample_empirical_survival():
    p = GPaParams(0.9, 1.3)
    rng = np.random.default_rng(7)
    draws = sample(p, rng.random(100_000))
    t90 = quantile(p, 0.9)
    frac = np.mean(draws > t90)
    assert frac == pytest.approx(0.100, abs=0.003)


def test_exponential_survival_and_quantile():
    assert exp_survival(ExpParams(1.0), 0.0) == 1.0
    # median at the evolved-class rate estimate
    assert exp_quantile(ExpParams(0.3390), 0.5) == pytest.approx(
        math.log(2) / 0.3390, rel=1e-12
    )
    assert exp_quantile(ExpParams(0.3390), 0.5) == pytest.approx(2.045, abs=5e-4)
    with pytest.raises(ValueError):
        exp_survival(ExpParams(1.0), -1.0)
    with pytest.raises(ValueError):
        exp_quantile(ExpParams(1.0), 1.0)


def test_exponential_is_gpa_limit():
    lam = 0.34
    big = 1e6
    p = GPaParams(big, big / lam)
    assert survival(p, 1.0) == pytest.approx(
        float(exp_survival(ExpParams(lam), 1.0)), abs=1e-5
    )


def test_exponential_memoryless():
    p = ExpParams(0.7)
    for s in (0.3, 2.0):
        for t in (0.1, 5.0):
            assert exp_survival(p, s + t) / exp_survival(p, s) == pytest.approx(
                float(exp_survival(p, t)), rel=1e-12
            )


def test_density_is_negative_survival_derivative():
    h = 1e-6
    for alpha in (0.2, 0.65, 2.0, 8.0):
        for beta in (0.1, 0.7, 10.0):
            p = GPaParams(alpha, beta)
            for t in (0.05, 1.0, 20.0):
                fd = -(survival(p, t + h) - survival(p, t - h)) / (2 * h)
                assert fd == pytest.approx(float(density(p, t)), rel=1e-6)


def test_log_survival_monotone_and_bounded():
    p = GPaParams(0.3, 0.5)
    t = np.linspace(0, 1e6, 101)
    s = survival(p, t)
    assert np.all(s > 0) and np.all(s <= 1)
    assert np.all(np.diff(s) < 0)
