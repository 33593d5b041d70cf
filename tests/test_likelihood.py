import math

import numpy as np
import pytest

import reference
from conftest import make_catalog
from domecast.likelihood import (
    MODELS,
    RegressionParams,
    model_kernel,
    nllh_aggregate,
    nllh_exponential,
)
from domecast.pareto import ExpParams, GPaParams

P11 = GPaParams(1.0, 1.0)


def test_aggregate_single_uncensored():
    cat = make_catalog([(1.0, False)])
    assert nllh_aggregate(cat, P11) == pytest.approx(2 * math.log(2), rel=1e-14)


def test_aggregate_single_censored():
    cat = make_catalog([(1.0, True)])
    assert nllh_aggregate(cat, P11) == pytest.approx(math.log(2), rel=1e-14)


def test_aggregate_empty_catalog():
    with pytest.raises(ValueError, match="empty"):
        nllh_aggregate(make_catalog([]), P11)


def test_additivity():
    a = [(1.0, False), (2.0, True)]
    b = [(0.5, False), (7.0, False), (3.0, True)]
    p = GPaParams(0.7, 1.3)
    assert nllh_aggregate(make_catalog(a + b), p) == pytest.approx(
        nllh_aggregate(make_catalog(a), p) + nllh_aggregate(make_catalog(b), p),
        rel=1e-12,
    )


def test_censoring_flip_delta():
    # Censoring a record swaps its density factor for a survival factor:
    # NLLH changes by log(alpha/beta) - log(1 + t/beta) exactly.
    t, alpha, beta = 2.7, 0.8, 1.4
    p = GPaParams(alpha, beta)
    base = [(5.0, False), (1.0, True)]
    unc = make_catalog(base + [(t, False)])
    cen = make_catalog(base + [(t, True)])
    delta = nllh_aggregate(cen, p) - nllh_aggregate(unc, p)
    assert delta == pytest.approx(
        math.log(alpha / beta) - math.log1p(t / beta), rel=1e-12
    )


def test_profile_alpha_examples():
    beta = 2.0
    cat = make_catalog([(beta, False)])
    assert model_kernel("aggregate", cat).profile(beta)[0] == pytest.approx(
        1 / math.log(2), rel=1e-14
    )
    cat2 = make_catalog([(beta, False), (3 * beta, False)])
    assert model_kernel("aggregate", cat2).profile(beta)[0] == pytest.approx(
        2 / (3 * math.log(2)), rel=1e-14
    )


def test_profile_alpha_no_uncensored():
    cat = make_catalog([(1.0, True), (2.0, True)])
    with pytest.raises(ValueError):
        model_kernel("aggregate", cat).profile(1.0)


def test_profile_alpha_stationary(small_catalog):
    # The kernel's profile MLE is stationary in the per-record likelihood.
    beta = 0.9
    a_hat = model_kernel("aggregate", small_catalog).profile(beta)[0]
    h = 1e-5 * a_hat

    def f(a):
        return reference.nllh(small_catalog, a, beta)

    deriv = (f(a_hat + h) - f(a_hat - h)) / (2 * h)
    assert abs(deriv) < 1e-8
    # strict convexity in alpha at fixed beta: positive second difference
    second = (f(a_hat + h) - 2 * f(a_hat) + f(a_hat - h)) / h**2
    assert second > 0


def test_regression_reduces_to_aggregate(silica_catalog):
    kernel = model_kernel("regression", silica_catalog)
    assert kernel.nllh(0.7, 1.1, 0.0, 0.0) == pytest.approx(
        nllh_aggregate(silica_catalog, GPaParams(0.7, 1.1)), rel=1e-12
    )


def test_regression_two_records():
    cat = make_catalog([(1.0, False, 61.0), (1.0, False, 60.0)])
    kernel = model_kernel("regression", cat)
    # x=61 doubles beta, x=60 keeps it; alpha unchanged:
    # 2 log(1.5) + log 2, then 2 log 2
    assert kernel.nllh(1.0, 1.0, 0.0, math.log(2)) == pytest.approx(
        2 * math.log(1.5) + 3 * math.log(2), rel=1e-12
    )


def test_regression_missing_silica_named():
    cat = make_catalog([(1.0, False, 61.0), (2.0, False)])
    with pytest.raises(ValueError, match="V1"):
        model_kernel("regression", cat)


def test_regression_refuses_one_silica_value(silica_catalog):
    # One silica value leaves the silica coefficients unidentified: a single
    # class of the fixture (all at 58 percent) and a single record.
    from domecast.catalog import CompositionClass

    sub = silica_catalog.filter_class(CompositionClass.INTERMEDIATE)
    for cat, value in ((sub, "58"), (make_catalog([(1.0, False, 61.5)]), "61.5")):
        message = f"two distinct silica values; every record has silica_pct {value}$"
        with pytest.raises(ValueError, match=message):
            model_kernel("regression", cat)
        assert model_kernel("aggregate", cat).n1 == cat.n1


def test_profile_alpha_regression_examples(silica_catalog):
    regression = model_kernel("regression", silica_catalog)
    aggregate = model_kernel("aggregate", silica_catalog)
    assert regression.profile(0.8, 0.0, 0.0)[0] == pytest.approx(
        aggregate.profile(0.8)[0], rel=1e-14
    )
    # dx = 0: w = 1, b = 2; dx = 1: w = e^0.3, b = 2 e^-0.2.
    cat = make_catalog([(2.0, False, 60.0), (2.0, False, 61.0)])
    assert model_kernel("regression", cat).profile(2.0, 0.3, -0.2)[0] == pytest.approx(
        2 / (math.log(2) + math.exp(0.3) * math.log1p(math.exp(0.2))), rel=1e-14
    )


def test_profile_alpha_regression_stationary(silica_catalog):
    # The kernel's profile MLE is stationary in the per-record likelihood.
    beta, ga, gb = 0.8, 0.05, 0.1
    a_hat = model_kernel("regression", silica_catalog).profile(beta, ga, gb)[0]
    h = 1e-5 * a_hat

    def f(a):
        return reference.nllh(silica_catalog, a, beta, ga, gb)

    deriv = (f(a_hat + h) - f(a_hat - h)) / (2 * h)
    assert abs(deriv) < 1e-8


def test_exponential_examples():
    assert nllh_exponential(make_catalog([(1.0, False)]), ExpParams(1.0)) == (
        pytest.approx(1.0)
    )
    assert nllh_exponential(make_catalog([(2.0, True)]), ExpParams(0.5)) == (
        pytest.approx(1.0)
    )


def test_exponential_mle_stationary(small_catalog):
    t_sum = sum(r.duration for r in small_catalog.records)
    lam_hat = small_catalog.n1 / t_sum
    h = 1e-7 * lam_hat

    def f(lam):
        return nllh_exponential(small_catalog, ExpParams(lam))

    deriv = (f(lam_hat + h) - f(lam_hat - h)) / (2 * h)
    assert abs(deriv) < 1e-8


def test_regression_kernel_matches_per_record_oracle(silica_catalog):
    # Censored records and both gammas non-zero, against the record-by-record
    # density/survival formula: a_i = alpha e^{ga dx_i}, b_i = beta e^{gb dx_i}.
    alpha, beta, ga, gb = 0.7, 1.1, 0.04, -0.06
    assert 0 < silica_catalog.n1 < silica_catalog.n
    kernel = model_kernel("regression", silica_catalog)
    assert kernel.nllh(alpha, beta, ga, gb) == pytest.approx(
        reference.nllh(silica_catalog, alpha, beta, ga, gb), rel=1e-12
    )
    assert kernel.profile(beta, ga, gb)[0] == pytest.approx(
        reference.profile_alpha(silica_catalog, beta, ga, gb), rel=1e-12
    )


def test_silica_map_is_elementwise_and_refuses_x_outside_catalog_range():
    from domecast.likelihood import _at_silica

    p = RegressionParams(0.65, 0.7, 0.04, 0.13)
    x = np.array([30.0, 50.0, 58.2, 60.0, 67.0, 90.0])
    alpha, beta = _at_silica(0.65, 0.7, 0.04, 0.13, x)
    np.testing.assert_array_equal(alpha, 0.65 * np.exp(0.04 * (x - 60.0)))
    np.testing.assert_array_equal(beta, 0.7 * np.exp(0.13 * (x - 60.0)))
    for xi, a, b in zip(x, alpha, beta):
        assert p.at_silica(xi) == GPaParams(a, b)
    assert p.at_silica(60.0) == GPaParams(0.65, 0.7)
    for bad in (math.nan, math.inf, -math.inf, 29.99, 90.01, 1e6):
        with pytest.raises(ValueError, match="outside"):
            p.at_silica(bad)
        with pytest.raises(ValueError, match="outside"):
            _at_silica(alpha, beta, 0.04, 0.13, np.array([58.0, bad]))


@pytest.mark.parametrize("kind", ["aggregate", "regression"])
def test_kernel_calls_interleaved_match_fresh_kernels(kind, silica_catalog):
    # sums writes into buffers the kernel keeps, and profile_derivatives into
    # others: a call must not see what an earlier call at another point left.
    kernel = model_kernel(kind, silica_catalog)
    k = len(MODELS[kind].theta)
    points = [(0.7, 0.0, 0.0), (1.6, 0.05, -0.08), (25.0, -0.1, 0.12)]
    calls = [
        ("sums", ()),
        ("profile_derivatives", ()),
        ("profile", ()),
        ("nllh", (0.6,)),
    ]
    for j in range(len(points) * len(calls)):  # each call at each point
        name, lead = calls[j % len(calls)]
        point = points[j % len(points)][:k]
        got = getattr(kernel, name)(*lead, *point)
        want = getattr(model_kernel(kind, silica_catalog), name)(*lead, *point)
        if name == "profile_derivatives":
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        else:
            assert got == want
