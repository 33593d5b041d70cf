"""Invariants of the likelihoods and fits under time rescaling and
record order."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import assert_walks_match, make_catalog
from domecast.bayes import PriorSpec
from domecast.catalog import Catalog
from domecast.fit import fit_aggregate, fit_regression
from domecast.likelihood import (
    RegressionParams,
    _Kernel,
    catalog_arrays,
    model_kernel,
    nllh_aggregate,
)
from domecast.pareto import GPaParams
from domecast.simulate import SimSpec, generate

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

rows = st.lists(
    st.tuples(st.floats(0.01, 100.0), st.booleans()), min_size=1, max_size=40
)
gpa_catalogs = st.builds(
    lambda alpha, beta, seed: generate(
        SimSpec(
            GPaParams(alpha, beta),
            n=150,
            censoring="random_fraction",
            fraction=0.1,
            seed=seed,
        )
    ),
    st.floats(0.4, 3.0),
    st.floats(0.1, 10.0),
    st.integers(0, 2**32 - 1),
)


def rescaled(catalog: Catalog, c: float) -> Catalog:
    return Catalog(
        tuple(dataclasses.replace(r, duration=c * r.duration) for r in catalog.records)
    )


def permuted(catalog: Catalog, order) -> Catalog:
    return Catalog(tuple(catalog.records[i] for i in order))


@SETTINGS
@given(
    rows=rows,
    alpha=st.floats(0.05, 5.0),
    beta=st.floats(0.05, 20.0),
    c=st.floats(0.01, 100.0),
)
def test_nllh_time_rescaling(rows, alpha, beta, c):
    # NLLH(alpha, c beta; c t) = NLLH(alpha, beta; t) + n1 log c
    cat = make_catalog(rows)
    want = nllh_aggregate(cat, GPaParams(alpha, beta)) + cat.n1 * math.log(c)
    got = nllh_aggregate(rescaled(cat, c), GPaParams(alpha, c * beta))
    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


@SETTINGS
@given(catalog=gpa_catalogs, c=st.floats(0.1, 10.0))
def test_fit_aggregate_time_rescaling(catalog, c):
    base = fit_aggregate(catalog)
    assume(not base.notes)  # an interior optimum, away from the beta bounds
    scaled = fit_aggregate(rescaled(catalog, c))
    assert scaled.estimates["beta"] == pytest.approx(
        c * base.estimates["beta"], rel=1e-5
    )
    assert scaled.estimates["alpha"] == pytest.approx(base.estimates["alpha"], rel=1e-5)


@SETTINGS
@given(data=st.data(), catalog=gpa_catalogs)
def test_aggregate_order_invariance(data, catalog):
    order = data.draw(st.permutations(range(catalog.n)))
    shuffled = permuted(catalog, order)
    p = GPaParams(0.8, 1.3)
    assert nllh_aggregate(shuffled, p) == pytest.approx(
        nllh_aggregate(catalog, p), rel=1e-12
    )
    a, b = fit_aggregate(catalog), fit_aggregate(shuffled)
    for name in ("alpha", "beta"):
        assert b.estimates[name] == pytest.approx(a.estimates[name], rel=1e-5)


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_regression_order_invariance(data):
    catalog = generate(
        SimSpec(RegressionParams(0.65, 0.7, 0.05, 0.1), n=80, seed=7)
    )
    shuffled = permuted(catalog, data.draw(st.permutations(range(catalog.n))))
    p = (0.6, 0.9, 0.03, -0.02)
    assert model_kernel("regression", shuffled).nllh(*p) == pytest.approx(
        model_kernel("regression", catalog).nllh(*p), rel=1e-12
    )
    a, b = fit_regression(catalog), fit_regression(shuffled)
    assert b.nllh_at_mle == pytest.approx(a.nllh_at_mle, rel=1e-9)
    for name, value in a.estimates.items():
        assert b.estimates[name] == pytest.approx(value, rel=1e-4, abs=1e-6)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(12, 80),
    gammas=st.tuples(st.floats(-0.15, 0.15), st.floats(-0.15, 0.15)),
    fraction=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_regression_nllh_never_above_aggregate(n, gammas, fraction, seed):
    # The aggregate model is the regression model at zero gammas.
    catalog = generate(
        SimSpec(
            RegressionParams(0.65, 0.7, *gammas),
            n=n,
            censoring="random_fraction",
            fraction=fraction,
            seed=seed,
        )
    )
    assume(catalog.n1 >= 4)
    agg, reg = fit_aggregate(catalog), fit_regression(catalog)
    assert reg.nllh_at_mle <= agg.nllh_at_mle + 1e-9 * abs(agg.nllh_at_mle)


def _central_differences(f, point, h):
    """Gradient and Hessian of f at point by central differences of step h."""
    eye = np.eye(len(point)) * h
    grad = np.array([(f(point + e) - f(point - e)) / (2 * h) for e in eye])
    hess = np.array(
        [
            [
                (
                    f(point + a + b)
                    - f(point + a - b)
                    - f(point - a + b)
                    + f(point - a - b)
                )
                / (4 * h * h)
                for b in eye
            ]
            for a in eye
        ]
    )
    return grad, hess


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(12, 80),
    fraction=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
    theta=st.tuples(st.floats(-2.0, 2.0), st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
)
def test_profile_derivatives_match_central_differences(n, fraction, seed, theta):
    catalog = generate(
        SimSpec(
            RegressionParams(0.65, 0.7, 0.05, 0.1),
            n=n,
            censoring="random_fraction",
            fraction=fraction,
            seed=seed,
        )
    )
    assume(catalog.n1 >= 1)
    t, delta, x = catalog_arrays(catalog, require_silica=True)
    point = np.array(theta)
    for kernel, p in ((_Kernel(t, delta, x), point), (_Kernel(t, delta), point[:1])):
        d = kernel.profile_derivatives(math.exp(p[0]), *p[1:])

        def profile_nllh(v):
            return kernel.profile(math.exp(v[0]), *v[1:])[1]

        assert d.nllh == pytest.approx(profile_nllh(p), rel=1e-12)
        grad, hess = _central_differences(profile_nllh, p, 1e-4)
        scale = max(1.0, np.abs(hess).max())
        assert np.abs(d.grad - grad).max() <= 1e-5 * scale
        assert np.abs(d.hess - hess).max() <= 1e-5 * scale


# Examples are fixed: where lp is nearly flat the last bits of S can decide
# a step, and a fresh draw could find such a step with nothing broken.
@settings(SETTINGS, derandomize=True)
@given(
    n=st.integers(8, 60),
    catalog_seed=st.integers(0, 2**32 - 1),
    walk_seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 400),
    thin=st.integers(1, 4),
    scale=st.floats(0.02, 0.3),
)
def test_walk_matches_reference_walk(n, catalog_seed, walk_seed, rows, thin, scale):
    # The walk with kernel buffers and block-wise writes is the reference
    # walk: same coordinates, same acceptances, the generator left in the
    # same state.
    catalog = generate(
        SimSpec(
            RegressionParams(0.65, 0.7, 0.05, 0.1),
            n=n,
            censoring="random_fraction",
            fraction=0.1,
            seed=catalog_seed,
        )
    )
    assume(catalog.n1 >= 2)
    y0 = math.log(float(np.median(catalog.duration)))
    for kind, start in (("aggregate", [y0]), ("regression", [y0, 0.0, 0.0])):
        chol = scale * np.eye(len(start))
        kernel = model_kernel(kind, catalog)
        assert_walks_match(kernel, PriorSpec(), start, chol, walk_seed, rows, thin)
