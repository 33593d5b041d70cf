"""Invariants of the likelihoods and fits under time rescaling and
record order."""

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import make_catalog
from domecast.catalog import Catalog
from domecast.fit import fit_aggregate, fit_regression
from domecast.likelihood import RegressionParams, nllh_aggregate, nllh_regression
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
    p = RegressionParams(0.6, 0.9, 0.03, -0.02)
    assert nllh_regression(shuffled, p) == pytest.approx(
        nllh_regression(catalog, p), rel=1e-12
    )
    a, b = fit_regression(catalog), fit_regression(shuffled)
    assert b.nllh_at_mle == pytest.approx(a.nllh_at_mle, rel=1e-9)
    for name, value in a.estimates.items():
        assert b.estimates[name] == pytest.approx(value, rel=1e-4, abs=1e-6)
