import math

import numpy as np
import pytest

from conftest import make_catalog
from domecast.catalog import CompositionClass
from domecast.fit import (
    FitError,
    HessianError,
    ModelComparison,
    aic,
    bic,
    compare_models,
    fit_aggregate,
    fit_exponential,
    fit_grouped,
    fit_regression,
    pool_grouped,
    standard_errors,
)
from domecast.likelihood import (
    RegressionParams,
    nllh_aggregate,
    profile_alpha,
)
from domecast.pareto import ExpParams, GPaParams
from domecast.simulate import SimSpec, generate


@pytest.fixture(scope="module")
def synthetic_gpa():
    spec = SimSpec(GPaParams(0.65, 0.70), n=5000, seed=42)
    return generate(spec)


def test_fit_aggregate_recovers_truth(synthetic_gpa):
    r = fit_aggregate(synthetic_gpa)
    assert r.converged
    assert 0.60 <= r.estimates["alpha"] <= 0.70
    assert 0.60 <= r.estimates["beta"] <= 0.82
    assert r.k == 2 and r.n == 5000


def test_fit_aggregate_profile_consistency(synthetic_gpa):
    r = fit_aggregate(synthetic_gpa)
    assert r.estimates["alpha"] == pytest.approx(
        profile_alpha(synthetic_gpa, r.estimates["beta"]), rel=1e-10
    )


def test_fit_aggregate_beats_audit_grid(synthetic_gpa):
    r = fit_aggregate(synthetic_gpa)
    best = r.nllh_at_mle
    for log_beta in np.linspace(math.log(1e-4), math.log(1e4), 100):
        beta = math.exp(log_beta)
        alpha = profile_alpha(synthetic_gpa, beta)
        assert best <= nllh_aggregate(synthetic_gpa, GPaParams(alpha, beta)) + 1e-9


def test_fit_aggregate_needs_two_uncensored():
    cat = make_catalog([(1.0, False), (2.0, True)])
    with pytest.raises(FitError):
        fit_aggregate(cat)


def test_fit_aggregate_deterministic(synthetic_gpa):
    a = fit_aggregate(synthetic_gpa)
    b = fit_aggregate(synthetic_gpa)
    assert a.estimates == b.estimates
    assert a.standard_errors == b.standard_errors
    assert a.nllh_at_mle == b.nllh_at_mle


def test_replication_doubling(synthetic_gpa):
    single = fit_aggregate(synthetic_gpa)
    double = fit_aggregate(synthetic_gpa.concat(synthetic_gpa))
    for k in ("alpha", "beta"):
        assert double.estimates[k] == pytest.approx(single.estimates[k], rel=1e-6)
        ratio = single.standard_errors[k] / double.standard_errors[k]
        assert ratio == pytest.approx(math.sqrt(2), rel=0.02)


def test_fit_exponential_closed_form():
    spec = SimSpec(__import__("domecast").ExpParams(0.5), n=5000, seed=9)
    cat = generate(spec)
    r = fit_exponential(cat)
    assert 0.48 <= r.estimates["lambda"] <= 0.52
    t_sum = sum(rec.duration for rec in cat.records)
    assert r.estimates["lambda"] == pytest.approx(cat.n1 / t_sum, rel=1e-14)
    # analytic Fisher information: SE = lambda / sqrt(n1)
    assert r.standard_errors["lambda"] == pytest.approx(
        r.estimates["lambda"] / math.sqrt(cat.n1), rel=0.01
    )


def test_fit_aggregate_flags_beta_search_bounds(synthetic_gpa):
    assert fit_aggregate(synthetic_gpa).notes == ()
    # Exponential data: the profile likelihood keeps rising toward beta -> inf.
    upper = fit_aggregate(generate(SimSpec(ExpParams(0.5), n=2000, seed=1)))
    assert upper.estimates["beta"] == pytest.approx(1e4, rel=1e-3)
    assert len(upper.notes) == 1
    assert "upper search bound 10000" in upper.notes[0]
    assert "exponential" in upper.notes[0]
    # A scale far below the grid: the optimum sits at the lower bound.
    lower = fit_aggregate(generate(SimSpec(GPaParams(0.3, 1e-7), n=500, seed=1)))
    assert lower.estimates["beta"] == pytest.approx(1e-4, rel=1e-3)
    assert len(lower.notes) == 1
    assert "lower search bound 0.0001" in lower.notes[0]


def test_fit_grouped_classes(silica_catalog):
    r = fit_grouped(silica_catalog, CompositionClass.INTERMEDIATE, family="gpa")
    assert r.model_kind == "grouped"
    assert "class=intermediate" in r.notes
    r2 = fit_grouped(silica_catalog, CompositionClass.EVOLVED, family="exponential")
    assert r2.model_kind == "grouped-exponential"
    assert r2.k == 1


def test_fit_grouped_empty_class():
    cat = make_catalog([(1.0, False), (2.0, False)])
    with pytest.raises(FitError, match="mafic"):
        fit_grouped(cat, CompositionClass.MAFIC)


@pytest.fixture(scope="module")
def synthetic_regression():
    spec = SimSpec(
        RegressionParams(0.65, 0.70, 0.0, 0.0), n=4000, seed=5,
        censoring="random_fraction", fraction=0.05,
    )
    return generate(spec)


def test_fit_regression_null_gammas(synthetic_regression):
    r = fit_regression(synthetic_regression)
    assert abs(r.estimates["gamma_alpha"]) < 0.05
    assert abs(r.estimates["gamma_beta"]) < 0.05


def test_fit_regression_nests_aggregate(synthetic_regression):
    reg = fit_regression(synthetic_regression)
    agg = fit_aggregate(synthetic_regression)
    assert reg.nllh_at_mle <= agg.nllh_at_mle + 1e-6


def test_fit_regression_missing_silica(small_catalog):
    with pytest.raises(ValueError, match="silica"):
        fit_regression(small_catalog)


def test_standard_errors_quadratic():
    v = np.array([4.0, 0.25, 9.0])

    def f(theta):
        return 0.5 * float(np.sum(theta**2 / v))

    se = standard_errors(f, np.zeros(3), [False, False, False])
    np.testing.assert_allclose(se, np.sqrt(v), rtol=1e-6)


def test_standard_errors_saddle():
    def f(theta):
        return theta[0] ** 2 - theta[1] ** 2

    with pytest.raises(HessianError):
        standard_errors(f, np.zeros(2), [False, False])


def test_aic_bic_identities():
    # BIC - AIC = k (log n - 2), matching the published gaps
    n = 177
    assert bic(376.26, 2, n) - aic(376.26, 2) == pytest.approx(
        762.87 - 756.52, abs=0.01
    )
    assert bic(371.985, 4, n) - aic(371.985, 4) == pytest.approx(
        764.68 - 751.97, abs=0.01
    )
    assert bic(369.805, 6, n) - aic(369.805, 6) == pytest.approx(
        770.67 - 751.61, abs=0.01
    )
    assert aic(376.26, 2) == pytest.approx(756.52, abs=0.01)
    assert bic(376.26, 2, n) == pytest.approx(762.87, abs=0.01)
    assert aic(371.985, 4) == pytest.approx(751.97, abs=0.01)
    assert bic(371.985, 4, n) == pytest.approx(764.68, abs=0.01)
    assert aic(369.805, 6) == pytest.approx(751.61, abs=0.01)
    assert bic(369.805, 6, n) == pytest.approx(770.67, abs=0.01)


def test_compare_models(synthetic_regression):
    agg = fit_aggregate(synthetic_regression)
    reg = fit_regression(synthetic_regression)
    cmp = compare_models([agg, reg])
    assert isinstance(cmp, ModelComparison)
    for s in cmp.scores:
        assert s.aic == pytest.approx(2 * s.k + 2 * s.nllh)
        assert s.bic == pytest.approx(s.k * math.log(s.n) + 2 * s.nllh)


def test_compare_models_mismatched_n(synthetic_gpa, synthetic_regression):
    with pytest.raises(ValueError, match="different n"):
        compare_models([fit_aggregate(synthetic_gpa), fit_aggregate(synthetic_regression)])


def test_pool_grouped(silica_catalog):
    fits = [
        fit_grouped(silica_catalog, cls)
        for cls in CompositionClass
        if silica_catalog.filter_class(cls).n1 >= 2
    ]
    pooled = pool_grouped(fits)
    assert pooled.k == sum(f.k for f in fits)
    assert pooled.nllh_at_mle == pytest.approx(sum(f.nllh_at_mle for f in fits))
    assert pooled.n == sum(f.n for f in fits)


def test_grouped_sum_beats_aggregate(silica_catalog):
    # nesting: per-class fits can only improve on the single shared fit
    fits = [
        fit_grouped(silica_catalog, cls)
        for cls in CompositionClass
        if silica_catalog.filter_class(cls).n1 >= 2
    ]
    covered = sum(f.n for f in fits)
    if covered == silica_catalog.n:
        agg = fit_aggregate(silica_catalog)
        assert pool_grouped(fits).nllh_at_mle <= agg.nllh_at_mle + 1e-6
