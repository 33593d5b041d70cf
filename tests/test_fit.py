import math

import numpy as np
import pytest

import reference
from conftest import make_catalog
from domecast.catalog import CompositionClass
from domecast.fit import (
    LOG_BETA_HI,
    FitError,
    HessianError,
    aic,
    bic,
    fit_aggregate,
    fit_exponential,
    fit_grouped,
    fit_regression,
)
from domecast.likelihood import RegressionParams, _Kernel, catalog_arrays
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
        reference.profile_alpha(synthetic_gpa, r.estimates["beta"]), rel=1e-10
    )


def test_fit_aggregate_beats_audit_grid(synthetic_gpa):
    r = fit_aggregate(synthetic_gpa)
    best = r.nllh_at_mle
    for log_beta in np.linspace(math.log(1e-4), math.log(1e4), 100):
        beta = math.exp(log_beta)
        alpha = reference.profile_alpha(synthetic_gpa, beta)
        assert best <= reference.nllh(synthetic_gpa, alpha, beta) + 1e-9


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
    double = fit_aggregate(synthetic_gpa._take(np.tile(np.arange(synthetic_gpa.n), 2)))
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
    r = fit_grouped(silica_catalog, CompositionClass.INTERMEDIATE)
    assert r.model_kind == "aggregate"
    assert "class=intermediate" in r.notes
    r2 = fit_grouped(silica_catalog, CompositionClass.EVOLVED, "exponential")
    assert r2.model_kind == "exponential"
    assert r2.notes == ("class=evolved",)
    assert r2.k == 1


def test_fit_grouped_empty_class():
    cat = make_catalog([(1.0, False), (2.0, False)])
    with pytest.raises(ValueError, match="no records in class 'mafic'"):
        fit_grouped(cat, CompositionClass.MAFIC)


@pytest.mark.parametrize("kind", ["grouped", "gpa", "Aggregate"])
def test_fit_grouped_unknown_kind(silica_catalog, kind):
    with pytest.raises(ValueError, match=f"unknown model_kind '{kind}'"):
        fit_grouped(silica_catalog, CompositionClass.INTERMEDIATE, kind)


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
    # The central-difference oracle that the analytic SEs are checked against.
    v = np.array([4.0, 0.25, 9.0])

    def f(theta):
        return 0.5 * float(np.sum(theta**2 / v))

    se = reference.standard_errors(f, np.zeros(3), [False, False, False])
    np.testing.assert_allclose(se, np.sqrt(v), rtol=1e-6)


def test_standard_errors_saddle():
    def f(theta):
        return theta[0] ** 2 - theta[1] ** 2

    with pytest.raises(HessianError):
        reference.standard_errors(f, np.zeros(2), [False, False])


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


def test_fit_scores_match_aic_bic_definitions(synthetic_regression):
    agg = fit_aggregate(synthetic_regression)
    reg = fit_regression(synthetic_regression)
    for r in (agg, reg):
        assert r.aic() == pytest.approx(2 * r.k + 2 * r.nllh_at_mle)
        assert r.bic() == pytest.approx(r.k * math.log(r.n) + 2 * r.nllh_at_mle)


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
        assert math.fsum(f.nllh_at_mle for f in fits) <= agg.nllh_at_mle + 1e-6


def test_fit_aggregate_at_beta_search_bound_is_not_converged(synthetic_gpa):
    assert fit_aggregate(synthetic_gpa).converged is True
    upper = fit_aggregate(generate(SimSpec(ExpParams(0.5), n=2000, seed=1)))
    lower = fit_aggregate(generate(SimSpec(GPaParams(0.3, 1e-7), n=500, seed=1)))
    for boundary_fit in (upper, lower):
        assert boundary_fit.converged is False
        assert "search bound" in boundary_fit.notes[0]


def _kernel_and_point(catalog, result):
    """The kernel a fit used and its returned theta = (log beta[, gammas])."""
    t, delta, x = catalog_arrays(catalog)
    est = result.estimates
    if result.model_kind == "regression":
        point = (est["beta"], est["gamma_alpha"], est["gamma_beta"])
        return _Kernel(t, delta, x), point
    return _Kernel(t, delta), (est["beta"],)


def test_analytic_standard_errors_match_central_differences(
    synthetic_gpa, synthetic_regression
):
    for catalog, fit_fn in (
        (synthetic_gpa, fit_aggregate),
        (synthetic_regression, fit_regression),
    ):
        r = fit_fn(catalog)
        theta = list(r.estimates.values())
        log_scale = [True, True] + [False] * (len(theta) - 2)
        numeric = reference.standard_errors(
            lambda th: reference.nllh(catalog, *th), theta, log_scale
        )
        np.testing.assert_allclose(list(r.standard_errors.values()), numeric, rtol=1e-4)


def test_gradient_vanishes_at_returned_optima(
    synthetic_gpa, synthetic_regression, silica_catalog
):
    fits = [(synthetic_gpa, fit_aggregate)] + [
        (catalog, fit_fn)
        for catalog in (synthetic_regression, silica_catalog)
        for fit_fn in (fit_aggregate, fit_regression)
    ]
    for catalog, fit_fn in fits:
        r = fit_fn(catalog)
        assert r.converged and not r.notes
        kernel, point = _kernel_and_point(catalog, r)
        d = kernel.profile_derivatives(*point)
        assert d.nllh == pytest.approx(r.nllh_at_mle, rel=1e-12)
        assert np.abs(d.grad).max() < 1e-6 * max(1.0, abs(d.nllh))


def test_fit_kernel_pass_counts(silica_catalog):
    # Nelder-Mead took about 1700 evaluations here and the bounded scalar
    # search 125; iterations now counts Newton kernel passes.
    assert fit_regression(silica_catalog).iterations <= 170
    assert fit_aggregate(silica_catalog).iterations <= 125


def test_fit_regression_flags_search_box():
    # Durations grow like exp(8 (x - 60)): gamma_beta would pass the bound 5.
    rng = np.random.default_rng(11)
    x = np.linspace(55.0, 65.0, 60)
    t = np.exp(8.0 * (x - 60.0)) * 0.7 * np.expm1(rng.exponential(size=60) / 0.65)
    rows = [(float(a), False, float(b)) for a, b in zip(t, x)]
    r = fit_regression(make_catalog(rows))
    assert r.converged is False
    assert r.estimates["gamma_beta"] == 5.0
    assert any("gamma_beta at the upper bound 5 " in note for note in r.notes)
    assert not any(note.startswith("gamma_alpha") for note in r.notes)


@pytest.mark.parametrize(
    "n, gammas, fraction, seed",
    [
        (12, (0.0, 0.0), 0.0, 2258),
        (12, (0.0, 0.0), 0.25, 156362642),
        (42, (0.0, 0.0), 0.298828125, 3890862),
        (12, (0.109375, -0.109375), 0.25, 11782),
        (12, (0.07850968218308202, 0.0), 0.25, 3672),
    ],
)
def test_fit_regression_on_small_catalogs(n, gammas, fraction, seed):
    # Nearly flat ridges with indefinite Hessians, where gradient steps
    # stalled and a singular information matrix broke the SEs.
    spec = SimSpec(
        RegressionParams(0.65, 0.7, *gammas),
        n=n,
        censoring="random_fraction",
        fraction=fraction,
        seed=seed,
    )
    catalog = generate(spec)
    agg, reg = fit_aggregate(catalog), fit_regression(catalog)
    assert reg.nllh_at_mle <= agg.nllh_at_mle
    kernel, point = _kernel_and_point(catalog, reg)
    d = kernel.profile_derivatives(*point)
    on_box = any("of the search box" in note for note in reg.notes)
    if not on_box:
        assert np.abs(d.grad).max() < 1e-6 * max(1.0, abs(d.nllh))
    assert reg.converged == (not on_box and reg.standard_errors is not None)


def test_fit_regression_on_flat_ridge_is_not_converged():
    # The information matrix is singular at the returned optimum, so the
    # estimates are one arbitrary point of a flat likelihood ridge.
    catalog = generate(
        SimSpec(
            RegressionParams(0.65, 0.7, 0, 0),
            n=12,
            censoring="random_fraction",
            fraction=0.25,
            seed=156362642,
        )
    )
    r = fit_regression(catalog)
    assert r.standard_errors is None
    assert r.converged is False
    assert any("standard errors undefined" in note for note in r.notes)
    assert not any("of the search box" in note for note in r.notes)
    assert r.to_dict()["converged"] is False


def test_converged_fits_have_standard_errors(silica_catalog):
    for r in (fit_aggregate(silica_catalog), fit_regression(silica_catalog)):
        assert r.converged and r.standard_errors is not None


def _with_silica(catalog, silica):
    return make_catalog(zip(catalog.duration, catalog.censored, silica))


@pytest.mark.parametrize("seed", range(40))
def test_fit_regression_with_unidentified_gammas_is_not_converged(seed):
    # One silica value for every record: the gammas are not identified, so
    # the information is singular however its null eigenvalues round.
    catalog = generate(
        SimSpec(GPaParams(0.65, 0.7), n=60, censoring="random_fraction",
                fraction=0.1, seed=seed)
    )
    r = fit_regression(_with_silica(catalog, [58.0] * catalog.n))
    assert r.converged is False
    assert r.standard_errors is None
    assert any("standard errors undefined" in note for note in r.notes)


def test_both_fits_share_the_search_box():
    # Exponential data: both likelihoods rise toward beta -> inf.
    catalog = generate(SimSpec(ExpParams(0.5), n=2000, seed=1))
    catalog = _with_silica(catalog, np.resize([50.0, 58.0, 67.0], catalog.n))
    agg, reg = fit_aggregate(catalog), fit_regression(catalog)
    assert agg.estimates["beta"] == reg.estimates["beta"] == math.exp(LOG_BETA_HI)
    beta_notes = [
        [note for note in r.notes if note.startswith("beta ")] for r in (agg, reg)
    ]
    assert beta_notes[0] == beta_notes[1] and len(beta_notes[0]) == 1
    assert "exponential" in beta_notes[0][0]
    assert "of the search box" in beta_notes[0][0]
    assert not agg.converged and not reg.converged
