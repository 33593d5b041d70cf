import json
import math

import numpy as np
import pytest

from conftest import make_catalog
from domecast.bayes import (
    ImproperPosteriorError,
    McmcConfig,
    PriorSpec,
    chain_summary,
    lag1_autocorrelation,
    load_chain,
    log_posterior,
    metropolis_accept,
    propriety_check,
    run_mh,
    save_chain,
)
from domecast.pareto import GPaParams
from domecast.simulate import SimSpec, generate

REFERENCE = PriorSpec()


@pytest.fixture(scope="module")
def mcmc_catalog():
    return generate(SimSpec(GPaParams(0.65, 0.70), n=300, seed=21))


@pytest.fixture(scope="module")
def short_chain(mcmc_catalog):
    cfg = McmcConfig(seed=5, burn_in=3000, iterations=30_000, thin=30)
    return run_mh("aggregate", mcmc_catalog, REFERENCE, cfg)


def test_prior_validation():
    with pytest.raises(ValueError):
        PriorSpec(a=-1)


def test_propriety_reference_prior():
    res = propriety_check(REFERENCE, 163)
    assert res.proper and res.finite_moments


def test_propriety_single_uncensored():
    res = propriety_check(REFERENCE, 1)
    assert not res.proper


def test_propriety_proper_prior_no_data():
    res = propriety_check(PriorSpec(1, 1, 1, 1), 0)
    assert res.proper and res.finite_moments


def test_propriety_boundary_cases():
    # tail condition: d == 0 requires n1 > c strictly
    assert not propriety_check(PriorSpec(0, 0, 3, 0), 3).proper
    assert propriety_check(PriorSpec(0, 0, 3, 0), 4).proper
    # finite moments need n1 > c + 2 when d == 0
    assert not propriety_check(PriorSpec(0, 0, 0, 0), 2).finite_moments
    assert propriety_check(PriorSpec(0, 0, 0, 0), 3).finite_moments


def test_mcmc_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        McmcConfig(seed=0, iterations=1001, thin=10)
    with pytest.raises(ValueError):
        McmcConfig(seed=0, burn_in=-1)


def test_log_posterior_reference_example():
    cat = make_catalog([(1.0, False)])
    lp = log_posterior("aggregate", cat, REFERENCE, [1.0, 1.0])
    assert lp == pytest.approx(-2 * math.log(2), rel=1e-14)


def test_log_posterior_censored_increment():
    cat1 = make_catalog([(1.0, False)])
    cat2 = make_catalog([(1.0, False), (1.0, True)])
    lp1 = log_posterior("aggregate", cat1, REFERENCE, [1.0, 1.0])
    lp2 = log_posterior("aggregate", cat2, REFERENCE, [1.0, 1.0])
    assert lp2 - lp1 == pytest.approx(-math.log(2), rel=1e-14)


def test_log_posterior_ratio_exact():
    cat = make_catalog([(2.0, False), (3.0, True)])
    from domecast.likelihood import nllh_aggregate

    t1, t2 = [0.8, 1.2], [1.5, 0.6]
    ratio = log_posterior("aggregate", cat, REFERENCE, t1) - log_posterior(
        "aggregate", cat, REFERENCE, t2
    )
    want = (
        -nllh_aggregate(cat, GPaParams(*t1))
        - math.log(t1[0]) - math.log(t1[1])
        + nllh_aggregate(cat, GPaParams(*t2))
        + math.log(t2[0]) + math.log(t2[1])
    )
    assert ratio == pytest.approx(want, abs=1e-12)


def test_run_mh_rejects_improper():
    cat = make_catalog([(1.0, False), (2.0, True)])
    cfg = McmcConfig(seed=0, burn_in=100, iterations=1000, thin=10)
    with pytest.raises(ImproperPosteriorError):
        run_mh("aggregate", cat, REFERENCE, cfg)


def test_run_mh_deterministic(mcmc_catalog):
    cfg = McmcConfig(seed=99, burn_in=500, iterations=5000, thin=10)
    a = run_mh("aggregate", mcmc_catalog, REFERENCE, cfg)
    b = run_mh("aggregate", mcmc_catalog, REFERENCE, cfg)
    np.testing.assert_array_equal(a.draws, b.draws)
    assert a.acceptance_rate == b.acceptance_rate


def test_run_mh_draw_count_and_domain(short_chain):
    assert short_chain.n_draws == 1000
    assert np.all(short_chain.draws > 0)
    assert 0 < short_chain.acceptance_rate < 1


def test_run_mh_tuned_acceptance(short_chain):
    assert 0.15 <= short_chain.acceptance_rate <= 0.6


def test_run_mh_low_autocorrelation(short_chain):
    assert abs(lag1_autocorrelation(short_chain.column("alpha"))) < 0.1
    assert abs(lag1_autocorrelation(short_chain.column("beta"))) < 0.1


def test_run_mh_posterior_close_to_mle(short_chain, mcmc_catalog):
    from domecast.fit import fit_aggregate

    mle = fit_aggregate(mcmc_catalog)
    s = chain_summary(short_chain)
    for name in ("alpha", "beta"):
        assert abs(s[name]["mean"] - mle.estimates[name]) < 4 * s[name]["sd"]


def test_chain_summary_constant():
    chain = _const_chain(np.full((200, 2), 3.5))
    s = chain_summary(chain)
    for name in chain.param_names:
        assert s[name]["mean"] == 3.5
        assert s[name]["sd"] == 0.0
        for q in ("q2.5", "q25", "q50", "q75", "q97.5"):
            assert s[name][q] == 3.5


def test_chain_summary_median():
    draws = np.column_stack([np.arange(1, 1001, dtype=float)] * 2)
    s = chain_summary(_const_chain(draws))
    assert s["alpha"]["q50"] == pytest.approx(500.5)


def test_chain_summary_short_chain():
    with pytest.raises(ValueError, match="short"):
        chain_summary(_const_chain(np.ones((50, 2))))


def _const_chain(draws):
    from domecast.bayes import PosteriorChain

    return PosteriorChain(
        draws=draws,
        param_names=("alpha", "beta"),
        acceptance_rate=0.3,
        config=McmcConfig(seed=0, burn_in=0, iterations=draws.shape[0], thin=1),
        model_kind="aggregate",
    )


def test_detailed_balance_two_point():
    # two states with target weights (0.3, 0.7) and a flip proposal: the
    # accept rule should produce transition frequencies matching the kernel
    pi = np.array([0.3, 0.7])
    rng = np.random.default_rng(17)
    state = 0
    counts = np.zeros((2, 2), dtype=int)
    steps = 1_000_000
    log_pi = np.log(pi)
    for _ in range(steps):
        prop = 1 - state
        nxt = prop if metropolis_accept(rng, log_pi[prop] - log_pi[state]) else state
        counts[state, nxt] += 1
        state = nxt
    # kernel: P(0->1) = 1; P(1->0) = 3/7
    n0 = counts[0].sum()
    n1 = counts[1].sum()
    p01 = counts[0, 1] / n0
    p10 = counts[1, 0] / n1
    assert p01 == 1.0
    sd = math.sqrt((3 / 7) * (4 / 7) / n1)
    assert abs(p10 - 3 / 7) < 3 * sd
    # stationary occupancy matches pi within 3 binomial sigmas
    sd_pi = math.sqrt(pi[0] * pi[1] / steps)
    assert abs(n0 / steps - pi[0]) < 3 * sd_pi


def test_chain_round_trip(tmp_path, short_chain):
    csv_path = tmp_path / "chain.csv"
    meta_path = tmp_path / "chain_meta.json"
    save_chain(short_chain, csv_path, meta_path)
    loaded = load_chain(csv_path, meta_path)
    np.testing.assert_allclose(loaded.draws, short_chain.draws, rtol=1e-12)
    assert loaded.param_names == short_chain.param_names
    assert loaded.model_kind == short_chain.model_kind
    assert loaded.config.seed == short_chain.config.seed


def test_regression_chain_runs(silica_catalog):
    cfg = McmcConfig(seed=2, burn_in=1000, iterations=4000, thin=20)
    chain = run_mh("regression", silica_catalog, REFERENCE, cfg)
    assert chain.param_names == ("alpha", "beta", "gamma_alpha", "gamma_beta")
    assert chain.n_draws == 200
    assert np.all(chain.draws[:, :2] > 0)


def _saved_chain(tmp_path, chain, **meta_changes):
    csv_path = tmp_path / "chain.csv"
    meta_path = tmp_path / "chain_meta.json"
    save_chain(chain, csv_path, meta_path)
    meta = json.loads(meta_path.read_text())
    meta.update(meta_changes)
    meta_path.write_text(json.dumps(meta))
    return csv_path, meta_path


def test_load_chain_rejects_header_of_another_model(tmp_path, short_chain):
    # an aggregate chain (alpha,beta) whose sidecar claims the regression model
    paths = _saved_chain(tmp_path, short_chain, model_kind="regression")
    with pytest.raises(ValueError, match=r"chain\.csv.*does not match the regression"):
        load_chain(*paths)


def test_load_chain_rejects_unknown_schema(tmp_path, short_chain):
    paths = _saved_chain(tmp_path, short_chain, schema="domecast/v0")
    with pytest.raises(ValueError, match=r"chain_meta\.json.*domecast/v0"):
        load_chain(*paths)
    paths = _saved_chain(tmp_path, short_chain, schema=None)
    with pytest.raises(ValueError, match=r"chain_meta\.json.*schema"):
        load_chain(*paths)
