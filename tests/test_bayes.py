import dataclasses
import json
import math
import os
import stat

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from conftest import assert_walks_match, make_catalog
from domecast.bayes import (
    ImproperPosteriorError,
    McmcConfig,
    McmcError,
    PriorSpec,
    _marginal_log_target,
    chain_summary,
    lag1_autocorrelation,
    load_chain,
    log_posterior,
    metropolis_accept,
    propriety_check,
    run_mh,
    save_chain,
)
from domecast import bayes
from domecast.fit import FitError, fit_regression
from domecast.likelihood import MODELS, model_kernel
from domecast.pareto import ExpParams, GPaParams
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["a", "b", "c", "d"])
def test_prior_refuses_non_finite_hyperparameter(name, value):
    # b = nan once gave a chain of NaN alphas, d = inf a frozen chain.
    with pytest.raises(ValueError, match=f"hyperparameter {name} must be finite"):
        PriorSpec(**{name: value})


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
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        McmcConfig(seed=-1)


@pytest.mark.parametrize(
    "field,value",
    [("burn_in", math.nan), ("seed", 1.5), ("iterations", 10.0), ("thin", "1"),
     ("seed", True)],
)
def test_mcmc_config_refuses_a_non_integer_count(field, value):
    # burn_in=NaN was once accepted, and run_mh then died with TypeError.
    counts = dict(seed=0, burn_in=0, iterations=10, thin=1)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        McmcConfig(**{**counts, field: value})



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


def test_log_posterior_checks_parameter_count_first(mcmc_catalog, silica_catalog):
    with pytest.raises(ValueError, match="expected 2 parameters for aggregate"):
        log_posterior("aggregate", mcmc_catalog, REFERENCE, [1.0])
    with pytest.raises(ValueError, match="expected 4 parameters for regression"):
        log_posterior("regression", silica_catalog, REFERENCE, [1.0, 1.0])


@pytest.mark.parametrize("kind", ["exponential", "grouped"])
@pytest.mark.parametrize("entry", ["run_mh", "log_posterior", "load_chain"])
def test_kernel_less_kinds_stay_refused(tmp_path, mcmc_catalog, short_chain, kind,
                                        entry):
    # The exponential model is in the model table but has no kernel to sample.
    config = McmcConfig(seed=0, iterations=10, thin=1)
    with pytest.raises(ValueError, match=f"unknown model_kind '{kind}'"):
        if entry == "run_mh":
            run_mh(kind, mcmc_catalog, REFERENCE, config)
        elif entry == "log_posterior":
            log_posterior(kind, mcmc_catalog, REFERENCE, [0.5])
        else:
            load_chain(*_saved_chain(tmp_path, short_chain, model_kind=kind))


def test_run_mh_starts_from_zeros_when_the_fit_refuses(monkeypatch):
    # Three uncensored records: too few for the regression fit, which the
    # sampler's kernel does not require, so the walk starts from zeros.
    cat = make_catalog([(1.0, False, 50.0), (2.0, False, 58.0), (4.0, False, 67.0),
                        (3.0, True, 58.0)])
    with pytest.raises(FitError, match="at least 4 uncensored"):
        fit_regression(cat)
    starts, walk = [], bayes._walk

    def recording_walk(rng, log_target, state, *rest):
        starts.append(list(state[0]))
        return walk(rng, log_target, state, *rest)

    monkeypatch.setattr(bayes, "_walk", recording_walk)
    chain = run_mh("regression", cat, REFERENCE,
                   McmcConfig(seed=0, burn_in=0, iterations=20, thin=1))
    assert starts == [[0.0, 0.0, 0.0]] and chain.n_draws == 20


def _regression_chain(catalog, seed=2, burn_in=3000, iterations=30_000, thin=10):
    cfg = McmcConfig(seed=seed, burn_in=burn_in, iterations=iterations, thin=thin)
    return run_mh("regression", catalog, REFERENCE, cfg)


def test_chain_round_trip_keeps_frozen_proposal(tmp_path, silica_catalog):
    chain = _regression_chain(silica_catalog, burn_in=1000, iterations=4000, thin=20)
    L = chain.proposal_cholesky
    assert L.shape == (3, 3)
    assert np.array_equal(L, np.tril(L)) and np.all(np.diag(L) > 0)
    csv_path, meta_path = _saved_chain(tmp_path, chain)
    meta = json.loads(meta_path.read_text())
    assert meta["proposal"]["coordinates"] == ["log_beta", "gamma_alpha", "gamma_beta"]
    np.testing.assert_array_equal(load_chain(csv_path, meta_path).proposal_cholesky, L)
    # Sidecars written before the proposal was recorded still load.
    del meta["proposal"]
    meta_path.write_text(json.dumps(meta))
    assert load_chain(csv_path, meta_path).proposal_cholesky is None


def test_load_chain_rejects_proposal_of_another_model(tmp_path, short_chain):
    proposal = {
        "coordinates": list(MODELS["regression"].theta),
        "cholesky": np.eye(3).tolist(),
    }
    paths = _saved_chain(tmp_path, short_chain, proposal=proposal)
    with pytest.raises(ValueError, match=r"chain_meta\.json.*proposal"):
        load_chain(*paths)


def test_save_chain_writes_savetxt_bytes(tmp_path):
    draws = np.array(
        [[-0.0, 1e-300], [1e300, 0.1], [3.0, -2.5e-7]] * 700  # spans blocks
    )
    csv_path = tmp_path / "chain.csv"
    save_chain(_const_chain(draws), csv_path, tmp_path / "chain_meta.json")
    want = tmp_path / "savetxt.csv"
    np.savetxt(want, draws, delimiter=",", header="alpha,beta", comments="")
    assert csv_path.read_bytes() == want.read_bytes()


def test_run_mh_rejects_prior_without_alpha_conditional():
    # Proper by propriety_check (c, d > 0), but a + n1 = 0: alpha | rest
    # ~ Gamma(0, b + S) does not exist.
    cat = make_catalog([(1.0, True), (2.0, True)])
    cfg = McmcConfig(seed=0, burn_in=0, iterations=10, thin=1)
    with pytest.raises(ImproperPosteriorError, match="a \\+ n1"):
        run_mh("aggregate", cat, PriorSpec(0, 1, 1, 1), cfg)


def _log_alpha_integral(kind, catalog, prior, beta, gammas):
    """log of the integral over alpha of exp(log_posterior), by quadrature
    around the mode of the alpha integrand."""

    def log_f(a):
        return log_posterior(kind, catalog, prior, [a, beta, *gammas])

    n1 = catalog.n1 + prior.a
    grid = np.geomspace(1e-3, 1e3, 601)
    mode = grid[np.argmax([log_f(a) for a in grid])]
    width = 12 * mode / math.sqrt(n1)
    lo, hi = max(mode - width, 0.0), mode + width
    ref = log_f(mode)
    val, _ = quad(lambda a: math.exp(log_f(a) - ref), lo, hi, points=[mode],
                  epsabs=0.0, epsrel=1e-12, limit=200)
    return ref + math.log(val)


@pytest.mark.parametrize("prior", [REFERENCE, PriorSpec(2, 1, 2, 1)])
@pytest.mark.parametrize("kind", ["aggregate", "regression"])
def test_marginal_target_integrates_alpha_out(kind, prior, silica_catalog):
    log_target = _marginal_log_target(model_kernel(kind, silica_catalog), prior)
    states = [(0.7, 0.0, 0.0), (1.6, 0.05, -0.08), (0.3, -0.1, 0.12)]
    gaps = []
    for beta, ga, gb in states:
        gammas = [ga, gb] if kind == "regression" else []
        lp, _ = log_target([math.log(beta), *gammas])
        # The walk is on log beta: its density carries the Jacobian beta.
        integral = _log_alpha_integral(kind, silica_catalog, prior, beta, gammas)
        gaps.append(lp - (integral + math.log(beta)))
    assert gaps[1] == pytest.approx(gaps[0], rel=1e-8)
    assert gaps[2] == pytest.approx(gaps[0], rel=1e-8)


def _regression_grid_moments(catalog, n_grid=25, half_width_se=6.0):
    """Posterior means and SDs of (alpha, beta, gamma_alpha, gamma_beta)
    under the reference prior, from a grid over (log beta, gamma_alpha,
    gamma_beta) with alpha integrated out in closed form:
    p(y) ~ Gamma(n1) S^-n1 exp(-U) beta^-n1 exp(-(gb - ga) sum delta dx) beta
    and E[alpha | y] = n1 / S, E[alpha^2 | y] = n1 (n1 + 1) / S^2."""
    mle = fit_regression(catalog)
    est, se = mle.estimates, mle.standard_errors
    center = (math.log(est["beta"]), est["gamma_alpha"], est["gamma_beta"])
    widths = (se["beta"] / est["beta"], se["gamma_alpha"], se["gamma_beta"])
    axes = [
        np.linspace(c - half_width_se * w, c + half_width_se * w, n_grid)
        for c, w in zip(center, widths)
    ]
    lb, ga, gb = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    t = np.array([r.duration for r in catalog.records])
    delta = np.array([0.0 if r.censored else 1.0 for r in catalog.records])
    dx = np.array([r.silica_pct for r in catalog.records]) - 60.0
    n1 = delta.sum()
    L = np.log1p(t / np.exp(lb[:, None] + gb[:, None] * dx))
    S = (np.exp(ga[:, None] * dx) * L).sum(axis=1)
    U = (delta * L).sum(axis=1)
    log_p = -n1 * np.log(S) - U - (gb - ga) * (delta @ dx) - n1 * lb
    w = np.exp(log_p - log_p.max())
    w /= w.sum()
    edge = np.zeros((n_grid,) * 3, dtype=bool)
    for axis in range(3):
        idx = [slice(None)] * 3
        for end in (0, -1):
            idx[axis] = end
            edge[tuple(idx)] = True
    # The grid holds the posterior: mass this small on the faces moves no
    # mean by more than 1e-4 * 6 SD.
    assert w[edge.ravel()].sum() < 1e-4
    first = [n1 / S, np.exp(lb), ga, gb]
    second = [n1 * (n1 + 1) / S**2, np.exp(2 * lb), ga**2, gb**2]
    means = np.array([w @ m for m in first])
    sds = np.sqrt(np.array([w @ m for m in second]) - means**2)
    return means, sds


def test_regression_chain_matches_grid_oracle(silica_catalog):
    means, sds = _regression_grid_moments(silica_catalog)
    chain = _regression_chain(silica_catalog)
    gap = np.abs(chain.draws.mean(axis=0) - means) / sds
    assert np.all(gap < 0.1), gap


@pytest.mark.parametrize("kind", ["aggregate", "regression"])
def test_alpha_draws_follow_gamma_conditional(kind, silica_catalog):
    # alpha_j (b + S_j) ~ Gamma(a + n1, 1) independently of the walk.
    prior = PriorSpec(2, 1, 2, 1)
    cfg = McmcConfig(seed=4, burn_in=1000, iterations=30_000, thin=10)
    chain = run_mh(kind, silica_catalog, prior, cfg)
    kernel = model_kernel(kind, silica_catalog)
    S = np.array([kernel.sums(*row[1:])[0] for row in chain.draws])
    scaled = chain.column("alpha") * (prior.b + S)
    shape = prior.a + silica_catalog.n1
    assert abs(scaled.mean() - shape) < 4 * math.sqrt(shape / len(scaled))
    assert stats.kstest(scaled, "gamma", args=(shape,)).pvalue > 1e-3


@pytest.mark.parametrize(
    "rows",
    [
        "",  # header only
        "0.6,0.7\nnan,0.7\n",
        "0.6,0.7\n0.6,inf\n",
        "0.6,0.7\n0.6,-0.7\n",
        "0.0,0.7\n",
        "0.6,0.7\n0.6,0.7,0.1\n",  # ragged
        "0.6,0.7,0.1\n0.6,0.7,0.1\n",  # more values than names
        "0.6,x\n",
    ],
)
def test_load_chain_refuses_malformed_draws(tmp_path, short_chain, rows):
    csv_path, meta_path = _saved_chain(tmp_path, short_chain)
    csv_path.write_text("alpha,beta\n" + rows)
    with pytest.raises(ValueError, match=r"chain\.csv"):
        load_chain(csv_path, meta_path)


def test_chain_sidecar_round_trip_keeps_bytes(tmp_path, short_chain):
    csv_path, meta_path = tmp_path / "chain.csv", tmp_path / "chain_meta.json"
    config = McmcConfig(seed=5, burn_in=3000, iterations=30_000, thin=30)
    chain = dataclasses.replace(short_chain, config=config, prior=PriorSpec(1, 2, 3, 4))
    save_chain(chain, csv_path, meta_path)
    loaded = load_chain(csv_path, meta_path)
    assert loaded.config == config
    assert loaded.prior == PriorSpec(1, 2, 3, 4)
    again = tmp_path / "again"
    again.mkdir()
    save_chain(loaded, again / "chain.csv", again / "chain_meta.json")
    assert (again / "chain_meta.json").read_bytes() == meta_path.read_bytes()
    assert (again / "chain.csv").read_bytes() == csv_path.read_bytes()


@pytest.mark.parametrize("fault", ["csv", "sidecar"])
def test_failed_save_chain_leaves_earlier_files(tmp_path, short_chain, fault):
    csv_path, meta_path = tmp_path / "chain.csv", tmp_path / "chain_meta.json"
    save_chain(short_chain, csv_path, meta_path)
    before = csv_path.read_bytes(), meta_path.read_bytes()
    umask = os.umask(0)
    os.umask(umask)
    for path in (csv_path, meta_path):  # as ``open`` makes them, not 0600
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    draws = np.full((2500, 2), 0.5, dtype=object)
    if fault == "csv":
        draws[1500, 1] = "x"  # the second block of rows cannot be formatted
        chain = _const_chain(draws)
    else:  # the CSV is complete; the sidecar's JSON fails part way
        chain = dataclasses.replace(_const_chain(draws), acceptance_rate=object())
    with pytest.raises(TypeError):
        save_chain(chain, csv_path, meta_path)
    assert (csv_path.read_bytes(), meta_path.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.csv", "chain_meta.json"]


WALK_PROPOSALS = {
    "aggregate": np.array([[0.3]]),
    "regression": np.array([[0.1, 0, 0], [0.02, 0.05, 0], [-0.03, 0.01, 0.05]]),
}


@pytest.mark.parametrize("prior", [REFERENCE, PriorSpec(2, 1, 2, 1)])
@pytest.mark.parametrize("rows,thin", [(1267, 1), (181, 7)])
@pytest.mark.parametrize("kind", ["aggregate", "regression"])
def test_walk_matches_reference_walk(kind, rows, thin, prior, silica_catalog):
    # 1 267 steps: two whole ADAPT_WINDOW blocks and a part block.
    assert (rows * thin) % bayes.ADAPT_WINDOW != 0
    y0 = bayes._start_point(kind, silica_catalog)
    kernel = model_kernel(kind, silica_catalog)
    accepts = assert_walks_match(
        kernel, prior, y0, WALK_PROPOSALS[kind], 11, rows, thin
    )
    assert 0.1 < accepts / (rows * thin) < 0.9  # downhill moves taken and refused


@pytest.mark.parametrize("kind", ["aggregate", "regression"])
def test_log_target_overflow_names_log_beta(kind, silica_catalog):
    log_target = _marginal_log_target(model_kernel(kind, silica_catalog), REFERENCE)
    y = [800.0] + [0.0] * (len(MODELS[kind].theta) - 1)
    with pytest.raises(McmcError, match=r"log beta = 800, gammas = \[(0.0, 0.0)?\]"):
        log_target(y)


def test_run_mh_on_the_exponential_ridge_raises():
    # The reference posterior of an exponential catalog is flat as beta
    # grows: the walk drifts off until exp(log beta) overflows.
    cat = generate(SimSpec(ExpParams(0.5), n=500, seed=1))
    config = McmcConfig(seed=1, burn_in=10_000, iterations=1000, thin=1)
    with pytest.raises(McmcError, match="likelihood overflows"):
        run_mh("aggregate", cat, REFERENCE, config)
