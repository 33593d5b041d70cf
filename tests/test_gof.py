import math

import numpy as np
import pytest

from conftest import make_catalog
from domecast.gof import (
    DEFAULT_BINS,
    _chisq_statistic,
    _equiprobable_bins,
    chisq_tail,
    gof_test,
)
from domecast.pareto import ExpParams, GPaParams, exp_quantile, quantile
from domecast.simulate import SimSpec, generate


def q_gpa(p):
    return lambda q: float(quantile(p, q))


def test_equiprobable_bins_examples():
    p = GPaParams(1, 1)
    np.testing.assert_allclose(_equiprobable_bins(q_gpa(p), 2), [1.0])
    np.testing.assert_allclose(
        _equiprobable_bins(q_gpa(p), 4), [1 / 3, 1.0, 3.0], rtol=1e-12
    )
    lam = ExpParams(1.0)
    np.testing.assert_allclose(
        _equiprobable_bins(lambda q: float(exp_quantile(lam, q)), 2),
        [math.log(2)],
        rtol=1e-12,
    )


def test_chisq_statistic_examples():
    def stat(observed, expected):
        return _chisq_statistic(np.array(observed), np.array(expected, dtype=float))

    assert stat([5, 5], [5, 5]) == 0.0
    assert stat([10, 0], [5, 5]) == pytest.approx(10.0)
    assert stat([8, 12, 10], [10, 10, 10]) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        stat([1, 2], [1.0, 0.0])
    # An empty catalog expects no record in any bin.
    with pytest.warns(UserWarning, match="expected count"):
        with pytest.raises(ValueError, match="strictly positive"):
            gof_test(make_catalog([]), q_gpa(GPaParams(1, 1)), k_fitted=2)


def test_chisq_tail_basics():
    assert chisq_tail(0.0, 5) == 1.0
    assert chisq_tail(5.0, 2.0) == chisq_tail(5.0, 2) == pytest.approx(math.exp(-2.5))
    assert chisq_tail(14.4, 10) == pytest.approx(0.1557, abs=2e-4)
    # exact tail at the rounded statistic, frozen from a 50-digit oracle
    assert chisq_tail(151.3, 11) == pytest.approx(8.0847210860464e-27, rel=1e-9)
    # strictly decreasing in x
    xs = np.linspace(0, 60, 50)
    vals = [chisq_tail(x, 7) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_chisq_tail_refuses_nan():
    with pytest.raises(ValueError, match="x must be >= 0, got nan"):
        chisq_tail(math.nan, 10)
    assert chisq_tail(math.inf, 10) == 0.0


@pytest.mark.parametrize("dof", [math.nan, 0, 0.5, 2.5, -3, math.inf])
def test_chisq_tail_refuses_a_dof_that_is_not_a_whole_number(dof):
    with pytest.raises(ValueError, match="dof must be a whole number >= 1"):
        chisq_tail(5.0, dof)



def test_chisq_tail_vs_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = np.random.default_rng(2)
    for _ in range(20):
        dof = int(rng.integers(1, 30))
        x = float(rng.uniform(0.01, 8 * dof))
        want = float(
            mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                            regularized=True)
        )
        assert chisq_tail(x, dof) == pytest.approx(want, rel=1e-9)


def test_gof_dof_rule():
    spec = SimSpec(GPaParams(0.8, 1.0), n=500, seed=1)
    cat = generate(spec)
    p = GPaParams(0.8, 1.0)
    rep2 = gof_test(cat, q_gpa(p), k_fitted=2, n_bins=13)
    rep1 = gof_test(cat, q_gpa(p), k_fitted=1, n_bins=13)
    assert rep2.dof == 10
    assert rep1.dof == 11
    assert DEFAULT_BINS == 13


def test_gof_counts_conserved():
    spec = SimSpec(GPaParams(0.8, 1.0), n=700, seed=3)
    cat = generate(spec)
    rep = gof_test(cat, q_gpa(GPaParams(0.8, 1.0)), k_fitted=2)
    assert sum(rep.observed) == 700
    assert sum(rep.expected) == pytest.approx(700, abs=1e-9)
    assert all(e == pytest.approx(700 / 13) for e in rep.expected)
    assert rep.p_value == pytest.approx(chisq_tail(rep.statistic, rep.dof))


def test_gof_rejects_censored():
    cat = make_catalog([(1.0, False), (2.0, True)])
    with pytest.raises(ValueError, match="censored"):
        gof_test(cat, q_gpa(GPaParams(1, 1)), k_fitted=2)


def test_gof_dof_floor():
    cat = make_catalog([(1.0, False)] * 10)
    with pytest.raises(ValueError, match="dof"):
        gof_test(cat, q_gpa(GPaParams(1, 1)), k_fitted=2, n_bins=3)


def test_gof_extreme_misfit():
    # all mass far into the top model bin
    cat = make_catalog([(1000.0 + i, False) for i in range(100)])
    rep = gof_test(cat, q_gpa(GPaParams(1, 1)), k_fitted=0, n_bins=10)
    assert rep.statistic > 500
    assert rep.p_value < 1e-12


def test_gof_permutation_invariance():
    spec = SimSpec(GPaParams(0.8, 1.0), n=300, seed=8)
    cat = generate(spec)
    shuffled = cat._take(slice(None, None, -1))
    p = GPaParams(0.8, 1.0)
    assert gof_test(cat, q_gpa(p), 2) == gof_test(shuffled, q_gpa(p), 2)


def test_gof_small_sample_warns():
    cat = make_catalog([(float(i + 1), False) for i in range(20)])
    with pytest.warns(UserWarning, match="expected count"):
        gof_test(cat, q_gpa(GPaParams(1, 1)), k_fitted=0, n_bins=10)


def test_gof_pvalue_calibration():
    # data drawn from the tested model: p-values should be uniform
    truth = GPaParams(0.65, 0.70)
    qfn = q_gpa(truth)
    small_p = 0
    reps = 200
    for rep in range(reps):
        cat = generate(SimSpec(truth, n=10_000, seed=10_000 + rep))
        rep_out = gof_test(cat, qfn, k_fitted=0, n_bins=13)
        small_p += rep_out.p_value < 0.05
    assert small_p / reps == pytest.approx(0.05, abs=0.03)
