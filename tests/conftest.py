import math

import numpy as np
import pytest

from domecast.bayes import ADAPT_WINDOW, _marginal_log_target, _walk
from domecast.catalog import Catalog, CompositionClass


def make_catalog(rows, **columns):
    """The one test builder of catalogs, on the column constructor: rows
    of (duration, censored) or (duration, censored, silica), named V0,
    V1, ..., started in 2000 and intermediate, unless ``columns`` gives
    one of those columns whole."""
    rows = list(rows)
    return Catalog(
        **{
            "names": [f"V{i}" for i in range(len(rows))],
            "start_year": [2000.0] * len(rows),
            "duration": [row[0] for row in rows],
            "censored": [row[1] for row in rows],
            "comp_class": [CompositionClass.INTERMEDIATE] * len(rows),
            "silica": [row[2] if len(row) > 2 else None for row in rows],
            **columns,
        }
    )


@pytest.fixture
def small_catalog():
    return make_catalog([(1.0, False), (2.5, False), (0.8, True), (4.0, False)])


@pytest.fixture
def silica_catalog():
    rng = np.random.default_rng(123)
    classes = {
        50.0: CompositionClass.MAFIC,
        58.0: CompositionClass.INTERMEDIATE,
        67.0: CompositionClass.EVOLVED,
    }
    rows = []
    for _ in range(60):
        x = float(rng.choice([50.0, 58.0, 67.0]))
        t = float(0.7 * np.expm1(-np.log(rng.random()) / 0.65))
        rows.append((t, bool(rng.random() < 0.1), x))
    return make_catalog(rows, comp_class=[classes[row[2]] for row in rows])


def reference_log_target(kernel, prior):
    """The collapsed log target from fresh arrays, S = L.sum() or w @ L
    and U = delta @ L: the reference for ``_Kernel.sums``' buffers."""
    t, delta, dx = kernel.t, kernel.delta, kernel.dx
    shape = prior.a + kernel.n1
    log_beta_coef = prior.c - kernel.n1

    def log_target(y):
        log_beta, *gammas = y
        beta = math.exp(log_beta)
        if dx is None:
            L = np.log1p(t / beta)
            S = float(L.sum())
        else:
            L = np.log1p(t / (beta * np.exp(gammas[1] * dx)))
            S = float(np.exp(gammas[0] * dx) @ L)
        U = float(delta @ L)
        tilt = (gammas[1] - gammas[0]) * kernel.delta_dx if gammas else 0.0
        log_rate = math.log(prior.b + S)
        lp = -shape * log_rate - U - tilt + log_beta_coef * log_beta - prior.d * beta
        return lp, S

    return log_target


def reference_walk(rng, log_target, state, chol, out, thin=1):
    """Random-walk Metropolis with one row written per recorded step:
    the reference for ``bayes._walk``'s block-wise writes."""
    y, lp, S = state
    steps = thin * len(out)
    accepts = 0
    for start in range(0, steps, ADAPT_WINDOW):
        m = min(ADAPT_WINDOW, steps - start)
        increments = (rng.standard_normal((m, len(y))) @ chol.T).tolist()
        for i, inc in enumerate(increments, start + 1):
            prop = [a + b for a, b in zip(y, inc)]
            lp_prop, S_prop = log_target(prop)
            log_ratio = lp_prop - lp
            if log_ratio >= 0 or math.log(rng.random()) < log_ratio:
                y, lp, S = prop, lp_prop, S_prop
                accepts += 1
            if i % thin == 0:
                out[i // thin - 1] = (S, *y)
    return (y, lp, S), accepts


def assert_walks_match(kernel, prior, y0, chol, seed, rows, thin):
    """``bayes._walk`` and ``reference_walk`` from one start and seed: the
    walked coordinates, acceptances and generator states are equal, and S
    agrees within 1e-14 relative.  Returns the number of accepted moves."""
    runs = []
    for walk, log_target in (
        (_walk, _marginal_log_target(kernel, prior)),
        (reference_walk, reference_log_target(kernel, prior)),
    ):
        rng = np.random.default_rng(seed)
        out = np.empty((rows, 1 + len(y0)))
        (y, _, _), accepts = walk(
            rng, log_target, (list(y0), *log_target(list(y0))), chol, out, thin
        )
        runs.append((out, y, accepts, rng.bit_generator.state))
    (out, y, accepts, state), (ref_out, ref_y, ref_accepts, ref_state) = runs
    assert np.array_equal(out[:, 1:], ref_out[:, 1:])
    np.testing.assert_allclose(out[:, 0], ref_out[:, 0], rtol=1e-14, atol=0)
    assert y == ref_y and accepts == ref_accepts
    assert state == ref_state
    return accepts
