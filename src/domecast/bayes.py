"""Objective-Bayes inference via random-walk Metropolis-Hastings.

Reference priors are the improper scale-invariant 1/alpha and 1/beta
(Gamma hyperparameters a=b=c=d=0); the silica coefficients get flat
priors.  Proposals walk on (log alpha, log beta, gamma_alpha, gamma_beta)
with the log-transform Jacobian folded into the acceptance ratio.
Proposal scales adapt toward a 0.2-0.5 acceptance window during burn-in
only, then freeze, so the recorded chain targets the exact posterior.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .catalog import Catalog
from .likelihood import _Kernel, catalog_arrays

__all__ = [
    "PriorSpec",
    "McmcConfig",
    "PosteriorChain",
    "ProprietyResult",
    "ImproperPosteriorError",
    "McmcError",
    "propriety_check",
    "log_posterior",
    "run_mh",
    "chain_summary",
    "save_chain",
    "load_chain",
]

SCHEMA = "domecast/v1"
RNG_ALGORITHM = "numpy-pcg64"
ADAPT_WINDOW = 500
ADAPT_FACTOR = 1.5
ACCEPT_LO = 0.2
ACCEPT_HI = 0.5

AGGREGATE_PARAMS = ("alpha", "beta")
REGRESSION_PARAMS = ("alpha", "beta", "gamma_alpha", "gamma_beta")
PARAMS = {"aggregate": AGGREGATE_PARAMS, "regression": REGRESSION_PARAMS}


class ImproperPosteriorError(ValueError):
    """Posterior fails the propriety conditions for the given prior/data."""


class McmcError(RuntimeError):
    """Sampler diagnostic failure (e.g. no acceptances during burn-in)."""


@dataclass(frozen=True)
class PriorSpec:
    """Independent Gamma hyperpriors alpha ~ Ga(a, b), beta ~ Ga(c, d);
    a=b=c=d=0 recovers the reference prior 1/alpha * 1/beta."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("prior hyperparameters must be >= 0")

    def log_density(self, alpha: float, beta: float) -> float:
        # Up to a normalizing constant (which may not exist when improper).
        return (
            (self.a - 1.0) * math.log(alpha)
            - self.b * alpha
            + (self.c - 1.0) * math.log(beta)
            - self.d * beta
        )


@dataclass(frozen=True)
class ProprietyResult:
    proper: bool
    finite_moments: bool


def propriety_check(prior: PriorSpec, n1: int) -> ProprietyResult:
    """Posterior is proper iff (c > 0 or a + n1 > 1) and (d > 0 or n1 > c);
    means and variances are finite iff additionally d > 0 or n1 > c + 2."""
    near_zero_ok = prior.c > 0 or prior.a + n1 > 1
    tail_ok = prior.d > 0 or n1 > prior.c
    proper = near_zero_ok and tail_ok
    finite = proper and (prior.d > 0 or n1 > prior.c + 2)
    return ProprietyResult(proper=proper, finite_moments=finite)


@dataclass(frozen=True)
class McmcConfig:
    seed: int
    burn_in: int = 10_000
    iterations: int = 1_000_000
    thin: int = 1_000
    proposal_scales: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.iterations < 1 or self.thin < 1:
            raise ValueError("iterations and thin must be >= 1")
        if self.iterations % self.thin != 0:
            raise ValueError("iterations must be divisible by thin")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "burn_in": self.burn_in,
            "iterations": self.iterations,
            "thin": self.thin,
            "proposal_scales": None
            if self.proposal_scales is None
            else list(self.proposal_scales),
        }


@dataclass(frozen=True)
class PosteriorChain:
    draws: np.ndarray  # (n_draws, n_params), natural scale
    param_names: tuple[str, ...]
    acceptance_rate: float
    config: McmcConfig
    model_kind: str
    prior: PriorSpec = field(default_factory=PriorSpec)
    rng_algorithm: str = RNG_ALGORITHM

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, self.param_names.index(name)]


def _make_log_target(model_kind: str, catalog: Catalog, prior: PriorSpec):
    """Return (log_target_on_working_scale, param_names).

    Working coordinates are log alpha, log beta (plus the gammas on their
    natural scale for the regression model); the log-transform Jacobian
    exp(la) * exp(lb) is included here.
    """
    if model_kind == "aggregate":
        t, delta, _ = catalog_arrays(catalog)
        kernel = _Kernel(t, delta)
    elif model_kind == "regression":
        kernel = _Kernel(*catalog_arrays(catalog, require_silica=True))
    else:
        raise ValueError(f"unknown model_kind {model_kind!r}")

    def log_target(z):
        la, lb, *gammas = z
        alpha, beta = math.exp(la), math.exp(lb)
        return (
            -kernel.nllh(alpha, beta, *gammas)
            + prior.log_density(alpha, beta)
            + la
            + lb
        )

    return log_target, PARAMS[model_kind]


def log_posterior(
    model_kind: str, catalog: Catalog, prior: PriorSpec, theta: Sequence[float]
) -> float:
    """Unnormalized log posterior on the natural parameter scale:
    -NLLH(theta) + log prior (gammas flat)."""
    theta = np.asarray(theta, dtype=float)
    if theta[0] <= 0 or theta[1] <= 0:
        raise ValueError("alpha and beta must be > 0")
    log_target, names = _make_log_target(model_kind, catalog, prior)
    if len(theta) != len(names):
        raise ValueError(f"expected {len(names)} parameters for {model_kind}")
    z = theta.copy()
    z[0] = math.log(theta[0])
    z[1] = math.log(theta[1])
    # Remove the working-scale Jacobian to get the natural-scale density.
    return log_target(z) - z[0] - z[1]


def metropolis_accept(rng: np.random.Generator, log_ratio: float) -> bool:
    """Accept a symmetric-proposal move with probability min(1, e^log_ratio)."""
    return log_ratio >= 0 or math.log(rng.random()) < log_ratio


def _start_point(model_kind: str, catalog: Catalog) -> np.ndarray:
    from . import fit as _fit  # deferred: avoid cycle at import time

    try:
        if model_kind == "aggregate":
            r = _fit.fit_aggregate(catalog)
            return np.log([r.estimates["alpha"], r.estimates["beta"]])
        r = _fit.fit_regression(catalog)
        return np.array(
            [
                math.log(r.estimates["alpha"]),
                math.log(r.estimates["beta"]),
                r.estimates["gamma_alpha"],
                r.estimates["gamma_beta"],
            ]
        )
    except _fit.FitError:
        dim = 2 if model_kind == "aggregate" else 4
        return np.zeros(dim)


def run_mh(
    model_kind: str,
    catalog: Catalog,
    prior: PriorSpec,
    config: McmcConfig,
) -> PosteriorChain:
    """Random-walk Metropolis-Hastings sampler.

    Starts from the MLE, adapts proposal scales during burn-in, then
    records every ``thin``-th post-burn-in state.  Fully deterministic
    given the seed.
    """
    check = propriety_check(prior, catalog.n1)
    if not check.proper:
        raise ImproperPosteriorError(
            f"posterior improper for prior {prior} with n1={catalog.n1}; "
            "need (c > 0 or a + n1 > 1) and (d > 0 or n1 > c)"
        )
    log_target, names = _make_log_target(model_kind, catalog, prior)
    dim = len(names)
    rng = np.random.default_rng(config.seed)

    z = _start_point(model_kind, catalog)
    lp = log_target(z)
    scales = np.array(
        config.proposal_scales
        if config.proposal_scales is not None
        else [0.1] * dim,
        dtype=float,
    )
    if len(scales) != dim or np.any(scales <= 0):
        raise ValueError(f"need {dim} positive proposal scales")

    def step(z, lp):
        prop = z + scales * rng.standard_normal(dim)
        lp_prop = log_target(prop)
        if metropolis_accept(rng, lp_prop - lp):
            return prop, lp_prop, True
        return z, lp, False

    burn_accepts = 0
    window_accepts = 0
    for i in range(config.burn_in):
        z, lp, accepted = step(z, lp)
        burn_accepts += accepted
        window_accepts += accepted
        if (i + 1) % ADAPT_WINDOW == 0:
            rate = window_accepts / ADAPT_WINDOW
            if rate < ACCEPT_LO:
                scales /= ADAPT_FACTOR
            elif rate > ACCEPT_HI:
                scales *= ADAPT_FACTOR
            window_accepts = 0
    if config.burn_in >= ADAPT_WINDOW and burn_accepts == 0:
        raise McmcError("no proposals accepted during burn-in; check scales/start")

    n_draws = config.iterations // config.thin
    draws = np.empty((n_draws, dim))
    accepts = 0
    j = 0
    for i in range(1, config.iterations + 1):
        z, lp, accepted = step(z, lp)
        accepts += accepted
        if i % config.thin == 0:
            draws[j] = z
            j += 1

    draws[:, 0] = np.exp(draws[:, 0])
    draws[:, 1] = np.exp(draws[:, 1])
    return PosteriorChain(
        draws=draws,
        param_names=names,
        acceptance_rate=accepts / config.iterations,
        config=config,
        model_kind=model_kind,
        prior=prior,
    )


def chain_summary(chain: PosteriorChain) -> dict:
    """Per-parameter mean, SD and (2.5, 25, 50, 75, 97.5)% quantiles."""
    if chain.n_draws < 100:
        raise ValueError(f"chain too short for summaries: {chain.n_draws} draws")
    out = {}
    for i, name in enumerate(chain.param_names):
        col = chain.draws[:, i]
        qs = np.quantile(col, [0.025, 0.25, 0.50, 0.75, 0.975])
        out[name] = {
            "mean": float(col.mean()),
            "sd": float(col.std(ddof=1)),
            "q2.5": float(qs[0]),
            "q25": float(qs[1]),
            "q50": float(qs[2]),
            "q75": float(qs[3]),
            "q97.5": float(qs[4]),
        }
    return out


def lag1_autocorrelation(values: np.ndarray) -> float:
    v = np.asarray(values, dtype=float)
    v = v - v.mean()
    denom = float(np.dot(v, v))
    if denom == 0:
        return 0.0
    return float(np.dot(v[:-1], v[1:]) / denom)


def save_chain(chain: PosteriorChain, csv_path, meta_path) -> None:
    """Write draws as CSV (header = parameter names) plus a provenance
    JSON sidecar (seed, burn-in, thin, acceptance rate, prior, RNG)."""
    header = ",".join(chain.param_names)
    np.savetxt(csv_path, chain.draws, delimiter=",", header=header, comments="")
    meta = {
        "schema": SCHEMA,
        "model_kind": chain.model_kind,
        "acceptance_rate": chain.acceptance_rate,
        "rng_algorithm": chain.rng_algorithm,
        "prior": {"a": chain.prior.a, "b": chain.prior.b,
                  "c": chain.prior.c, "d": chain.prior.d},
        "config": chain.config.to_dict(),
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_chain(csv_path, meta_path) -> PosteriorChain:
    """Read a chain written by ``save_chain``.  Raises ValueError naming
    the file when the sidecar's schema is not domecast/v1 or the CSV
    header is not the parameter list of the sidecar's model_kind."""
    with open(meta_path) as fh:
        meta = json.load(fh)
    if meta.get("schema") != SCHEMA:
        raise ValueError(
            f"{meta_path}: schema {meta.get('schema')!r}, expected {SCHEMA!r}"
        )
    kind = meta.get("model_kind")
    if kind not in PARAMS:
        raise ValueError(f"{meta_path}: unknown model_kind {kind!r}")
    with open(csv_path) as fh:
        names = tuple(fh.readline().strip().split(","))
    if names != PARAMS[kind]:
        raise ValueError(
            f"{csv_path}: header {','.join(names)!r} does not match the "
            f"{kind} model's parameters {','.join(PARAMS[kind])!r}"
        )
    draws = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    cfg = meta["config"]
    return PosteriorChain(
        draws=draws,
        param_names=names,
        acceptance_rate=meta["acceptance_rate"],
        config=McmcConfig(
            seed=cfg["seed"],
            burn_in=cfg["burn_in"],
            iterations=cfg["iterations"],
            thin=cfg["thin"],
            proposal_scales=None
            if cfg.get("proposal_scales") is None
            else tuple(cfg["proposal_scales"]),
        ),
        model_kind=kind,
        prior=PriorSpec(**meta["prior"]),
        rng_algorithm=meta.get("rng_algorithm", RNG_ALGORITHM),
    )
