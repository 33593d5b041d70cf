"""Objective-Bayes inference by a collapsed Metropolis-within-Gibbs sampler.

Reference priors are the improper scale-invariant 1/alpha and 1/beta
(Gamma hyperparameters a=b=c=d=0); the silica coefficients get flat
priors.  Under any Gamma prior, alpha given the rest is exactly
Gamma(a + n1, b + S), with S the kernel's weighted sum, so alpha is
integrated out of the target (Liu 1994, JASA 89:958) and a random walk
moves only y = (log beta[, gamma_alpha, gamma_beta]), the log-beta
Jacobian folded into the target.  During burn-in a scalar step factor
adapts toward a 0.2-0.5 acceptance window; for the three regression
coordinates the proposal's Cholesky factor is also set from the
covariance of the later half of the burn-in so far, scaled by
2.38/sqrt(3) (Haario, Saksman & Tamminen 2001, Bernoulli 7(2)).  The
proposal then freezes, so the recorded chain is exact Metropolis on the
marginal of y, and each recorded state gets an exact alpha draw.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import fit
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
# The random walk's coordinates; alpha is drawn from its exact conditional.
WALKED = {
    "aggregate": ("log_beta",),
    "regression": ("log_beta", "gamma_alpha", "gamma_beta"),
}
SAVE_BLOCK_ROWS = 1000
HAARIO_SCALE = 2.38  # adapted proposal = HAARIO_SCALE / sqrt(k) * chol(cov)


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


@dataclass(frozen=True)
class PosteriorChain:
    draws: np.ndarray  # (n_draws, n_params), natural scale
    param_names: tuple[str, ...]
    acceptance_rate: float
    config: McmcConfig
    model_kind: str
    prior: PriorSpec = field(default_factory=PriorSpec)
    rng_algorithm: str = RNG_ALGORITHM
    # Frozen proposal: lower Cholesky factor over WALKED[model_kind].
    proposal_cholesky: Optional[np.ndarray] = None

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, self.param_names.index(name)]


def _kernel(model_kind: str, catalog: Catalog) -> _Kernel:
    if model_kind == "aggregate":
        t, delta, _ = catalog_arrays(catalog)
        return _Kernel(t, delta)
    if model_kind == "regression":
        return _Kernel(*catalog_arrays(catalog, require_silica=True))
    raise ValueError(f"unknown model_kind {model_kind!r}")


def log_posterior(
    model_kind: str, catalog: Catalog, prior: PriorSpec, theta: Sequence[float]
) -> float:
    """Unnormalized log posterior on the natural parameter scale:
    -NLLH(theta) + log prior (gammas flat)."""
    theta = np.asarray(theta, dtype=float)
    if theta[0] <= 0 or theta[1] <= 0:
        raise ValueError("alpha and beta must be > 0")
    kernel = _kernel(model_kind, catalog)
    if len(theta) != len(PARAMS[model_kind]):
        raise ValueError(
            f"expected {len(PARAMS[model_kind])} parameters for {model_kind}"
        )
    alpha, beta, *gammas = theta
    return -kernel.nllh(alpha, beta, *gammas) + prior.log_density(alpha, beta)


def _marginal_log_target(kernel: _Kernel, prior: PriorSpec):
    """Log density of the walked coordinates y = (log beta[, gamma_alpha,
    gamma_beta]) with alpha integrated out, up to a constant:

        -(a+n1) log(b+S) - U - (gamma_beta - gamma_alpha) sum_i delta_i dx_i
        + (c - n1) log beta - d beta

    (the log-beta Jacobian included).  Returns (log density, S), since
    alpha | y ~ Gamma(a + n1, b + S).
    """
    shape = prior.a + kernel.n1
    log_beta_coef = prior.c - kernel.n1

    def log_target(y):
        log_beta, *gammas = y
        try:
            beta = math.exp(log_beta)
            S, U = kernel.sums(beta, *gammas)
            log_rate = math.log(prior.b + S)
        except (OverflowError, ValueError):
            raise McmcError(
                f"walk reached log beta = {log_beta:.4g}, gammas = {gammas}, where "
                "the likelihood overflows; the posterior may be improper"
            ) from None
        tilt = (gammas[1] - gammas[0]) * kernel.delta_dx if gammas else 0.0
        lp = -shape * log_rate - U - tilt + log_beta_coef * log_beta - prior.d * beta
        return lp, S

    return log_target


def metropolis_accept(rng: np.random.Generator, log_ratio: float) -> bool:
    """Accept a symmetric-proposal move with probability min(1, e^log_ratio)."""
    return log_ratio >= 0 or math.log(rng.random()) < log_ratio


def _start_point(model_kind: str, catalog: Catalog) -> list[float]:
    """The MLE of the walked coordinates, or zeros when the fit fails."""
    try:
        if model_kind == "aggregate":
            r = fit.fit_aggregate(catalog)
            return [math.log(r.estimates["beta"])]
        r = fit.fit_regression(catalog)
        return [
            math.log(r.estimates["beta"]),
            r.estimates["gamma_alpha"],
            r.estimates["gamma_beta"],
        ]
    except fit.FitError:
        return [0.0] * len(WALKED[model_kind])


def _walk(rng, log_target, state, chol, out, thin=1):
    """Random-walk Metropolis for ``thin * len(out)`` steps from
    ``state = (y, log density, S)`` with increments N(0, chol chol^T).

    Every ``thin``-th state is written to a row of ``out`` as (S, *y).
    Returns the final state and the number of accepted moves.
    """
    y, lp, S = state
    steps = thin * len(out)
    accepts = 0
    for start in range(0, steps, ADAPT_WINDOW):
        m = min(ADAPT_WINDOW, steps - start)
        increments = (rng.standard_normal((m, len(y))) @ chol.T).tolist()
        for i, inc in enumerate(increments, start + 1):
            prop = [a + b for a, b in zip(y, inc)]
            lp_prop, S_prop = log_target(prop)
            if metropolis_accept(rng, lp_prop - lp):
                y, lp, S = prop, lp_prop, S_prop
                accepts += 1
            if i % thin == 0:
                out[i // thin - 1] = (S, *y)
    return (y, lp, S), accepts


def run_mh(
    model_kind: str,
    catalog: Catalog,
    prior: PriorSpec,
    config: McmcConfig,
) -> PosteriorChain:
    """Collapsed Metropolis-within-Gibbs sampler.

    Random-walks y = (log beta[, gamma_alpha, gamma_beta]) on the
    posterior with alpha integrated out, starting from the MLE.  During
    burn-in the proposal adapts per ``ADAPT_WINDOW`` steps; it is then
    frozen and every ``thin``-th post-burn-in state is recorded.  Each
    recorded state gets an exact draw alpha ~ Gamma(a + n1, b + S).
    Fully deterministic given the seed.
    """
    check = propriety_check(prior, catalog.n1)
    if not check.proper:
        raise ImproperPosteriorError(
            f"posterior improper for prior {prior} with n1={catalog.n1}; "
            "need (c > 0 or a + n1 > 1) and (d > 0 or n1 > c)"
        )
    kernel = _kernel(model_kind, catalog)
    shape = prior.a + kernel.n1
    if shape <= 0:
        raise ImproperPosteriorError(
            f"alpha | rest ~ Gamma(a + n1, b + S) needs a + n1 > 0; "
            f"got a={prior.a}, n1={catalog.n1}"
        )
    coords = WALKED[model_kind]
    k = len(coords)
    scales = (0.1,) * k if config.proposal_scales is None else config.proposal_scales
    if len(scales) != k or min(scales) <= 0:
        raise ValueError(
            f"need {k} positive proposal scales, one per walked coordinate "
            f"({', '.join(coords)})"
        )
    log_target = _marginal_log_target(kernel, prior)
    rng = np.random.default_rng(config.seed)

    y = _start_point(model_kind, catalog)
    state = (y, *log_target(y))
    chol = np.diag(np.asarray(scales, dtype=float))
    factor = 1.0

    burn = np.empty((config.burn_in, 1 + k))
    burn_accepts = 0
    for start in range(0, config.burn_in, ADAPT_WINDOW):
        done = min(start + ADAPT_WINDOW, config.burn_in)
        state, accepts = _walk(rng, log_target, state, factor * chol, burn[start:done])
        burn_accepts += accepts
        if done - start < ADAPT_WINDOW:
            break
        rate = accepts / ADAPT_WINDOW
        if rate < ACCEPT_LO:
            factor /= ADAPT_FACTOR
        elif rate > ACCEPT_HI:
            factor *= ADAPT_FACTOR
        if k > 1:
            try:
                cov = np.cov(burn[done // 2 : done, 1:], rowvar=False)
                chol = np.linalg.cholesky(cov) * (HAARIO_SCALE / math.sqrt(k))
            except np.linalg.LinAlgError:
                pass  # too few distinct states yet; keep the last factor
    if config.burn_in >= ADAPT_WINDOW and burn_accepts == 0:
        raise McmcError("no proposals accepted during burn-in; check scales/start")

    proposal = factor * chol
    draws = np.empty((config.iterations // config.thin, 1 + k))
    _, accepts = _walk(rng, log_target, state, proposal, draws, config.thin)
    draws[:, 1] = np.exp(draws[:, 1])
    draws[:, 0] = rng.standard_gamma(shape, len(draws)) / (prior.b + draws[:, 0])
    return PosteriorChain(
        draws=draws,
        param_names=PARAMS[model_kind],
        acceptance_rate=accepts / config.iterations,
        config=config,
        model_kind=model_kind,
        prior=prior,
        proposal_cholesky=proposal,
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
    """Write draws as CSV (header = parameter names, values as %.18e) plus
    a provenance JSON sidecar (seed, burn-in, thin, acceptance rate, prior,
    RNG and, when known, the frozen proposal's Cholesky factor)."""
    row_fmt = ",".join(["%.18e"] * len(chain.param_names)) + "\n"
    with open(csv_path, "w") as fh:
        fh.write(",".join(chain.param_names) + "\n")
        # The bytes np.savetxt writes, formatted a block of rows at a time.
        for start in range(0, chain.n_draws, SAVE_BLOCK_ROWS):
            block = chain.draws[start : start + SAVE_BLOCK_ROWS]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))
    meta = {
        "schema": SCHEMA,
        "model_kind": chain.model_kind,
        "acceptance_rate": chain.acceptance_rate,
        "rng_algorithm": chain.rng_algorithm,
        "prior": asdict(chain.prior),
        "config": asdict(chain.config),
    }
    if chain.proposal_cholesky is not None:
        meta["proposal"] = {
            "coordinates": list(WALKED[chain.model_kind]),
            "cholesky": chain.proposal_cholesky.tolist(),
        }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_chain(csv_path, meta_path) -> PosteriorChain:
    """Read a chain written by ``save_chain``.  Raises ValueError naming
    the file when the sidecar's schema is not domecast/v1, its proposal
    is not over the model's walked coordinates, the CSV header is not
    the parameter list of the sidecar's model_kind, or the CSV holds no
    draws, ragged rows, a non-finite value or an alpha or beta <= 0."""
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
    cholesky = None
    if "proposal" in meta:
        coords = list(WALKED[kind])
        cholesky = np.array(meta["proposal"].get("cholesky"), dtype=float)
        if meta["proposal"].get("coordinates") != coords or cholesky.shape != (
            len(coords),
        ) * 2:
            raise ValueError(
                f"{meta_path}: proposal is not a square factor over the {kind} "
                f"model's walked coordinates {coords}"
            )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # no rows is refused below
            draws = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{csv_path}: {exc}") from None
    if draws.shape[0] == 0 or draws.shape[1] != len(names):
        raise ValueError(
            f"{csv_path}: expected rows of {len(names)} values, got shape {draws.shape}"
        )
    if not (np.isfinite(draws).all() and (draws[:, :2] > 0).all()):
        raise ValueError(f"{csv_path}: draws must be finite, alpha and beta > 0")
    cfg = meta["config"]
    scales = cfg.get("proposal_scales")
    return PosteriorChain(
        draws=draws,
        param_names=names,
        acceptance_rate=meta["acceptance_rate"],
        config=McmcConfig(
            **{**cfg, "proposal_scales": None if scales is None else tuple(scales)}
        ),
        model_kind=kind,
        prior=PriorSpec(**meta["prior"]),
        rng_algorithm=meta.get("rng_algorithm", RNG_ALGORITHM),
        proposal_cholesky=cholesky,
    )
