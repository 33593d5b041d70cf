"""Objective-Bayes inference by a collapsed Metropolis-within-Gibbs sampler.

Reference priors are the improper scale-invariant 1/alpha and 1/beta
(Gamma hyperparameters a=b=c=d=0); the silica coefficients get flat
priors.  Under any Gamma prior, alpha given the rest is exactly
Gamma(a + n1, b + S), with S the kernel's weighted sum, so alpha is
integrated out of the target (Liu 1994, JASA 89:958) and a random walk
moves only y = (log beta[, gamma_alpha, gamma_beta]), the log-beta
Jacobian folded into the target.  Burn-in starts from the proposal
diag(``INITIAL_SCALE``) over y, and a scalar step factor adapts toward a
0.2-0.5 acceptance window; for the three regression coordinates the
proposal's Cholesky factor is also set from the covariance of the later
half of the burn-in so far, scaled by 2.38/sqrt(3) (Haario, Saksman &
Tamminen 2001, Bernoulli 7(2)).  The proposal then freezes, so the
recorded chain is exact Metropolis on the marginal of y, and each
recorded state gets an exact alpha draw.

Chains come from numpy's PCG64 generator, which ``save_chain`` records as
``RNG_ALGORITHM`` in the sidecar.  The walk draws each block of
``ADAPT_WINDOW`` increments with one call and one ``rng.random()`` per
downhill proposal, in step order, and writes the block's recorded rows
at its end.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import tempfile
import warnings
from dataclasses import asdict, dataclass, field
from operator import add
from typing import Optional, Sequence

import numpy as np

from . import fit
from .catalog import Catalog
from .likelihood import MODELS, _Kernel, model_kernel
from .likelihood import catalog_arrays  # noqa: F401  (traced by bench/tracing.py)

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
INITIAL_SCALE = 0.1  # burn-in's first proposal: diag(INITIAL_SCALE) over y

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
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise ValueError(
                    f"prior hyperparameter {name} must be finite, got {value}"
                )
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

    def __post_init__(self):
        for name in ("seed", "burn_in", "iterations", "thin"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.iterations < 1 or self.thin < 1:
            raise ValueError("iterations and thin must be >= 1")
        if self.iterations % self.thin != 0:
            raise ValueError("iterations must be divisible by thin")


@dataclass(frozen=True)
class PosteriorChain:
    draws: np.ndarray  # (n_draws, n_params), natural scale
    acceptance_rate: float
    config: McmcConfig
    model_kind: str
    prior: PriorSpec = field(default_factory=PriorSpec)
    # Frozen proposal: lower Cholesky factor over MODELS[model_kind].theta.
    proposal_cholesky: Optional[np.ndarray] = None

    @property
    def param_names(self) -> tuple[str, ...]:
        return MODELS[self.model_kind].params

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, self.param_names.index(name)]


def log_posterior(
    model_kind: str, catalog: Catalog, prior: PriorSpec, theta: Sequence[float]
) -> float:
    """Unnormalized log posterior on the natural parameter scale:
    -NLLH(theta) + log prior (gammas flat)."""
    kernel = model_kernel(model_kind, catalog)
    theta = np.asarray(theta, dtype=float)
    k = len(MODELS[model_kind].params)
    if len(theta) != k:
        raise ValueError(f"expected {k} parameters for {model_kind}, got {len(theta)}")
    if theta[0] <= 0 or theta[1] <= 0:
        raise ValueError("alpha and beta must be > 0")
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
    b, d, delta_dx, sums = prior.b, prior.d, kernel.delta_dx, kernel.sums
    exp, log = math.exp, math.log

    def log_target(y):
        log_beta = y[0]
        try:
            beta = exp(log_beta)
            if len(y) == 1:
                S, U = sums(beta)
                tilt = 0.0
            else:
                S, U = sums(beta, y[1], y[2])
                tilt = (y[2] - y[1]) * delta_dx
            log_rate = log(b + S)
        except (OverflowError, ValueError):
            raise McmcError(
                f"walk reached log beta = {log_beta:.4g}, gammas = {list(y[1:])}, "
                "where the likelihood overflows; the posterior may be improper"
            ) from None
        lp = -shape * log_rate - U - tilt + log_beta_coef * log_beta - d * beta
        return lp, S

    return log_target


def metropolis_accept(rng: np.random.Generator, log_ratio: float) -> bool:
    """Accept a symmetric-proposal move with probability min(1, e^log_ratio)."""
    return log_ratio >= 0 or math.log(rng.random()) < log_ratio


def _start_point(model_kind: str, catalog: Catalog) -> list[float]:
    """The MLE of the walked coordinates, or zeros when the fit fails."""
    gammas = MODELS[model_kind].theta[1:]  # theta = (log beta, *gammas)
    try:
        estimates = getattr(fit, f"fit_{model_kind}")(catalog).estimates
    except fit.FitError:
        return [0.0] * (1 + len(gammas))
    return [math.log(estimates["beta"]), *(estimates[name] for name in gammas)]


def _walk(rng, log_target, state, chol, out, thin=1):
    """Random-walk Metropolis for ``thin * len(out)`` steps from
    ``state = (y, log density, S)`` with increments N(0, chol chol^T).

    Every ``thin``-th state is written to a row of ``out`` as (S, *y).
    Returns the final state and the number of accepted moves.  Works in
    blocks of ``ADAPT_WINDOW`` steps (see the module docstring).
    """
    y, lp, S = state
    steps = thin * len(out)
    accepts = written = 0
    for start in range(0, steps, ADAPT_WINDOW):
        m = min(ADAPT_WINDOW, steps - start)
        increments = (rng.standard_normal((m, len(y))) @ chol.T).tolist()
        rows = []
        for i, inc in enumerate(increments, start + 1):
            prop = list(map(add, y, inc))
            lp_prop, S_prop = log_target(prop)
            if metropolis_accept(rng, lp_prop - lp):
                y, lp, S = prop, lp_prop, S_prop
                accepts += 1
            if i % thin == 0:
                rows.append((S, *y))
        if rows:
            out[written : written + len(rows)] = rows
            written += len(rows)
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
    kernel = model_kernel(model_kind, catalog)
    shape = prior.a + kernel.n1
    if shape <= 0:
        raise ImproperPosteriorError(
            f"alpha | rest ~ Gamma(a + n1, b + S) needs a + n1 > 0; "
            f"got a={prior.a}, n1={catalog.n1}"
        )
    k = len(MODELS[model_kind].theta)
    log_target = _marginal_log_target(kernel, prior)
    rng = np.random.default_rng(config.seed)

    y = _start_point(model_kind, catalog)
    state = (y, *log_target(y))
    chol = np.diag(np.full(k, INITIAL_SCALE))
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


@contextlib.contextmanager
def _atomic_open(path):
    """A text file to write whose contents replace ``path`` only when the
    block exits without an exception (temp file + rename).  The file gets
    the mode ``open`` would give it; a temp file's own is 0600."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-domecast-"
    )
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.chmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_chain(chain: PosteriorChain, csv_path, meta_path) -> None:
    """Write draws as CSV (header = parameter names, values as %.18e) plus
    a provenance JSON sidecar (seed, burn-in, thin, acceptance rate, prior,
    RNG and, when known, the frozen proposal's Cholesky factor).  Both go
    to temp files and are renamed into place, the sidecar last, once both
    are written: a failure leaves the files at both paths as they were."""
    row_fmt = ",".join(["%.18e"] * len(chain.param_names)) + "\n"
    meta = {
        "schema": SCHEMA,
        "model_kind": chain.model_kind,
        "acceptance_rate": chain.acceptance_rate,
        "rng_algorithm": RNG_ALGORITHM,
        "prior": asdict(chain.prior),
        "config": asdict(chain.config),
    }
    if chain.proposal_cholesky is not None:
        meta["proposal"] = {
            "coordinates": list(MODELS[chain.model_kind].theta),
            "cholesky": chain.proposal_cholesky.tolist(),
        }
    # The CSV's block exits first, so it is renamed first.
    with _atomic_open(meta_path) as meta_fh, _atomic_open(csv_path) as fh:
        fh.write(",".join(chain.param_names) + "\n")
        # The bytes np.savetxt writes, formatted a block of rows at a time.
        for start in range(0, chain.n_draws, SAVE_BLOCK_ROWS):
            block = chain.draws[start : start + SAVE_BLOCK_ROWS]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))
        json.dump(meta, meta_fh, indent=2)
        meta_fh.write("\n")


def load_chain(csv_path, meta_path) -> PosteriorChain:
    """Read a chain written by ``save_chain``.  Raises ValueError naming
    the file when the sidecar is not a JSON object, its schema is not
    domecast/v1, its model_kind has no kernel, its proposal is not over
    the model's walked coordinates, its config, prior or acceptance_rate
    is missing or malformed (naming the key), the CSV header is not the
    parameter list of the model, or the CSV holds no draws, ragged rows,
    a non-finite value, an alpha or beta <= 0, or a number of draws other
    than the sidecar's iterations // thin."""
    with open(meta_path) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{meta_path}: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: not a JSON object")
    if meta.get("schema") != SCHEMA:
        raise ValueError(
            f"{meta_path}: schema {meta.get('schema')!r}, expected {SCHEMA!r}"
        )
    kind = meta.get("model_kind")
    model = MODELS.get(kind) if isinstance(kind, str) else None
    if model is None or not model.theta:
        raise ValueError(f"{meta_path}: unknown model_kind {kind!r}")
    with open(csv_path) as fh:
        names = tuple(fh.readline().strip().split(","))
    if names != model.params:
        raise ValueError(
            f"{csv_path}: header {','.join(names)!r} does not match the "
            f"{kind} model's parameters {','.join(model.params)!r}"
        )
    cholesky = None
    if "proposal" in meta:
        coords = list(model.theta)
        try:
            cholesky = np.array(meta["proposal"]["cholesky"], dtype=float)
            ok = meta["proposal"]["coordinates"] == coords
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok or cholesky.shape != (len(coords),) * 2:
            raise ValueError(
                f"{meta_path}: proposal is not a square factor over the {kind} "
                f"model's walked coordinates {coords}"
            )
    try:  # ``key`` names the entry at fault
        key = "config"
        # Sidecars from before burn-in's first proposal was INITIAL_SCALE
        # carry a ``proposal_scales`` entry, dropped so that they still load.
        config = McmcConfig(
            **{k: v for k, v in meta[key].items() if k != "proposal_scales"}
        )
        key = "prior"
        prior = PriorSpec(**meta[key])
        key = "acceptance_rate"
        acceptance_rate = float(meta[key])
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{meta_path}: {key!r} missing or malformed: {exc}") from None
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
    if draws.shape[0] != config.iterations // config.thin:
        raise ValueError(
            f"{csv_path}: {draws.shape[0]} draws, but {meta_path} gives "
            f"{config.iterations // config.thin} (iterations // thin)"
        )
    return PosteriorChain(
        draws=draws,
        acceptance_rate=acceptance_rate,
        config=config,
        model_kind=kind,
        prior=prior,
        proposal_cholesky=cholesky,
    )
