"""Synthetic catalog generation and estimator-recovery studies.

Fixed-horizon censoring samples each event's start uniformly over the
observation window, so longer true durations are censored more often --
the same selection effect that biases completed-only estimates downward.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Optional, Union

import numpy as np

from . import fit
from .catalog import Catalog, CompositionClass
from .likelihood import RegressionParams, _at_silica
from .pareto import ExpParams, GPaParams

__all__ = ["SimSpec", "generate", "recovery_study", "RecoveryReport"]

# Three-point silica mixture for regression simulations; weights follow
# the observed class proportions 42/105/30 of 177.
SILICA_POINTS = (50.0, 58.0, 67.0)
SILICA_WEIGHTS = (42 / 177, 105 / 177, 30 / 177)
SILICA_CLASSES = (
    CompositionClass.MAFIC,
    CompositionClass.INTERMEDIATE,
    CompositionClass.EVOLVED,
)


@dataclass(frozen=True)
class SimSpec:
    model: Union[GPaParams, ExpParams, RegressionParams]
    n: int
    censoring: str = "none"  # none | fixed_horizon | random_fraction
    horizon: Optional[float] = None  # years, fixed_horizon only
    fraction: Optional[float] = None  # random_fraction only
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.censoring == "fixed_horizon":
            if self.horizon is None or self.horizon <= 0:
                raise ValueError("fixed_horizon needs horizon > 0")
        elif self.censoring == "random_fraction":
            if self.fraction is None or not (0 <= self.fraction < 1):
                raise ValueError("random_fraction needs 0 <= fraction < 1")
        elif self.censoring != "none":
            raise ValueError(f"unknown censoring rule {self.censoring!r}")


def _sample_true_durations(spec: SimSpec, rng: np.random.Generator):
    u = rng.random(spec.n)
    silica = np.full(spec.n, np.nan)
    classes = [CompositionClass.INTERMEDIATE] * spec.n
    model = spec.model
    if isinstance(model, ExpParams):
        return -np.log(u) / model.lam, silica, classes
    if isinstance(model, GPaParams):
        a, b = model.alpha, model.beta
    elif isinstance(model, RegressionParams):
        idx = rng.choice(len(SILICA_POINTS), size=spec.n, p=SILICA_WEIGHTS)
        silica = np.array(SILICA_POINTS)[idx]
        classes = np.array(SILICA_CLASSES, dtype=object)[idx]
        a, b = _at_silica(*astuple(model), silica)
    else:
        raise TypeError(f"unsupported generating model {type(model)}")
    return b * np.expm1(-np.log(u) / a), silica, classes


def generate(spec: SimSpec, rng: Optional[np.random.Generator] = None) -> Catalog:
    """Draw a synthetic catalog; deterministic given spec.seed."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    t_true, silica, classes = _sample_true_durations(spec, rng)

    if spec.censoring == "fixed_horizon":
        start = rng.random(spec.n) * spec.horizon
        window = spec.horizon - start
        censored = t_true > window
        duration = np.where(censored, window, t_true)
    elif spec.censoring == "random_fraction":
        censored = rng.random(spec.n) < spec.fraction
        # Censored records report a uniformly chosen in-progress lower bound.
        duration = np.where(censored, t_true * rng.random(spec.n), t_true)
        start = np.zeros(spec.n)
    else:
        censored = np.zeros(spec.n, dtype=bool)
        duration = t_true
        start = np.zeros(spec.n)

    return Catalog._from_columns(
        names=[f"SIM-{i:05d}" for i in range(spec.n)],
        start_year=start,
        duration=duration,
        censored=censored,
        comp_class=classes,
        silica=silica,
    )


@dataclass(frozen=True)
class RecoveryReport:
    parameter_names: tuple[str, ...]
    truth: dict
    bias: dict
    rmse: dict
    coverage95: dict
    replications: int
    failures: int

    def to_dict(self) -> dict:
        return {
            "parameters": list(self.parameter_names),
            "truth": dict(self.truth),
            "bias": dict(self.bias),
            "rmse": dict(self.rmse),
            "coverage95": dict(self.coverage95),
            "replications": self.replications,
            "failures": self.failures,
        }


def _truth_map(model) -> dict:
    if isinstance(model, GPaParams):
        return {"alpha": model.alpha, "beta": model.beta}
    if isinstance(model, ExpParams):
        return {"lambda": model.lam}
    return {
        "alpha": model.alpha,
        "beta": model.beta,
        "gamma_alpha": model.gamma_alpha,
        "gamma_beta": model.gamma_beta,
    }


def recovery_study(spec: SimSpec, replications: int) -> RecoveryReport:
    """Generate-and-refit study: per-parameter bias, RMSE and coverage of
    nominal 95% Wald intervals across seeded replications."""
    if replications < 10:
        raise ValueError("need at least 10 replications")
    truth = _truth_map(spec.model)
    names = tuple(truth)
    estimates = {k: [] for k in names}
    covered = {k: 0 for k in names}
    se_counts = {k: 0 for k in names}
    failures = 0

    for rep in range(replications):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, rep)))
        cat = generate(spec, rng)
        try:
            if isinstance(spec.model, GPaParams):
                result = fit.fit_aggregate(cat)
            elif isinstance(spec.model, ExpParams):
                result = fit.fit_exponential(cat)
            else:
                result = fit.fit_regression(cat)
        except fit.FitError:
            failures += 1
            continue
        for k in names:
            est = result.estimates[k]
            estimates[k].append(est)
            if result.standard_errors is not None:
                se = result.standard_errors[k]
                se_counts[k] += 1
                if abs(est - truth[k]) <= 1.959963984540054 * se:
                    covered[k] += 1

    bias = {}
    rmse = {}
    coverage = {}
    for k in names:
        arr = np.asarray(estimates[k])
        if arr.size == 0:
            bias[k] = rmse[k] = coverage[k] = math.nan
            continue
        err = arr - truth[k]
        bias[k] = float(err.mean())
        rmse[k] = float(np.sqrt(np.mean(err**2)))
        coverage[k] = covered[k] / se_counts[k] if se_counts[k] else math.nan
    return RecoveryReport(
        parameter_names=names,
        truth=truth,
        bias=bias,
        rmse=rmse,
        coverage95=coverage,
        replications=replications,
        failures=failures,
    )
