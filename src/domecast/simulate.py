"""Synthetic catalog generation and estimator-recovery studies.

Fixed-horizon censoring samples each event's start uniformly over the
observation window, so longer true durations are censored more often --
the same selection effect that biases completed-only estimates downward.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass
from typing import Optional, Union

import numpy as np

from . import fit
from .catalog import Catalog, CompositionClass
from .likelihood import MODELS, RegressionParams, _at_silica, _OneSilicaError
from .pareto import ExpParams, GPaParams, _sample

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
        if not any(isinstance(self.model, m.cls) for m in MODELS.values()):
            raise TypeError(f"unsupported generating model {type(self.model)}")


def _sample_true_durations(spec: SimSpec, rng: np.random.Generator):
    u = rng.random(spec.n)
    silica = np.full(spec.n, np.nan)
    classes = [CompositionClass.INTERMEDIATE] * spec.n
    model = spec.model
    if isinstance(model, ExpParams):
        return -np.log(u) / model.lam, silica, classes
    if isinstance(model, RegressionParams):
        idx = rng.choice(len(SILICA_POINTS), size=spec.n, p=SILICA_WEIGHTS)
        silica = np.array(SILICA_POINTS)[idx]
        classes = np.array(SILICA_CLASSES, dtype=object)[idx]
        a, b = _at_silica(*astuple(model), silica)
    else:
        a, b = model.alpha, model.beta
    return _sample(a, b, u), silica, classes


def generate(spec: SimSpec, rng: Optional[np.random.Generator] = None) -> Catalog:
    """Draw a synthetic catalog; deterministic given spec.seed.  A catalog
    with a duration beyond the float range is refused (CatalogError)."""
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

    return Catalog(
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
    bias: dict  # parameter -> value; None where no replication gave one
    rmse: dict
    coverage95: dict
    replications: int
    failures: int

    def to_dict(self) -> dict:
        doc = asdict(self)  # the fields in order, parameter_names renamed
        return {"parameters": list(doc.pop("parameter_names")), **doc}


def recovery_study(spec: SimSpec, replications: int) -> RecoveryReport:
    """Generate-and-refit study: per-parameter bias, RMSE and coverage of
    nominal 95% Wald intervals across seeded replications.  A replication
    whose fit fails, or whose records a silica model refuses for sharing
    one silica value, counts as a failure."""
    if replications < 10:
        raise ValueError("need at least 10 replications")
    kind = next(k for k, m in MODELS.items() if isinstance(spec.model, m.cls))
    names = MODELS[kind].params
    truth = dict(zip(names, astuple(spec.model)))
    estimates = {k: [] for k in names}
    covered = {k: 0 for k in names}
    se_counts = {k: 0 for k in names}
    failures = 0

    for rep in range(replications):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, rep)))
        cat = generate(spec, rng)
        try:
            # Looked up per call, so a traced fit_* is the one called.
            result = getattr(fit, f"fit_{kind}")(cat)
        except (fit.FitError, _OneSilicaError):
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
            bias[k] = rmse[k] = coverage[k] = None
            continue
        err = arr - truth[k]
        bias[k] = float(err.mean())
        rmse[k] = float(np.sqrt(np.mean(err**2)))
        coverage[k] = covered[k] / se_counts[k] if se_counts[k] else None
    return RecoveryReport(
        parameter_names=names,
        truth=truth,
        bias=bias,
        rmse=rmse,
        coverage95=coverage,
        replications=replications,
        failures=failures,
    )
