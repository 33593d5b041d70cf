"""Heavy-tailed survival models and forecasts for event-duration catalogs."""

from .catalog import (
    Catalog,
    CatalogError,
    CompositionClass,
    EruptionRecord,
    load_fixture_long_durations,
    parse_catalog,
    serialize_catalog,
    summarize,
)
from .pareto import (
    ExpParams,
    GPaParams,
    condition_on_age,
    density,
    exp_quantile,
    exp_survival,
    quantile,
    sample,
    survival,
)
from .likelihood import (
    RegressionParams,
    nllh_aggregate,
    nllh_exponential,
    nllh_regression,
    profile_alpha,
    profile_alpha_regression,
)
from .fit import (
    FitResult,
    compare_models,
    fit_aggregate,
    fit_exponential,
    fit_grouped,
    fit_regression,
    pool_grouped,
    standard_errors,
)
from .gof import GofReport, chisq_statistic, chisq_tail, equiprobable_bins, gof_test
from .bayes import (
    McmcConfig,
    PosteriorChain,
    PriorSpec,
    chain_summary,
    log_posterior,
    propriety_check,
    run_mh,
)
from .forecast import (
    ForecastCurve,
    plugin_remaining_quantile,
    predictive_curve,
    predictive_exceedance,
    predictive_quartiles,
)
from .simulate import SimSpec, generate, recovery_study

__version__ = "0.1.0"
