"""The public surface: what ``domecast`` and each module export.

Adding a name to, or dropping one from, the package namespace or a
module's ``__all__`` shows up here, so re-exporting a name is a visible
decision."""

import importlib
import pkgutil
import types

import pytest

import domecast

PACKAGE_NAMES = {
    "Catalog", "CatalogError", "CompositionClass", "EruptionRecord",
    "load_fixture_long_durations", "parse_catalog", "serialize_catalog", "summarize",
    "ExpParams", "GPaParams", "condition_on_age", "exp_quantile", "quantile",
    "survival",
    "RegressionParams", "nllh_aggregate", "nllh_exponential",
    "FitResult", "fit_aggregate", "fit_exponential", "fit_grouped", "fit_regression",
    "GofReport", "chisq_tail", "gof_test",
    "McmcConfig", "PosteriorChain", "PriorSpec", "chain_summary", "propriety_check",
    "run_mh",
    "ForecastCurve", "plugin_remaining_quantile", "predictive_curve",
    "predictive_exceedance", "predictive_quartiles",
    "SimSpec", "generate", "recovery_study",
}

MODULE_ALL = {
    "catalog": {
        "CatalogError", "CompositionClass", "EruptionRecord", "Catalog",
        "CatalogSummary", "parse_catalog", "serialize_catalog", "summarize",
        "load_fixture_long_durations",
    },
    "pareto": {
        "GPaParams", "ExpParams", "survival", "log_survival", "quantile",
        "condition_on_age", "exp_quantile",
    },
    "likelihood": {"RegressionParams", "catalog_arrays", "nllh_aggregate",
                   "nllh_exponential"},
    "fit": {
        "FitError", "HessianError", "FitResult", "fit_aggregate", "fit_grouped",
        "fit_exponential", "fit_regression", "aic", "bic",
    },
    "gof": {"GofReport", "chisq_tail", "gof_test", "DEFAULT_BINS"},
    "bayes": {
        "PriorSpec", "McmcConfig", "PosteriorChain", "ProprietyResult",
        "ImproperPosteriorError", "McmcError", "propriety_check", "run_mh",
        "chain_summary", "save_chain", "load_chain",
    },
    "forecast": {
        "BracketError", "ForecastCurve", "plugin_remaining_quantile",
        "predictive_exceedance", "predictive_curve", "predictive_quartiles",
    },
    "simulate": {"SimSpec", "generate", "recovery_study", "RecoveryReport"},
}


def test_package_namespace_is_pinned():
    public = {
        name
        for name, value in vars(domecast).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PACKAGE_NAMES
    assert len(PACKAGE_NAMES) == 39


@pytest.mark.parametrize("module_name", sorted(MODULE_ALL))
def test_module_all_is_pinned_and_defined(module_name):
    module = importlib.import_module(f"domecast.{module_name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == MODULE_ALL[module_name]
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_module_with_an_all_is_pinned():
    modules = {m.name for m in pkgutil.iter_modules(domecast.__path__)}
    with_all = {
        name
        for name in modules
        if hasattr(importlib.import_module(f"domecast.{name}"), "__all__")
    }
    assert with_all == set(MODULE_ALL)


def test_package_names_come_from_module_all():
    exported = set().union(*MODULE_ALL.values())
    assert PACKAGE_NAMES <= exported
