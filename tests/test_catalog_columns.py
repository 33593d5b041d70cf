"""The column-backed Catalog: agreement with record-built oracles, the
CSV round trip, immutability, and a model path that builds no records."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from domecast.bayes import McmcConfig, PriorSpec, run_mh
from domecast.catalog import (
    Catalog,
    CatalogError,
    CompositionClass,
    EruptionRecord,
    parse_catalog,
    serialize_catalog,
    summarize,
)
from domecast.fit import fit_aggregate, fit_regression
from domecast.gof import gof_test
from domecast.likelihood import RegressionParams, catalog_arrays
from domecast.pareto import GPaParams, quantile
from domecast.simulate import SimSpec, generate

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

records = st.builds(
    EruptionRecord,
    # Quotes and commas exercise CSV quoting; the parser strips outer spaces.
    volcano_name=st.from_regex(
        r"[A-Z][A-Z0-9 ,.'\"\[\]-]{0,12}[A-Z0-9]", fullmatch=True
    ),
    start_year=st.floats(-10_000.0, 2100.0),
    duration=st.floats(1e-6, 1e4, exclude_min=True),
    censored=st.booleans(),
    composition_class=st.sampled_from(CompositionClass),
    silica_pct=st.none() | st.floats(30.0, 90.0),
)
catalogs = st.builds(Catalog, st.lists(records, max_size=25).map(tuple))


@SETTINGS
@given(cat=catalogs)
def test_records_round_trip(cat):
    again = Catalog(cat.records)
    assert again == cat and hash(again) == hash(cat)
    assert again.records == cat.records


@SETTINGS
@given(cat=catalogs, other=catalogs)
def test_column_operations_match_record_oracles(cat, other):
    rows = cat.records
    for cls in CompositionClass:
        oracle = Catalog(r for r in rows if r.composition_class is cls)
        assert cat.filter_class(cls) == oracle
    completed = Catalog(r for r in rows if not r.censored)
    assert cat.completed_only() == completed
    assert cat.concat(other) == Catalog(rows + other.records)
    assert (cat.n, cat.n1, cat.n0) == (
        len(rows),
        sum(not r.censored for r in rows),
        sum(r.censored for r in rows),
    )


@SETTINGS
@given(cat=catalogs.filter(lambda c: c.n > 0))
def test_serialize_parse_serialize_is_stable(cat):
    text = serialize_catalog(cat)
    again = parse_catalog(text)
    assert serialize_catalog(again) == text
    assert again == cat


def test_equality_reads_every_column():
    row = EruptionRecord("A", 1990.0, 2.0, False, CompositionClass.MAFIC)
    a = Catalog([row])
    assert np.isnan(a.silica[0]) and a == Catalog([row])  # NaN silica is equal
    changes = dict(
        volcano_name="B",
        start_year=1991.0,
        duration=3.0,
        censored=True,
        composition_class=CompositionClass.EVOLVED,
        silica_pct=55.0,
    )
    for field, value in changes.items():
        assert a != Catalog([dataclasses.replace(row, **{field: value})])


def test_every_constructor_checks_the_columns(small_catalog):
    row = EruptionRecord("A", 1990.0, 2.0, False, CompositionClass.MAFIC)
    for change, message in (
        # A row that breaks several rules is named by the first of them.
        (dict(duration=0.0, silica_pct=95.0), "duration must be finite and > 0, got 0.0"),
        (dict(start_year=math.inf), "start_year must be finite, got inf"),
        (dict(silica_pct=95.0), "silica_pct 95.0 outside [30.0, 90.0]"),
    ):
        with pytest.raises(CatalogError) as caught:
            Catalog([row, dataclasses.replace(row, **change), row])
        assert str(caught.value) == f"{message} for 'A'"
    with pytest.raises(CatalogError, match="duration must be finite"):
        small_catalog._replace(duration=-small_catalog.duration)
    columns = {**small_catalog._columns(), "silica": np.full(small_catalog.n, 20.0)}
    with pytest.raises(CatalogError, match="silica_pct 20.0 outside"):
        Catalog._from_columns(**columns)
    # alpha = 0.003 draws durations beyond the float range; fixed-horizon
    # censoring caps the same draws at the window.
    with pytest.raises(CatalogError, match="got inf for 'SIM-00009'"):
        generate(SimSpec(GPaParams(0.003, 1.0), n=1000, seed=1))
    spec = SimSpec(GPaParams(0.003, 1.0), n=1000, censoring="fixed_horizon",
                   horizon=100.0, seed=1)
    assert generate(spec).duration.max() <= 100.0


def test_empty_catalog_has_empty_columns():
    cat = Catalog(())
    assert cat.n == cat.n0 == cat.n1 == 0 and cat.records == ()
    with pytest.raises(ValueError, match="empty catalog"):
        catalog_arrays(cat)


def test_catalog_is_immutable(small_catalog, silica_catalog):
    sim = generate(SimSpec(GPaParams(0.65, 0.7), n=20, seed=4))
    derived = [
        small_catalog,
        sim,
        sim.completed_only(),
        silica_catalog.filter_class(CompositionClass.MAFIC),
        small_catalog.concat(silica_catalog),
    ]
    for cat in derived:
        with pytest.raises(dataclasses.FrozenInstanceError):
            cat.duration = np.ones(cat.n)
        for column in (
            cat.names, cat.start_year, cat.duration,
            cat.censored, cat.comp_class, cat.silica,
        ):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[-1]
    t, _, x = catalog_arrays(silica_catalog)
    with pytest.raises(ValueError, match="read-only"):
        t *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        x[0] = 60.0


def test_models_run_without_records(monkeypatch):
    def refuse(self, volcano_name, *args, **kwargs):
        raise AssertionError(f"EruptionRecord built for {volcano_name!r}")

    monkeypatch.setattr(EruptionRecord, "__init__", refuse)
    spec = SimSpec(
        RegressionParams(0.69, 0.79, 0.045, 0.13),
        n=300,
        censoring="random_fraction",
        fraction=0.08,
        seed=3,
    )
    cat = generate(spec)
    with pytest.raises(AssertionError, match="SIM-00000"):
        cat.records  # the patch is live: only the records view builds rows
    assert parse_catalog(serialize_catalog(cat)) == cat  # nor does parsing

    agg = fit_aggregate(cat)
    fit_regression(cat)
    config = McmcConfig(seed=1, burn_in=500, iterations=1000, thin=10)
    for model in ("aggregate", "regression"):
        assert run_mh(model, cat, PriorSpec(), config).n_draws == 100
    p = GPaParams(agg.estimates["alpha"], agg.estimates["beta"])
    completed = cat.completed_only()
    report = gof_test(completed, lambda q: float(quantile(p, q)), k_fitted=2)
    assert sum(report.observed) == completed.n
    for cls in CompositionClass:
        cat.filter_class(cls)
    assert cat.concat(cat).n == 2 * cat.n
    assert summarize(cat).total == cat.n
    assert serialize_catalog(cat).count("\n") == cat.n + 1
