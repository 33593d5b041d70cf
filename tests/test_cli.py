import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import domecast
from domecast.catalog import CompositionClass, parse_catalog, serialize_catalog
from domecast.cli import build_parser, main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def sim_catalog(tmp_path):
    out = tmp_path / "sim"
    rc = run(["simulate", "--alpha", 0.65, "--beta", 0.70, "--n", 400,
              "--censoring", "random_fraction", "--fraction", 0.1,
              "--seed", 31, "--out", out])
    assert rc == 0
    return out / "catalog.csv"


@pytest.fixture()
def reg_catalog(tmp_path):
    out = tmp_path / "simreg"
    rc = run(["simulate", "--alpha", 0.65, "--beta", 0.70,
              "--gamma-alpha", 0.05, "--gamma-beta", 0.13,
              "--n", 300, "--seed", 32, "--out", out])
    assert rc == 0
    return out / "catalog.csv"


def test_usage_errors():
    assert run([]) == 1
    assert run(["fit"]) == 1
    assert run(["frobnicate"]) == 1


def test_missing_catalog_is_data_error(tmp_path):
    assert run(["fit", tmp_path / "nope.csv", "--out", tmp_path]) == 2


def test_malformed_catalog_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("volcano,start_year,duration_yr,status,class,silica_pct\n"
                   "X,2000,-3,completed,mafic,\n")
    assert run(["fit", bad, "--out", tmp_path]) == 2


def test_non_finite_catalog_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("volcano,start_year,duration_yr,status,class,silica_pct\n"
                   "A,1990,2.0,completed,mafic,\n"
                   "B,nan,inf,completed,mafic,\n"
                   "C,2000,1.0,completed,intermediate,\n"
                   "D,2005,3.5,ongoing,evolved,66.0\n")
    assert run(["fit", bad, "--out", tmp_path]) == 2
    assert run(["empirical", bad, "--out", tmp_path]) == 2
    assert not (tmp_path / "empirical.csv").exists()
    # A simulated catalog is checked like a parsed one: alpha = 0.003 draws
    # durations beyond the float range.
    capsys.readouterr()
    assert run(["simulate", "--alpha", 0.003, "--beta", 1, "--n", 1000,
                "--seed", 1, "--out", tmp_path]) == 2
    assert capsys.readouterr().err == (
        "error: duration must be finite and > 0, got inf for 'SIM-00009'\n"
    )
    assert not (tmp_path / "catalog.csv").exists()


def test_cli_import_leaves_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(domecast.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = "import sys, domecast.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


def test_simulate_deterministic(tmp_path, sim_catalog):
    out2 = tmp_path / "sim2"
    assert run(["simulate", "--alpha", 0.65, "--beta", 0.70, "--n", 400,
                "--censoring", "random_fraction", "--fraction", 0.1,
                "--seed", 31, "--out", out2]) == 0
    assert (out2 / "catalog.csv").read_bytes() == sim_catalog.read_bytes()


def test_fit_aggregate_json(tmp_path, sim_catalog):
    out = tmp_path / "fit"
    assert run(["fit", sim_catalog, "--out", out]) == 0
    doc = json.loads((out / "fit.json").read_text())
    assert doc["schema"] == "domecast/v1"
    assert doc["model_kind"] == "aggregate"
    assert set(doc["estimates"]) == {"alpha", "beta"}
    assert set(doc["standard_errors"]) == {"alpha", "beta"}
    assert 0.4 < doc["estimates"]["alpha"] < 0.9
    assert doc["n"] == 400 and doc["converged"] is True


def test_fit_regression_and_class(tmp_path, reg_catalog):
    out = tmp_path / "fit"
    assert run(["fit", reg_catalog, "--model", "regression", "--out", out]) == 0
    doc = json.loads((out / "fit.json").read_text())
    assert set(doc["estimates"]) == {"alpha", "beta", "gamma_alpha", "gamma_beta"}
    assert run(["fit", reg_catalog, "--model", "exponential",
                "--class", "intermediate", "--out", out]) == 0
    doc = json.loads((out / "fit.json").read_text())
    assert doc["model_kind"] == "exponential"
    assert doc["notes"] == ["class=intermediate"]


def test_fit_regression_missing_silica_exit_2(tmp_path, sim_catalog):
    assert run(["fit", sim_catalog, "--model", "regression",
                "--out", tmp_path]) == 2


def test_fit_removed_spellings_are_usage_errors(tmp_path, capsys, sim_catalog):
    # A class is a filter (--class) on every model kind, not a model kind.
    for extra in (["--model", "grouped", "--class", "mafic"],
                  ["--model", "grouped-exponential"],
                  ["--class", "mafic", "--family", "exponential"],
                  ["--completed-only"]):
        capsys.readouterr()
        assert run(["fit", sim_catalog, *extra, "--out", tmp_path / "fit"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "fit").exists()


def test_fit_of_an_empty_class_is_a_data_error(tmp_path, capsys):
    one_class = tmp_path / "catalog.csv"
    one_class.write_text("volcano,start_year,duration_yr,status,class,silica_pct\n"
                         "A,1990,2.0,completed,evolved,\n"
                         "B,2000,1.0,completed,evolved,\n")
    for kind in ("aggregate", "exponential"):
        capsys.readouterr()
        assert run(["fit", one_class, "--model", kind, "--class", "mafic",
                    "--out", tmp_path / "fit"]) == 2
        assert capsys.readouterr().err == "error: no records in class 'mafic'\n"
    assert list((tmp_path / "fit").iterdir()) == []


def test_exponential_whole_catalog_gof_has_the_papers_dof(tmp_path, sim_catalog):
    # The paper's heavy-tail test: the whole-catalog exponential fit on 13
    # bins has 13 - 1 - 1 = 11 dof, the Pareto fit 10.
    for kind, dof in (("exponential", 11), ("aggregate", 10)):
        out = tmp_path / kind
        assert run(["fit", sim_catalog, "--model", kind, "--out", out]) == 0
        assert run(["gof", sim_catalog, "--fit", out / "fit.json", "--out", out]) == 0
        doc = json.loads((out / "gof.json").read_text())
        assert (doc["n_bins"], doc["dof"]) == (13, dof)


def test_gof_roundtrip(tmp_path, sim_catalog):
    fit_out = tmp_path / "fit"
    assert run(["fit", sim_catalog, "--out", fit_out]) == 0
    gof_out = tmp_path / "gof"
    assert run(["gof", sim_catalog, "--fit", fit_out / "fit.json",
                "--out", gof_out]) == 0
    doc = json.loads((gof_out / "gof.json").read_text())
    assert doc["n_bins"] == 13
    assert doc["dof"] == 10
    assert 0.0 <= doc["p_value"] <= 1.0
    # a well-specified model should not be wildly rejected
    assert doc["p_value"] > 1e-4
    # strict JSON: the unbounded top bin edge is null
    assert doc["bin_edges"][0] == 0.0 and doc["bin_edges"][-1] is None


def test_gof_too_few_bins_exit_1(tmp_path, sim_catalog):
    fit_out = tmp_path / "fit"
    assert run(["fit", sim_catalog, "--out", fit_out]) == 0
    assert run(["gof", sim_catalog, "--fit", fit_out / "fit.json",
                "--bins", 3, "--out", tmp_path]) == 1


def test_posterior_chain_outputs(tmp_path, sim_catalog):
    out = tmp_path / "post"
    args = ["posterior", sim_catalog, "--burn-in", 500, "--iters", 5000,
            "--thin", 10, "--seed", 3, "--out", out]
    assert run(args) == 0
    rows = (out / "chain.csv").read_text().strip().splitlines()
    assert rows[0] == "alpha,beta"
    assert len(rows) == 501
    meta = json.loads((out / "chain_meta.json").read_text())
    assert meta["schema"] == "domecast/v1"
    assert meta["rng_algorithm"] == "numpy-pcg64"
    out2 = tmp_path / "post2"
    assert run(["posterior", sim_catalog, "--burn-in", 500, "--iters", 5000,
                "--thin", 10, "--seed", 3, "--out", out2]) == 0
    assert (out2 / "chain.csv").read_bytes() == (out / "chain.csv").read_bytes()


def test_posterior_improper_exit_2(tmp_path):
    cat = tmp_path / "tiny.csv"
    cat.write_text("volcano,start_year,duration_yr,status,class,silica_pct\n"
                   "A,2000,1.0,completed,mafic,\n"
                   "B,2001,2.0,ongoing,mafic,\n")
    assert run(["posterior", cat, "--burn-in", 100, "--iters", 1000,
                "--thin", 10, "--out", tmp_path]) == 2


def test_forecast_plugin_quartiles(tmp_path, sim_catalog):
    fit_out = tmp_path / "fit"
    assert run(["fit", sim_catalog, "--out", fit_out]) == 0
    out = tmp_path / "fc"
    assert run(["forecast", "--fit", fit_out / "fit.json", "--age", 7189,
                "--days", "--quartiles", "--grid", "0:50:11",
                "--out", out]) == 0
    doc = json.loads((out / "quartiles.json").read_text())
    assert doc["mode"] == "plugin"
    assert 0 < doc["q25"] < doc["q50"] < doc["q75"]
    rows = (out / "forecast.csv").read_text().strip().splitlines()
    assert rows[0] == "t,mean,low,high,plug_in"
    assert len(rows) == 12
    first = [float(v) for v in rows[1].split(",")]
    assert first[1] == 1.0


def test_forecast_bayes_mode(tmp_path, sim_catalog):
    post = tmp_path / "post"
    assert run(["posterior", sim_catalog, "--burn-in", 500, "--iters", 5000,
                "--thin", 10, "--seed", 3, "--out", post]) == 0
    out = tmp_path / "fc"
    assert run(["forecast", "--chain", post / "chain.csv", "--age", 2.0,
                "--quartiles", "--grid", "0:100:21", "--out", out]) == 0
    doc = json.loads((out / "quartiles.json").read_text())
    assert doc["mode"] == "bayes"
    assert 0 < doc["q25"] < doc["q50"] < doc["q75"]
    rows = (out / "forecast.csv").read_text().strip().splitlines()
    assert len(rows) == 22
    mean = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.all(np.diff(mean) <= 0)
    draws = (out / "forecast_draws.csv").read_text().strip().splitlines()
    assert len(draws) == 101


def test_forecast_regression_chain_needs_silica(tmp_path, reg_catalog):
    post = tmp_path / "post"
    assert run(["posterior", reg_catalog, "--model", "regression",
                "--burn-in", 500, "--iters", 4000, "--thin", 20,
                "--seed", 6, "--out", post]) == 0
    out = tmp_path / "fc"
    assert run(["forecast", "--chain", post / "chain.csv", "--age", 1.0,
                "--quartiles", "--out", out]) == 1
    assert run(["forecast", "--chain", post / "chain.csv", "--age", 1.0,
                "--silica", 58, "--quartiles", "--out", out]) == 0


def test_empirical_outputs(tmp_path, reg_catalog):
    fit_out = tmp_path / "fit"
    assert run(["fit", reg_catalog, "--out", fit_out]) == 0
    out = tmp_path / "emp"
    assert run(["empirical", reg_catalog, "--fit", fit_out / "fit.json",
                "--out", out]) == 0
    for name in ("empirical.csv", "model_curve.csv", "segments.csv",
                 "summary.json"):
        assert (out / name).exists()
    emp = (out / "empirical.csv").read_text().strip().splitlines()
    assert emp[0] == "class,duration,fraction_exceeding"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total"] == 300
    assert summary["completed"] + summary["ongoing"] == 300


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_recovery_without_any_fit_writes_null(tmp_path):
    # One record per replication leaves no fit to recover.
    out = tmp_path / "rec"
    assert run(["recovery", "--n", 1, "--reps", 10, "--out", out]) == 0
    with open(out / "recovery.json") as fh:
        doc = json.load(fh, parse_constant=_refuse_constant)
    assert doc["failures"] == 10
    for stat in ("bias", "rmse", "coverage95"):
        assert doc[stat] == {"alpha": None, "beta": None}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_output_refuses_non_finite_numbers(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(domecast.cli.DataError, match="non-finite number"):
        domecast.cli._write_json(str(path), {"x": [1.0, value]})
    assert list(tmp_path.iterdir()) == []


LAMBDA_ONLY = "--alpha, --beta, --gamma-alpha and --gamma-beta do not apply with --lambda"


@pytest.mark.parametrize("command", ["simulate", "recovery"])
@pytest.mark.parametrize(
    "options,message",
    [
        (["--horizon", 3], "--horizon applies only to --censoring fixed_horizon"),
        (["--censoring", "random_fraction", "--horizon", 3],
         "--horizon applies only to --censoring fixed_horizon"),
        (["--fraction", 0.1], "--fraction applies only to --censoring random_fraction"),
        (["--censoring", "fixed_horizon", "--horizon", 3, "--fraction", 0.1],
         "--fraction applies only to --censoring random_fraction"),
        (["--lambda", 2, "--gamma-alpha", 0.1], LAMBDA_ONLY),
        (["--lambda", 2, "--gamma-beta", 0], LAMBDA_ONLY),
        (["--lambda", 2, "--alpha", 0.5], LAMBDA_ONLY),
        (["--lambda", 2, "--beta", 1], LAMBDA_ONLY),
    ],
)
def test_simulation_options_that_do_not_apply_are_usage_errors(
    tmp_path, capsys, command, options, message
):
    reps = ["--reps", 10] if command == "recovery" else []
    capsys.readouterr()
    assert run([command, "--n", 5, *options, *reps, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list((tmp_path / "out").iterdir()) == []


def test_recovery_cli(tmp_path):
    out = tmp_path / "rec"
    assert run(["recovery", "--alpha", 0.7, "--beta", 0.8, "--n", 150,
                "--reps", 12, "--seed", 9, "--out", out]) == 0
    doc = json.loads((out / "recovery.json").read_text())
    assert doc["replications"] == 12
    assert set(doc["bias"]) == {"alpha", "beta"}


def _close(got, want, rel):
    """``got`` has ``want``'s structure and text, its floats equal to rel."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _close(got[key], want[key], rel)
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _close(g, w, rel)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=rel)
    else:
        assert got == want


def _csv_cells(path):
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    return [[cell(c) for c in row.split(",")] for row in path.read_text().splitlines()]


@pytest.fixture()
def catalog_pair(tmp_path):
    """A simulated catalog with silica and ongoing records, and a copy whose
    duration column is headed duration_days, every duration x 365.25."""
    out = tmp_path / "sim_years"
    assert run(["simulate", "--alpha", 0.65, "--beta", 0.70, "--gamma-alpha", 0.05,
                "--gamma-beta", 0.13, "--n", 300, "--censoring", "random_fraction",
                "--fraction", 0.1, "--seed", 33, "--out", out]) == 0
    years = out / "catalog.csv"
    header, *rows = years.read_text().splitlines()
    lines = [header.replace(",duration_yr,", ",duration_days,")]
    for row in rows:
        cells = row.split(",")
        cells[2] = repr(float(cells[2]) * 365.25)
        lines.append(",".join(cells))
    days = tmp_path / "catalog_days.csv"
    days.write_text("\n".join(lines) + "\n")
    return years, days


def test_duration_days_header_gives_the_same_results(tmp_path, catalog_pair):
    outs = {}
    for catalog in catalog_pair:
        out = outs[catalog] = tmp_path / catalog.stem
        reg = out / "reg"
        assert run(["fit", catalog, "--out", out]) == 0
        assert run(["fit", catalog, "--model", "regression", "--out", reg]) == 0
        assert run(["gof", catalog, "--fit", out / "fit.json", "--out", out]) == 0
        assert run(["empirical", catalog, "--fit", out / "fit.json",
                    "--out", out / "emp"]) == 0
        for kind, post in (("aggregate", out / "post"), ("regression", reg / "post")):
            assert run(["posterior", catalog, "--model", kind, "--burn-in", 500,
                        "--iters", 4000, "--thin", 10, "--seed", 3, "--out", post]) == 0
    years, days = (outs[c] for c in catalog_pair)
    for doc in ("fit.json", "reg/fit.json"):
        want, got = (json.loads((d / doc).read_text()) for d in (years, days))
        _close(got["estimates"], want["estimates"], 1e-9)
    want, got = (json.loads((d / "gof.json").read_text()) for d in (years, days))
    assert got["observed"] == want["observed"]
    assert got["statistic"] == pytest.approx(want["statistic"], rel=1e-9)
    for name in ("empirical.csv", "model_curve.csv", "segments.csv", "summary.json"):
        if name.endswith(".json"):
            want, got = (json.loads((d / "emp" / name).read_text()) for d in (years, days))
        else:
            want, got = (_csv_cells(d / "emp" / name) for d in (years, days))
        _close(got, want, 1e-9)
    for chain in ("post/chain.csv", "reg/post/chain.csv"):
        want, got = (np.loadtxt(d / chain, delimiter=",", skiprows=1) for d in (years, days))
        np.testing.assert_allclose(got, want, rtol=1e-6)


def test_fit_json_in_days_is_refused(tmp_path, capsys, sim_catalog):
    # Only the former `fit --days` wrote duration_units; its estimates were
    # in days.  A file without the key, or with "years", reads as before.
    out = tmp_path / "fit"
    assert run(["fit", sim_catalog, "--out", out]) == 0
    doc = json.loads((out / "fit.json").read_text())
    assert "duration_units" not in doc
    assert run(["gof", sim_catalog, "--fit", out / "fit.json", "--out", out]) == 0
    without_key = (out / "gof.json").read_bytes()
    (out / "fit.json").write_text(json.dumps({**doc, "duration_units": "years"}))
    assert run(["gof", sim_catalog, "--fit", out / "fit.json", "--out", out]) == 0
    assert (out / "gof.json").read_bytes() == without_key
    for units in ("days", "weeks"):
        (out / "fit.json").write_text(json.dumps({**doc, "duration_units": units}))
        for argv in (["gof", sim_catalog, "--fit", out / "fit.json"],
                     ["empirical", sim_catalog, "--fit", out / "fit.json"],
                     ["forecast", "--fit", out / "fit.json", "--age", 2.0, "--quartiles"]):
            refused = tmp_path / f"refused_{units}_{argv[0]}"
            capsys.readouterr()
            assert run(argv + ["--out", refused]) == 2
            err = capsys.readouterr().err
            assert f"duration_units {units!r}" in err and "duration_days" in err
            assert list(refused.iterdir()) == []


@pytest.mark.parametrize("kind", list(domecast.likelihood.MODELS))
def test_fit_class_is_the_fit_of_the_class_records(tmp_path, reg_catalog, kind):
    # fit --class C is fit on the records of class C, noted as class=C.
    with open(reg_catalog) as fh:
        evolved = parse_catalog(fh).filter_class(CompositionClass.EVOLVED)
    only_class = tmp_path / "evolved.csv"
    only_class.write_text(serialize_catalog(evolved))
    assert run(["fit", reg_catalog, "--model", kind, "--class", "evolved",
                "--out", tmp_path / "class"]) == 0
    assert run(["fit", only_class, "--model", kind, "--out", tmp_path / "filtered"]) == 0
    doc = json.loads((tmp_path / "class" / "fit.json").read_text())
    want = json.loads((tmp_path / "filtered" / "fit.json").read_text())
    assert doc == {**want, "notes": want["notes"] + ["class=evolved"]}


def test_posterior_refuses_a_negative_seed(tmp_path, capsys, sim_catalog):
    out = tmp_path / "post"
    assert run(["posterior", sim_catalog, "--burn-in", 500, "--iters", 1000,
                "--thin", 10, "--seed", -1, "--out", out]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert list(out.iterdir()) == []


def test_gof_bins_below_three_exit_1(tmp_path, sim_catalog):
    # Both bin-count refusals are usage errors, whatever the fitted model.
    fit_out = tmp_path / "fit"
    assert run(["fit", sim_catalog, "--out", fit_out]) == 0
    assert run(["gof", sim_catalog, "--fit", fit_out / "fit.json",
                "--bins", 2, "--out", tmp_path]) == 1


@pytest.fixture()
def chain_csv(tmp_path, sim_catalog):
    post = tmp_path / "post"
    assert run(["posterior", sim_catalog, "--burn-in", 200, "--iters", 1000,
                "--thin", 10, "--seed", 3, "--out", post]) == 0
    return post / "chain.csv"


@pytest.mark.parametrize("age", ["nan", "inf", "-5"])
def test_forecast_bayes_refuses_bad_age(tmp_path, capsys, sim_catalog, chain_csv, age):
    # The plug-in mode refuses the same ages, naming the age, not beta.
    fit_out = tmp_path / "fit"
    assert run(["fit", sim_catalog, "--out", fit_out]) == 0
    out = tmp_path / "fc"
    for source in (["--chain", chain_csv], ["--fit", fit_out / "fit.json"]):
        capsys.readouterr()
        assert run(["forecast", *source, "--age", age,
                    "--quartiles", "--out", out]) == 2
        assert "age" in capsys.readouterr().err
        assert run(["forecast", *source, "--age", age,
                    "--grid", "0:50:11", "--out", out]) == 2
        assert "age" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_forecast_plugin_overflow_is_numerical_error(tmp_path, sim_catalog):
    # q75 = (beta + 1e308)(4^(1/alpha) - 1) overflows a double.
    fit_out = tmp_path / "fit"
    assert run(["fit", sim_catalog, "--out", fit_out]) == 0
    out = tmp_path / "fc"
    assert run(["forecast", "--fit", fit_out / "fit.json", "--age", "1e308",
                "--quartiles", "--grid", "0:50:11", "--out", out]) == 3
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("mode", ["--chain", "--fit"])
def test_forecast_without_outputs_is_usage_error(
    tmp_path, capsys, regression_fit_and_chain, mode
):
    out = tmp_path / "fc"
    assert run(["forecast", mode, regression_fit_and_chain[mode], "--age", 2.0,
                "--silica", 58, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "--quartiles" in err and "--grid" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("grid", ["0:nan:5", "0:inf:4", "nan:10:3"])
def test_forecast_refuses_non_finite_grid(tmp_path, sim_catalog, chain_csv, grid):
    fit_out = tmp_path / "fit"
    assert run(["fit", sim_catalog, "--out", fit_out]) == 0
    out = tmp_path / "fc"
    assert run(["forecast", "--chain", chain_csv, "--age", 2.0,
                "--grid", grid, "--out", out]) == 2
    assert run(["forecast", "--fit", fit_out / "fit.json", "--age", 2.0,
                "--grid", grid, "--out", out]) == 2
    assert not (out / "forecast.csv").exists()


@pytest.fixture(scope="module")
def regression_fit_and_chain(tmp_path_factory):
    work = tmp_path_factory.mktemp("regression")
    assert run(["simulate", "--alpha", 0.65, "--beta", 0.70,
                "--gamma-alpha", 0.05, "--gamma-beta", 0.13,
                "--n", 200, "--seed", 32, "--out", work]) == 0
    assert run(["fit", work / "catalog.csv", "--model", "regression",
                "--out", work]) == 0
    assert run(["posterior", work / "catalog.csv", "--model", "regression",
                "--burn-in", 500, "--iters", 2000, "--thin", 20,
                "--seed", 6, "--out", work]) == 0
    return {"--fit": work / "fit.json", "--chain": work / "chain.csv"}


@pytest.mark.parametrize("mode", ["--chain", "--fit"])
@pytest.mark.parametrize("silica", ["nan", "inf", "1e6", "20"])
def test_forecast_refuses_silica_outside_catalog_range(
    tmp_path, regression_fit_and_chain, mode, silica
):
    out = tmp_path / "fc"
    assert run(["forecast", mode, regression_fit_and_chain[mode], "--age", 1.0,
                "--silica", silica, "--quartiles", "--grid", "0:50:11",
                "--out", out]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("mode", ["--chain", "--fit"])
def test_forecast_writes_nothing_before_a_bad_grid(tmp_path, regression_fit_and_chain, mode):
    out = tmp_path / "fc"
    assert run(["forecast", mode, regression_fit_and_chain[mode], "--age", 1.0,
                "--silica", 58, "--quartiles", "--grid", "0:nan:5",
                "--out", out]) == 2
    assert list(out.iterdir()) == []


def test_empirical_exponential_class_fit(tmp_path, sim_catalog):
    fit_out = tmp_path / "fit"
    assert run(["fit", sim_catalog, "--model", "exponential", "--class",
                "intermediate", "--out", fit_out]) == 0
    out = tmp_path / "emp"
    assert run(["empirical", sim_catalog, "--fit", fit_out / "fit.json",
                "--out", out]) == 0
    assert (out / "model_curve.csv").read_text() == "class,t,survival\n"
    assert (out / "segments.csv").read_text() == "volcano,class,age_s,median_shift\n"


@pytest.mark.parametrize(
    "estimates,code",
    [
        # (beta + age)(2^(1/alpha) - 1) overflows a double: numerical error.
        ('"model_kind": "aggregate", "estimates": {"alpha": 0.0005, "beta": 1}', 3),
        # The catalog's ongoing records have no silica: data error.
        ('"model_kind": "regression", "estimates": {"alpha": 0.6, "beta": 1, '
         '"gamma_alpha": 0, "gamma_beta": 0}', 2),
    ],
)
def test_refused_median_shift_leaves_no_empirical_output(
    tmp_path, sim_catalog, estimates, code
):
    fit_json = tmp_path / "fit.json"
    fit_json.write_text("{" + estimates + "}")
    out = tmp_path / "emp"
    assert run(["empirical", sim_catalog, "--fit", fit_json, "--out", out]) == code
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "doc,fault",
    [
        ('{"model_kind": "aggregate", "estimates": {"alpha": 0.6}}', "'beta'"),
        ('{"model_kind": "regression", "estimates": {"alpha": 0.6, "beta": 1}}',
         "'gamma_alpha'"),
        ("[1, 2]", "not an object"),
        ('{"model_kind": ["aggregate"], "estimates": {}}', "unsupported model_kind"),
        ('{"model_kind": "aggregate", "estimates": {"alpha": -1, "beta": 1}}',
         "alpha must be finite"),
    ],
)
@pytest.mark.parametrize("command", ["gof", "forecast", "empirical"])
def test_malformed_fit_json_is_data_error(tmp_path, capsys, sim_catalog, doc, fault,
                                         command):
    bad = tmp_path / "fit.json"
    bad.write_text(doc)
    args = {
        "gof": ["gof", sim_catalog, "--fit", bad, "--silica", 58],
        "forecast": ["forecast", "--fit", bad, "--age", 1.0, "--silica", 58,
                     "--quartiles"],
        "empirical": ["empirical", sim_catalog, "--fit", bad],
    }[command]
    out = tmp_path / "out"
    assert run(args + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and fault in err
    assert not (out / "quartiles.json").exists()
    assert not (out / "gof.json").exists()


def test_forecast_refuses_chain_without_draws(tmp_path, chain_csv):
    chain_csv.write_text("alpha,beta\n")
    out = tmp_path / "fc"
    assert run(["forecast", "--chain", chain_csv, "--age", 2.0,
                "--quartiles", "--out", out]) == 2
    assert list(out.iterdir()) == []


def test_forecast_refuses_truncated_chain(tmp_path, capsys, chain_csv):
    lines = chain_csv.read_text().splitlines(keepends=True)
    assert len(lines) == 101  # header and iterations // thin = 100 draws
    chain_csv.write_text("".join(lines[:50]))
    out = tmp_path / "fc"
    capsys.readouterr()
    assert run(["forecast", "--chain", chain_csv, "--age", 2.0,
                "--quartiles", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "chain.csv: 49 draws" in err and "100 (iterations // thin)" in err
    assert list(out.iterdir()) == []


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize(
    "malform,fault",
    [
        (lambda meta: [meta], "not a JSON object"),
        (lambda meta: _without(meta, "config"), "'config'"),
        (lambda meta: _without(meta, "acceptance_rate"), "'acceptance_rate'"),
        (lambda meta: {**meta, "prior": {**meta["prior"], "a": "flat"}}, "'prior'"),
        (lambda meta: {**meta, "config": {**meta["config"], "chains": 4}}, "'config'"),
        (lambda meta: {**meta, "config": {**meta["config"], "burn_in": math.nan}},
         "'config'"),
        (lambda meta: {**meta, "proposal": None}, "proposal"),
    ],
    ids=["list", "no-config", "no-acceptance-rate", "non-numeric-prior",
         "unknown-config-key", "nan-burn-in", "null-proposal"],
)
def test_forecast_refuses_malformed_chain_meta(tmp_path, capsys, chain_csv, malform,
                                               fault):
    meta_path = chain_csv.parent / "chain_meta.json"
    meta_path.write_text(json.dumps(malform(json.loads(meta_path.read_text()))))
    out = tmp_path / "fc"
    capsys.readouterr()
    assert run(["forecast", "--chain", chain_csv, "--age", 2.0, "--quartiles",
                "--grid", "0:50:11", "--out", out]) == 2
    err = capsys.readouterr().err
    assert str(meta_path) in err and fault in err
    assert list(out.iterdir()) == []


def test_gof_bin_count_refusal_message(tmp_path, capsys, sim_catalog):
    fit_out = tmp_path / "fit"
    assert run(["fit", sim_catalog, "--out", fit_out]) == 0
    capsys.readouterr()
    assert run(["gof", sim_catalog, "--fit", fit_out / "fit.json",
                "--bins", 2, "--out", tmp_path / "gof"]) == 1
    assert capsys.readouterr().err == "error: n_bins must be >= 3, got 2\n"


@pytest.mark.parametrize("command", ["gof", "forecast --fit", "forecast --chain"])
def test_missing_silica_is_a_usage_error(tmp_path, capsys, regression_fit_and_chain,
                                         command):
    fit_json = regression_fit_and_chain["--fit"]
    args = {
        "gof": ["gof", fit_json.parent / "catalog.csv", "--fit", fit_json],
        "forecast --fit": ["forecast", "--fit", fit_json, "--age", 1.0, "--quartiles"],
        "forecast --chain": ["forecast", "--chain", regression_fit_and_chain["--chain"],
                             "--age", 1.0, "--quartiles"],
    }[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(args + ["--out", out]) == 1
    assert capsys.readouterr().err == (
        "error: --silica is required for a regression fit or chain\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["gof", "forecast --fit", "forecast --chain"])
def test_silica_without_a_regression_model_is_a_usage_error(
    tmp_path, capsys, sim_catalog, chain_csv, command
):
    # An aggregate fit or chain has no silica to pin, so --silica there
    # means the user took it for a regression model.
    fit_out = tmp_path / "fit"
    assert run(["fit", sim_catalog, "--out", fit_out]) == 0
    args = {
        "gof": ["gof", sim_catalog, "--fit", fit_out / "fit.json"],
        "forecast --fit": ["forecast", "--fit", fit_out / "fit.json", "--age", 1.0,
                           "--quartiles"],
        "forecast --chain": ["forecast", "--chain", chain_csv, "--age", 1.0,
                             "--quartiles"],
    }[command]
    out = tmp_path / "out"
    assert run(args + ["--out", out]) == 0
    capsys.readouterr()
    assert run(args + ["--silica", 58, "--out", tmp_path / "refused"]) == 1
    assert capsys.readouterr().err == (
        "error: --silica applies only to a regression fit or chain\n"
    )
    assert list((tmp_path / "refused").iterdir()) == []


@pytest.fixture(scope="module")
def class_fits(tmp_path_factory):
    """A simulated regression catalog with Pareto and exponential fits of
    its evolved class."""
    work = tmp_path_factory.mktemp("classes")
    assert run(["simulate", "--alpha", 0.65, "--beta", 0.70,
                "--gamma-alpha", 0.05, "--gamma-beta", 0.13,
                "--n", 177, "--seed", 3, "--out", work]) == 0
    fits = {}
    for kind in ("aggregate", "exponential"):
        fits[kind] = work / kind / "fit.json"
        assert run(["fit", work / "catalog.csv", "--model", kind,
                    "--class", "evolved", "--out", fits[kind].parent]) == 0
    return work / "catalog.csv", fits


@pytest.mark.filterwarnings("ignore:expected count per bin")  # 29 records, 13 bins
@pytest.mark.parametrize("kind", ["aggregate", "exponential"])
def test_gof_tests_a_class_fit_on_its_class(tmp_path, class_fits, kind):
    catalog_csv, fits = class_fits
    with open(catalog_csv) as fh:
        evolved = parse_catalog(fh).filter_class(CompositionClass.EVOLVED)
    assert 0 < evolved.n < 177
    only_class = tmp_path / "evolved.csv"
    only_class.write_text(serialize_catalog(evolved))
    for catalog, out in ((catalog_csv, "all"), (only_class, "class")):
        assert run(["gof", catalog, "--fit", fits[kind], "--out",
                    tmp_path / out]) == 0
    gof_json = (tmp_path / "all" / "gof.json").read_bytes()
    assert gof_json == (tmp_path / "class" / "gof.json").read_bytes()
    assert sum(json.loads(gof_json)["observed"]) == evolved.n1


@pytest.mark.parametrize("notes", [["class=andesitic"], ["class=evolved", "class=mafic"],
                                   "x"])
def test_gof_refuses_a_class_fit_without_its_class(tmp_path, capsys, class_fits,
                                                   notes):
    catalog_csv, fits = class_fits
    doc = json.loads(fits["aggregate"].read_text())
    doc["notes"] = notes
    bad = tmp_path / "fit.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("gof", "empirical"):  # both read the class the same way
        assert run([command, catalog_csv, "--fit", bad, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            f"error: fit JSON {str(bad)!r} needs a list of notes with at most one "
            "'class=' note, naming a known class\n"
        )
        assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("notes", [None, [], ["a note"]])
def test_a_fit_without_a_class_note_describes_the_whole_catalog(tmp_path, class_fits,
                                                                notes):
    catalog_csv, fits = class_fits
    doc = json.loads(fits["aggregate"].read_text())
    if notes is None:
        del doc["notes"]
    else:
        doc["notes"] = notes
    (tmp_path / "fit.json").write_text(json.dumps(doc))
    assert run(["gof", catalog_csv, "--fit", tmp_path / "fit.json",
                "--out", tmp_path]) == 0
    with open(catalog_csv) as fh:
        n1 = parse_catalog(fh).n1
    assert sum(json.loads((tmp_path / "gof.json").read_text())["observed"]) == n1


@pytest.mark.parametrize(
    "kind,base", [("grouped", "aggregate"), ("grouped-exponential", "exponential")]
)
def test_a_grouped_fit_json_is_refused(tmp_path, capsys, class_fits, kind, base):
    # fit.json files of the former grouped model kinds; a class fit now
    # keeps its base kind and notes its class.
    catalog_csv, fits = class_fits
    doc = json.loads(fits[base].read_text())
    doc["model_kind"] = kind
    old = tmp_path / "fit.json"
    old.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["gof", catalog_csv, "--fit", old, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == (
        f"error: unsupported model_kind {kind!r} in fit JSON {str(old)!r}\n"
    )
    assert list((tmp_path / "out").iterdir()) == []


def test_empirical_median_shifts_cover_a_class_fit_class_only(tmp_path):
    work = tmp_path / "work"
    assert run(["simulate", "--alpha", 0.65, "--beta", 0.7, "--gamma-alpha", 0.04,
                "--gamma-beta", 0.13, "--n", 177, "--censoring", "random_fraction",
                "--fraction", 0.1, "--seed", 3, "--out", work]) == 0
    assert run(["fit", work / "catalog.csv", "--class", "evolved", "--out", work]) == 0
    assert run(["empirical", work / "catalog.csv", "--fit", work / "fit.json",
                "--out", work]) == 0
    header, *rows = (work / "segments.csv").read_text().splitlines()
    assert header == "volcano,class,age_s,median_shift"
    # The rows of the evolved fit's own class, computed as every row is.
    est = json.loads((work / "fit.json").read_text())["estimates"]
    p = domecast.GPaParams(est["alpha"], est["beta"])
    with open(work / "catalog.csv") as fh:
        evolved = parse_catalog(fh).filter_class(CompositionClass.EVOLVED)
    ongoing = evolved.censored
    want = [
        f"{name},evolved,{age},{domecast.plugin_remaining_quantile(p, age, 0.5)}"
        for name, age in zip(evolved.names[ongoing], evolved.duration[ongoing].tolist())
    ]
    assert len(rows) == 3 and rows == want
    # The model curve says which records it fits.
    header, *rows = (work / "model_curve.csv").read_text().splitlines()
    assert header == "class,t,survival"
    assert len(rows) == 200 and {row.split(",")[0] for row in rows} == {"evolved"}


@pytest.mark.parametrize("where", ["file", "under-a-file"])
@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_out_that_cannot_be_a_directory_is_a_usage_error(
    tmp_path, capsys, sim_catalog, where, command
):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker if where == "file" else blocker / "sub"
    args = {
        "simulate": ["simulate", "--n", 10, "--seed", 1],
        "fit": ["fit", sim_catalog],
    }[command]
    capsys.readouterr()
    assert run(args + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {str(out)!r}: ") and "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


def test_chain_sidecar_with_proposal_scales_still_loads(tmp_path, chain_csv):
    # Sidecars written before burn-in's first proposal became a constant
    # carry "proposal_scales": null in their config.
    def quartiles():
        out = tmp_path / f"fc{len(list(tmp_path.glob('fc*')))}"
        assert run(["forecast", "--chain", chain_csv, "--age", 2.0, "--quartiles",
                    "--out", out]) == 0
        return (out / "quartiles.json").read_bytes()

    meta_path = chain_csv.parent / "chain_meta.json"
    want = quartiles()
    meta = json.loads(meta_path.read_text())
    meta["config"]["proposal_scales"] = None
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    chain = domecast.bayes.load_chain(chain_csv, meta_path)
    assert chain.config == domecast.McmcConfig(seed=3, burn_in=200, iterations=1000,
                                               thin=10)
    assert quartiles() == want


def test_option_set_is_pinned():
    # Every option of every subcommand; a change to one shows up here.
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: sorted(
            o for a in p._actions if not isinstance(a, argparse._HelpAction)
            for o in a.option_strings
        )
        for name, p in sub.choices.items()
    }
    sim = ["--alpha", "--beta", "--censoring", "--fraction", "--gamma-alpha",
           "--gamma-beta", "--horizon", "--lambda", "--n", "--out", "--seed"]
    assert got == {
        "fit": ["--class", "--model", "--out"],
        "gof": ["--bins", "--fit", "--out", "--silica"],
        "posterior": ["--burn-in", "--iters", "--model", "--out", "--seed", "--thin"],
        "forecast": ["--age", "--chain", "--days", "--fit", "--grid", "--out",
                     "--quartiles", "--silica"],
        "simulate": sim,
        "recovery": sorted(sim + ["--reps"]),
        "empirical": ["--fit", "--out"],
    }
