"""Command-line surface: fit, gof, posterior, forecast, simulate,
recovery, empirical.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
All outputs land in --out DIR under fixed names and are written
atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import bayes, fit, forecast, gof, simulate
from .catalog import (
    DAYS_PER_YEAR,
    Catalog,
    CompositionClass,
    parse_catalog,
    serialize_catalog,
    summarize,
)
from .likelihood import MODELS, SILICA_CENTER, RegressionParams
from .pareto import ExpParams, GPaParams, condition_on_age, exp_quantile, quantile, survival

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1.
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class DataError(Exception):
    pass


class UsageError(Exception):
    pass


def _atomic_write(path: str, text: str) -> None:
    with bayes._atomic_open(path) as fh:
        fh.write(text)


def _write_json(path: str, doc: dict) -> None:
    """Write ``doc`` as strict JSON: a NaN or infinite value is a data
    error, and no file is written."""
    try:
        text = json.dumps({"schema": bayes.SCHEMA, **doc}, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DataError(f"{path!r} would hold a non-finite number: {exc}") from None
    _atomic_write(path, text + "\n")


def _load_catalog(path: str) -> Catalog:
    try:
        with open(path) as fh:
            return parse_catalog(fh)
    except OSError as exc:
        raise DataError(f"cannot read catalog {path!r}: {exc}") from exc


# fit.json's model_kind -> its entry of the model table
_FIT_MODELS = {
    **MODELS,
    "grouped": MODELS["aggregate"],
    "grouped-exponential": MODELS["exponential"],
}


def _read_fit_doc(path: str) -> dict:
    """A FitResult JSON file as a dict, the one reader of fit.json.  A
    ``duration_units`` other than ``years`` was written by a ``fit`` that
    read the catalog's durations as days; its estimates are refused."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read fit JSON {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"fit JSON {path!r} is not an object")
    units = doc.get("duration_units", "years")
    if units != "years":
        raise DataError(
            f"fit JSON {path!r} was fitted in duration_units {units!r}; re-fit "
            "from the catalog with its duration column headed duration_days"
        )
    return doc


def _model_from_fit_doc(path: str):
    """(parameters, number fitted, the document) from a FitResult JSON
    file; DataError names the file and the key at fault."""
    doc = _read_fit_doc(path)
    kind = doc.get("model_kind")
    if not isinstance(kind, str) or kind not in _FIT_MODELS:
        raise DataError(f"unsupported model_kind {kind!r} in fit JSON {path!r}")
    model = _FIT_MODELS[kind]
    est = doc.get("estimates", {})
    try:
        return model.cls(*(est[key] for key in model.params)), len(model.params), doc
    except KeyError as exc:
        raise DataError(f"fit JSON {path!r} has no estimate {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"fit JSON {path!r}: {exc}") from None


def _fitted_records(cat: Catalog, doc: dict, path: str) -> Catalog:
    """The records a fit describes: all of ``cat``, or for a grouped fit
    those of the class named by the one ``class=`` note that
    ``fit_grouped`` writes; DataError when that note is missing or names
    no known class."""
    if not doc["model_kind"].startswith("grouped"):
        return cat
    notes = doc.get("notes")
    names = [
        note.split("=", 1)[1]
        for note in (notes if isinstance(notes, list) else [])
        if isinstance(note, str) and note.startswith("class=")
    ]
    try:
        (name,) = names
        return cat.filter_class(CompositionClass(name))
    except ValueError:
        raise DataError(
            f"grouped fit JSON {path!r} names no known class in a 'class=' note"
        ) from None


def _require_silica(regression: bool, silica: Optional[float]) -> None:
    """The one check that --silica is given exactly when a regression fit
    or chain needs it to be pinned; otherwise a usage error."""
    if regression and silica is None:
        raise UsageError("--silica is required for a regression fit or chain")
    if not regression and silica is not None:
        raise UsageError("--silica applies only to a regression fit or chain")


def _pinned(model, silica: Optional[float]):
    """The fitted distribution: a regression fit taken at ``silica``."""
    return model.at_silica(silica) if isinstance(model, RegressionParams) else model


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise DataError(f"bad grid spec {spec!r}; expected LO:HI:N") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DataError(f"bad grid spec {spec!r}; LO and HI must be finite")
    if n < 2 or hi <= lo:
        raise DataError(f"bad grid spec {spec!r}; need HI > LO and N >= 2")
    return np.linspace(lo, hi, n)


def cmd_fit(args) -> int:
    if args.model != "grouped" and (args.comp_class or args.family):
        raise UsageError("--class and --family need --model grouped")
    if args.model == "grouped" and args.comp_class is None:
        raise UsageError("--class is required for the grouped model")
    cat = _load_catalog(args.catalog)
    if args.completed_only:
        cat = cat.completed_only()
    if args.model == "grouped":
        comp_class = CompositionClass(args.comp_class)
        result = fit.fit_grouped(cat, comp_class, family=args.family or "gpa")
    else:
        result = getattr(fit, f"fit_{args.model}")(cat)
    _write_json(os.path.join(args.out, "fit.json"), result.to_dict())
    return EXIT_OK


def cmd_gof(args) -> int:
    """Test a fit against the catalog's completed records; a grouped fit
    only against those of its class."""
    cat = _load_catalog(args.catalog).completed_only()
    model, k_fitted, doc = _model_from_fit_doc(args.fit)
    _require_silica(isinstance(model, RegressionParams), args.silica)
    cat = _fitted_records(cat, doc, args.fit)
    p = _pinned(model, args.silica)
    inverse_cdf = exp_quantile if isinstance(p, ExpParams) else quantile
    report = gof.gof_test(
        cat, lambda q: float(inverse_cdf(p, q)), k_fitted, n_bins=args.bins
    )
    _write_json(os.path.join(args.out, "gof.json"), report.to_dict())
    return EXIT_OK


def cmd_posterior(args) -> int:
    cat = _load_catalog(args.catalog)
    config = bayes.McmcConfig(
        seed=args.seed,
        burn_in=args.burn_in,
        iterations=args.iters,
        thin=args.thin,
    )
    chain = bayes.run_mh(args.model, cat, bayes.PriorSpec(), config)
    csv_path = os.path.join(args.out, "chain.csv")
    meta_path = os.path.join(args.out, "chain_meta.json")
    bayes.save_chain(chain, csv_path, meta_path)
    return EXIT_OK


def cmd_forecast(args) -> int:
    if not (args.quartiles or args.grid):
        raise UsageError("nothing to forecast: give --quartiles, --grid or both")
    s = args.age / DAYS_PER_YEAR if args.days else args.age
    t_grid = _parse_grid(args.grid) if args.grid else None
    quartiles = curve = draw_curves = None
    if args.chain:
        meta_path = os.path.join(os.path.dirname(args.chain) or ".", "chain_meta.json")
        try:
            chain = bayes.load_chain(args.chain, meta_path)
        except OSError as exc:
            raise DataError(f"cannot read chain: {exc}") from exc
        _require_silica(MODELS[chain.model_kind].silica, args.silica)
        if args.quartiles:
            quartiles = forecast.predictive_quartiles(chain, s, args.silica)
        if t_grid is not None:
            c = forecast.predictive_curve(chain, s, args.silica, t_grid)
            curve = [c.mean_probability, c.band_low, c.band_high, c.plug_in_probability]
            draw_curves = c.draw_curves
        meta = {
            "mode": "bayes",
            "age_s": s,
            "model_kind": chain.model_kind,
            "band_level": forecast.BAND_LEVEL,
        }
    else:
        model, _, _ = _model_from_fit_doc(args.fit)
        _require_silica(isinstance(model, RegressionParams), args.silica)
        p = _pinned(model, args.silica)
        if isinstance(p, ExpParams):
            raise DataError("plug-in forecasts require a Pareto-family fit")
        if args.quartiles:
            quartiles = [
                forecast.plugin_remaining_quantile(p, s, q) for q in (0.25, 0.50, 0.75)
            ]
        if t_grid is not None:
            curve = [survival(condition_on_age(p, s), t_grid)] * 4
        meta = {"mode": "plugin", "age_s": s, "band_level": None}
    _write_forecast(args.out, meta, quartiles, t_grid, curve, draw_curves)
    return EXIT_OK


def _write_forecast(out_dir, meta, quartiles, t_grid, curve, draw_curves) -> None:
    """The one writer of forecast outputs: quartiles.json when quartiles
    are given; forecast.csv (columns t and the four of ``curve``: mean,
    low, high, plug_in) with forecast_meta.json when a grid is; and
    forecast_draws.csv when per-draw curves are."""
    if quartiles is not None:
        doc = {key: meta[key] for key in ("mode", "age_s")}
        doc.update(zip(("q25", "q50", "q75"), quartiles))
        _write_json(os.path.join(out_dir, "quartiles.json"), doc)
    if curve is None:
        return
    lines = ["t,mean,low,high,plug_in"]
    lines += (",".join(map(str, row)) for row in zip(t_grid, *curve))
    _atomic_write(os.path.join(out_dir, "forecast.csv"), "\n".join(lines) + "\n")
    _write_json(os.path.join(out_dir, "forecast_meta.json"), meta)
    if draw_curves is not None:
        draw_lines = [",".join(map(str, row)) for row in (t_grid, *draw_curves)]
        _atomic_write(
            os.path.join(out_dir, "forecast_draws.csv"), "\n".join(draw_lines) + "\n"
        )


def _sim_spec_from_args(args) -> simulate.SimSpec:
    """The spec the options give; an option that the others make moot is
    a usage error."""
    for option, rule in (("horizon", "fixed_horizon"), ("fraction", "random_fraction")):
        if getattr(args, option) is not None and args.censoring != rule:
            raise UsageError(f"--{option} applies only to --censoring {rule}")
    if args.lam is not None:
        if (args.gamma_alpha, args.gamma_beta) != (None, None):
            raise UsageError(
                "--gamma-alpha and --gamma-beta do not apply with --lambda"
            )
        model = ExpParams(args.lam)
    elif args.gamma_alpha is not None or args.gamma_beta is not None:
        model = RegressionParams(
            args.alpha, args.beta, args.gamma_alpha or 0.0, args.gamma_beta or 0.0
        )
    else:
        model = GPaParams(args.alpha, args.beta)
    return simulate.SimSpec(
        model=model,
        n=args.n,
        censoring=args.censoring,
        horizon=args.horizon,
        fraction=args.fraction,
        seed=args.seed,
    )


def cmd_simulate(args) -> int:
    spec = _sim_spec_from_args(args)
    cat = simulate.generate(spec)
    _atomic_write(os.path.join(args.out, "catalog.csv"), serialize_catalog(cat))
    return EXIT_OK


def cmd_recovery(args) -> int:
    spec = _sim_spec_from_args(args)
    report = simulate.recovery_study(spec, args.reps)
    _write_json(os.path.join(args.out, "recovery.json"), report.to_dict())
    return EXIT_OK


def cmd_empirical(args) -> int:
    """Emit plain-CSV plotting data: per-class empirical exceedance
    fractions, fitted model curves, and median-shift segments for the
    ongoing records the fit describes (for a grouped fit, those of its
    class).  A refused median shift leaves no file behind."""
    cat = _load_catalog(args.catalog)
    model = None
    if args.fit:
        model, _, doc = _model_from_fit_doc(args.fit)
        fitted = _fitted_records(cat, doc, args.fit)

    lines = ["class,duration,fraction_exceeding"]
    groups = {"all": cat}
    for cls in CompositionClass:
        groups[cls.value] = cat.filter_class(cls)
    for label, group in groups.items():
        durations = np.sort(group.duration).tolist()
        n = len(durations)
        for i, d in enumerate(durations):
            lines.append(f"{label},{d},{(n - i) / n}")

    if model is not None:
        curve_lines = ["t,survival"]
        seg_lines = ["volcano,class,age_s,median_shift"]
        if not isinstance(model, ExpParams):
            t_max = float(cat.duration.max())
            t_grid = np.logspace(-3, np.log10(2 * t_max), 200)
            base = _pinned(model, SILICA_CENTER)
            for t, p in zip(t_grid, survival(base, t_grid)):
                curve_lines.append(f"{t},{p}")
            ongoing = fitted.censored
            for name, comp, age, silica in zip(
                fitted.names[ongoing],
                fitted.comp_class[ongoing],
                fitted.duration[ongoing].tolist(),
                fitted.silica[ongoing].tolist(),
            ):
                if isinstance(model, RegressionParams) and math.isnan(silica):
                    raise DataError(
                        f"record {name!r} lacks silica for regression median shift"
                    )
                p = _pinned(model, silica)
                shift = forecast.plugin_remaining_quantile(p, age, 0.5)
                seg_lines.append(f"{name},{comp.value},{age},{shift}")
        _atomic_write(
            os.path.join(args.out, "model_curve.csv"), "\n".join(curve_lines) + "\n"
        )
        _atomic_write(
            os.path.join(args.out, "segments.csv"), "\n".join(seg_lines) + "\n"
        )
    _atomic_write(os.path.join(args.out, "empirical.csv"), "\n".join(lines) + "\n")
    summary = dataclasses.asdict(summarize(cat))
    _write_json(os.path.join(args.out, "summary.json"), summary)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="domecast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=".", help="output directory (default: .)")

    p_fit = sub.add_parser("fit", help="maximum-likelihood fit")
    p_fit.add_argument("catalog")
    p_fit.add_argument(
        "--model",
        choices=["aggregate", "grouped", "regression"],
        default="aggregate",
    )
    p_fit.add_argument(
        "--class",
        dest="comp_class",
        choices=[c.value for c in CompositionClass],
        help="composition class for the grouped model",
    )
    p_fit.add_argument("--family", choices=["gpa", "exponential"], help="default: gpa")
    p_fit.add_argument(
        "--completed-only", action="store_true", help="drop ongoing records first"
    )
    add_out(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_gof = sub.add_parser("gof", help="chi-square goodness-of-fit test")
    p_gof.add_argument("catalog")
    p_gof.add_argument("--fit", required=True, help="FitResult JSON")
    p_gof.add_argument("--bins", type=int, default=gof.DEFAULT_BINS)
    p_gof.add_argument("--silica", type=float, help="pin a regression fit")
    add_out(p_gof)
    p_gof.set_defaults(func=cmd_gof)

    p_post = sub.add_parser("posterior", help="Metropolis-Hastings posterior chain")
    p_post.add_argument("catalog")
    p_post.add_argument(
        "--model", choices=["aggregate", "regression"], default="aggregate"
    )
    p_post.add_argument("--burn-in", type=int, default=10_000)
    p_post.add_argument("--iters", type=int, default=1_000_000)
    p_post.add_argument("--thin", type=int, default=1_000)
    p_post.add_argument("--seed", type=int, default=0)
    add_out(p_post)
    p_post.set_defaults(func=cmd_posterior)

    p_fc = sub.add_parser("forecast", help="remaining-duration forecast")
    src = p_fc.add_mutually_exclusive_group(required=True)
    src.add_argument("--chain", help="posterior chain CSV (Bayes mode)")
    src.add_argument("--fit", help="FitResult JSON (plug-in mode)")
    p_fc.add_argument("--age", type=float, required=True, help="eruption age s")
    p_fc.add_argument(
        "--days", action="store_true", help="--age is in days, not years"
    )
    p_fc.add_argument("--silica", type=float)
    p_fc.add_argument("--grid", help="time grid LO:HI:N (years)")
    p_fc.add_argument("--quartiles", action="store_true")
    add_out(p_fc)
    p_fc.set_defaults(func=cmd_forecast)

    def add_sim_model(p):
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--beta", type=float, default=1.0)
        p.add_argument("--lambda", dest="lam", type=float, help="exponential rate")
        p.add_argument("--gamma-alpha", type=float)
        p.add_argument("--gamma-beta", type=float)
        p.add_argument("--n", type=int, required=True)
        p.add_argument(
            "--censoring",
            choices=["none", "fixed_horizon", "random_fraction"],
            default="none",
        )
        p.add_argument("--horizon", type=float)
        p.add_argument("--fraction", type=float)
        p.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="generate a synthetic catalog")
    add_sim_model(p_sim)
    add_out(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser("recovery", help="estimator recovery study")
    add_sim_model(p_rec)
    p_rec.add_argument("--reps", type=int, required=True)
    add_out(p_rec)
    p_rec.set_defaults(func=cmd_recovery)

    p_emp = sub.add_parser(
        "empirical", help="empirical exceedance data for external plotting"
    )
    p_emp.add_argument("catalog")
    p_emp.add_argument("--fit", help="FitResult JSON for model curves/segments")
    add_out(p_emp)
    p_emp.set_defaults(func=cmd_empirical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:  # a file there, or no permission to make one
            raise UsageError(f"--out {args.out!r}: {exc.strerror}") from None
        return args.func(args)
    except (UsageError, gof._BinCountError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueError) as exc:
        # CatalogError and bayes.ImproperPosteriorError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (
        fit.FitError,
        fit.HessianError,
        forecast.BracketError,
        bayes.McmcError,
        FloatingPointError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
