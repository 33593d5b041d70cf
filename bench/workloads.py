"""The three benchmark workloads.

Each workload is a closed loop with one caller: a pass runs its steps in
order, each waiting for the one before, and the next pass starts when the
last step has returned.  ``setup()`` makes every input from the seed;
domecast sees only those inputs.  A step that raises, exits non-zero or
fails its output check counts as failed, and the run goes on.

Why each workload exists:

* ``posterior_177`` -- the paper's Bayes path on a 177-record silica
  catalog: MH chains for the aggregate and regression models, chain files
  written and read back, predictive forecasts.  MH stepping at small n is
  most of its time, so sampler changes and per-call kernel overhead show
  here.  Regression-chain ESS is seed-sensitive: a claim on it must also
  hold on a second seed.
* ``recovery_10k`` -- recovery replications on 10 000-record catalogs:
  simulate, then fit.  Large-n array throughput in ``likelihood``,
  optimizer evaluations in ``fit`` and record construction in
  ``simulate`` dominate; the sampler does nothing.
* ``cli_session`` -- the README workflow, one ``python -m domecast.cli``
  process per command.  Interpreter start and ``import domecast`` are most
  of each command, so import cost and CSV/JSON I/O show and kernels
  barely register.

The generating parameters are the paper's fits, used as given.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import traceback

import numpy as np

from ess import bulk_ess
from hostspeed import HostSpeed

GPA_TRUTH = (0.6487, 0.7018)  # alpha, beta
REG_TRUTH = (0.6923, 0.7915, 0.0447, 0.1302)  # alpha, beta, gamma_alpha, gamma_beta
CENSORED_SHARE = 14 / 177  # n1 = 163 of 177
HORIZON_YR = 130.0  # fixed-horizon censoring leaves about 8% ongoing
AGE_YR = 19.7  # Soufriere Hills, ongoing since 1995
SILICA_PCT = 58.2
T_GRID = np.linspace(0.0, 300.0, 100)
Z_MAX = 5.0  # criterion 4: |estimate - truth| / SE


def derive_seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def catalog_digest(cat) -> str:
    """sha256 of the catalog's durations, censoring flags and silica."""
    rows = np.array(
        [
            (r.duration, r.censored, math.nan if r.silica_pct is None else r.silica_pct)
            for r in cat.records
        ],
        dtype=float,
    )
    return hashlib.sha256(rows.tobytes()).hexdigest()


class Workload:
    """Common bookkeeping: steps attempted and failed, with reasons."""

    name = ""
    params: dict = {}
    tracer = None  # set while a traced pass runs
    cycle = 1  # passes that run every input once; a run stops only after whole cycles
    setups = 1  # set-up trials before each pass

    def __init__(self, seed: int, workdir: str, env: dict):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.attempted = 0
        self.failures: list[str] = []
        self.passes: list[dict] = []
        self.digests: list[str] = []
        self.speed = HostSpeed()

    def step(self, label: str, fn, *args):
        """Run one step; return its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # counted and reported, never dropped
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        """An output check is an op of its own."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: check failed {detail}")
        return ok

    def timed(self, label: str, timings: dict, fn, *args):
        """A step whose seconds go into ``timings``; the host-speed kernel
        runs after it, outside the timing."""
        t0 = time.perf_counter()
        result = self.step(label, fn, *args)
        timings[label] = time.perf_counter() - t0
        self.speed.sample(timings[label])
        return result


class Posterior177(Workload):
    name = "posterior_177"
    params = {
        "n": 177,
        "catalogs": 4,
        "censoring": "random_fraction",
        "fraction": CENSORED_SHARE,
        "truth": dict(zip(("alpha", "beta", "gamma_alpha", "gamma_beta"), REG_TRUTH)),
        "aggregate_chain": {"burn_in": 2_000, "iterations": 20_000, "thin": 1},
        "regression_chain": {"burn_in": 3_000, "iterations": 30_000, "thin": 1},
        "age_yr": AGE_YR,
        "silica_pct": SILICA_PCT,
        "grid": [float(T_GRID[0]), float(T_GRID[-1]), T_GRID.size],
    }

    cycle = params["catalogs"]

    def setup(self):
        from domecast import catalog, likelihood, simulate

        truth = likelihood.RegressionParams(*REG_TRUTH)
        self.csv_texts = []
        self.digests = []
        for k in range(self.params["catalogs"]):
            spec = simulate.SimSpec(
                truth,
                n=self.params["n"],
                censoring="random_fraction",
                fraction=CENSORED_SHARE,
                seed=derive_seed(self.seed, 1, k),
            )
            cat = simulate.generate(spec)
            self.csv_texts.append(catalog.serialize_catalog(cat))
            self.digests.append(catalog_digest(cat))

    def run_pass(self, i: int) -> dict:
        from domecast import bayes, catalog, forecast

        timings, ess = {}, {}
        k = i % self.cycle  # so every cycle repeats the same chains
        cat = self.timed("parse", timings, catalog.parse_catalog, self.csv_texts[k])
        if cat is None:
            return {"timings": timings, "ess": ess}
        for m, (kind, silica) in enumerate((("aggregate", None), ("regression", SILICA_PCT))):
            tag = kind[:3]
            cfg = bayes.McmcConfig(
                seed=derive_seed(self.seed, 2, k, m),
                **self.params[f"{kind}_chain"],
            )
            chain = self.timed(
                f"{tag}.mh", timings, bayes.run_mh, kind, cat, bayes.PriorSpec(), cfg
            )
            if chain is None:
                continue
            paths = (
                os.path.join(self.workdir, f"{tag}_chain.csv"),
                os.path.join(self.workdir, f"{tag}_meta.json"),
            )
            self.timed(f"{tag}.save", timings, bayes.save_chain, chain, *paths)
            loaded = self.timed(f"{tag}.load", timings, bayes.load_chain, *paths)
            if loaded is None:
                continue
            self.check(
                f"{tag}.roundtrip",
                loaded.param_names == chain.param_names
                and np.array_equal(loaded.draws, chain.draws),
            )
            curve = self.timed(
                f"{tag}.curve",
                timings,
                forecast.predictive_curve,
                loaded,
                AGE_YR,
                silica,
                T_GRID,
            )
            quartiles = self.timed(
                f"{tag}.quartiles",
                timings,
                forecast.predictive_quartiles,
                loaded,
                AGE_YR,
                silica,
            )
            if curve is not None:
                p = curve.mean_probability
                self.check(
                    f"{tag}.curve",
                    bool(np.all((p >= 0) & (p <= 1)) and np.all(np.diff(p) <= 0)),
                    "mean exceedance outside [0, 1] or rising",
                )
            if quartiles is not None:
                self.check(
                    f"{tag}.quartiles",
                    all(map(math.isfinite, quartiles))
                    and quartiles[0] < quartiles[1] < quartiles[2],
                    str(quartiles),
                )
            ess[tag] = min(bulk_ess(column) for column in chain.draws.T)
        return {"timings": timings, "ess": ess}

    def probe_catalog(self):
        from domecast import catalog

        return catalog.parse_catalog(self.csv_texts[0])

    def summary(self) -> dict:
        def ess_per_s(tag):
            done = [p for p in self.passes if tag in p["ess"]]
            seconds = sum(p["timings"][f"{tag}.mh"] for p in done)
            return sum(p["ess"][tag] for p in done) / seconds if seconds else math.nan

        forecast_s = [
            sum(t for k, t in p["timings"].items() if k.endswith(("curve", "quartiles")))
            for p in self.passes
        ]
        return {
            "agg.ess_per_s": (ess_per_s("agg"), "1/s"),
            "reg.ess_per_s": (ess_per_s("reg"), "1/s"),
            "forecast_s": (float(np.median(forecast_s)), "s"),
        }


class Recovery10k(Workload):
    name = "recovery_10k"
    params = {
        "n": 10_000,
        "censoring": "fixed_horizon",
        "horizon_yr": HORIZON_YR,
        "aggregate_truth": dict(zip(("alpha", "beta"), GPA_TRUTH)),
        "regression_truth": dict(
            zip(("alpha", "beta", "gamma_alpha", "gamma_beta"), REG_TRUTH)
        ),
        "aggregate_reps_per_pass": 6,  # then one regression replication
        "z_max": Z_MAX,
    }
    setups = 2

    def setup(self):
        from domecast import likelihood, pareto

        self.models = {
            "agg": pareto.GPaParams(*GPA_TRUTH),
            "reg": likelihood.RegressionParams(*REG_TRUTH),
        }

    def spec(self, tag: str, i: int):
        from domecast import simulate

        return simulate.SimSpec(
            self.models[tag],
            n=self.params["n"],
            censoring="fixed_horizon",
            horizon=HORIZON_YR,
            seed=derive_seed(self.seed, 1 if tag == "agg" else 2, i),
        )

    def _rep(self, label: str, tag: str, i: int, fit_fn, timings: dict):
        from domecast import simulate

        cat = self.timed(f"{label}.generate", timings, simulate.generate, self.spec(tag, i))
        if cat is None:
            return
        self.digests.append(catalog_digest(cat))
        result = self.timed(f"{label}.fit", timings, fit_fn, cat)
        if result is None:
            return
        model = self.models[tag]
        truth = {k: getattr(model, k) for k in result.estimates}
        se = result.standard_errors
        if self.check(f"{label}.se", se is not None, "no standard errors"):
            z = max(abs(result.estimates[k] - v) / se[k] for k, v in truth.items())
            self.check(f"{label}.z", z <= Z_MAX, f"|est - truth|/SE = {z:.2f}")

    def run_pass(self, i: int) -> dict:
        from domecast import fit

        timings = {}
        k = self.params["aggregate_reps_per_pass"]
        for j in range(k):
            self._rep(f"agg{j}", "agg", i * k + j, fit.fit_aggregate, timings)
        self._rep("reg", "reg", i, fit.fit_regression, timings)
        return {"timings": timings}

    def probe_catalog(self):
        from domecast import simulate

        return simulate.generate(self.spec("reg", 0))

    def summary(self) -> dict:
        agg = [t for p in self.passes for k, t in p["timings"].items() if k.startswith("agg")]
        reps = sum(1 for p in self.passes for k in p["timings"] if k.endswith(".fit") and k.startswith("agg"))
        reg_fit = [p["timings"]["reg.fit"] for p in self.passes if "reg.fit" in p["timings"]]
        return {
            "reps_per_s": (reps / sum(agg), "1/s"),
            "reg_fit_s": (float(np.median(reg_fit)), "s"),
        }


class CommandError(RuntimeError):
    """A CLI command exited non-zero."""


class CliSession(Workload):
    name = "cli_session"
    params = {
        "n": 177,
        "censoring": "random_fraction",
        "fraction": CENSORED_SHARE,
        "truth": dict(zip(("alpha", "beta", "gamma_alpha", "gamma_beta"), REG_TRUTH)),
        "posterior": {"burn_in": 1_000, "iters": 10_000, "thin": 10},
        "age_yr": AGE_YR,
        "grid": "0:300:100",
    }
    # Traced runs call cli.main in-process so spans see inside each command.
    in_process = False
    setups = 2
    # Columns of the CLI's CSV outputs that hold text; every other cell
    # must be a finite number, and only silica may be missing.
    TEXT_COLUMNS = {"volcano", "status", "class"}
    OPTIONAL_COLUMNS = {"silica_pct"}

    def setup(self):
        pass

    def commands(self, i: int, out: str) -> list[tuple[str, list[str], list[str]]]:
        """(label, argv, output files to check) for session ``i``."""
        cat = os.path.join(out, "catalog.csv")
        agg, reg, post, emp = (os.path.join(out, d) for d in ("agg", "reg", "post", "emp"))
        a, b, ga, gb = (repr(v) for v in REG_TRUTH)
        mcmc = self.params["posterior"]
        age = ["--age", repr(AGE_YR), "--quartiles", "--grid", self.params["grid"]]
        return [
            ("simulate",
             ["simulate", "--alpha", a, "--beta", b, "--gamma-alpha", ga, "--gamma-beta", gb,
              "--n", str(self.params["n"]), "--censoring", "random_fraction",
              "--fraction", repr(CENSORED_SHARE), "--seed", str(derive_seed(self.seed, 3, i)),
              "--out", out],
             [cat]),
            ("fit", ["fit", cat, "--out", agg], [f"{agg}/fit.json"]),
            ("gof", ["gof", cat, "--fit", f"{agg}/fit.json", "--out", agg], [f"{agg}/gof.json"]),
            ("forecast_fit", ["forecast", "--fit", f"{agg}/fit.json", *age, "--out", agg],
             [f"{agg}/quartiles.json", f"{agg}/forecast.csv"]),
            ("fit_regression", ["fit", cat, "--model", "regression", "--out", reg],
             [f"{reg}/fit.json"]),
            ("posterior",
             ["posterior", cat, "--burn-in", str(mcmc["burn_in"]), "--iters", str(mcmc["iters"]),
              "--thin", str(mcmc["thin"]), "--seed", str(derive_seed(self.seed, 4, i)),
              "--out", post],
             [f"{post}/chain_meta.json", f"{post}/chain.csv"]),
            ("forecast_chain", ["forecast", "--chain", f"{post}/chain.csv", *age, "--out", post],
             [f"{post}/quartiles.json", f"{post}/forecast.csv"]),
            ("empirical", ["empirical", cat, "--fit", f"{agg}/fit.json", "--out", emp],
             [f"{emp}/summary.json", f"{emp}/empirical.csv"]),
        ]

    def _run_command(self, label: str, argv: list[str]) -> None:
        if self.in_process:
            from domecast import cli

            if self.tracer is not None:
                code = self.tracer.span(f"cli.{label}", cli.main, argv)
            else:
                code = cli.main(argv)
            err = ""
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "domecast.cli", *argv],
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            code, err = proc.returncode, proc.stderr.strip()
        if code != 0:
            raise CommandError(f"exit {code}: {err}")

    def _check_output(self, label: str, path: str) -> None:
        with open(path, newline="") as fh:
            if path.endswith(".json"):
                doc = json.load(fh)
                self.check(label, doc.get("schema") == "domecast/v1", f"{path}: schema")
                if "q50" in doc:
                    q = (doc["q25"], doc["q50"], doc["q75"])
                    self.check(label, all(map(math.isfinite, q)) and q[0] < q[1] < q[2], str(q))
                return
            rows = list(csv.reader(fh))
        self.check(
            label,
            len(rows) > 1
            and all(len(r) == len(rows[0]) for r in rows)
            and all(self._finite_row(rows[0], r) for r in rows[1:]),
            f"{path}: empty, ragged or non-finite CSV",
        )

    def _finite_row(self, header: list[str], row: list[str]) -> bool:
        for column, cell in zip(header, row):
            if column in self.TEXT_COLUMNS or (not cell and column in self.OPTIONAL_COLUMNS):
                continue
            try:
                if not math.isfinite(float(cell)):
                    return False
            except ValueError:
                return False
        return True

    def run_pass(self, i: int) -> dict:
        out = os.path.join(self.workdir, f"session{i}")
        timings = {}
        for label, argv, outputs in self.commands(i, out):
            failed = len(self.failures)
            self.timed(label, timings, self._run_command, label, argv)
            if len(self.failures) == failed:
                for path in outputs:
                    self.step(f"{label}.output", self._check_output, label, path)
        with open(os.path.join(out, "catalog.csv"), "rb") as fh:
            self.digests.append(hashlib.sha256(fh.read()).hexdigest())
        return {"timings": timings}

    def probe_catalog(self):
        from domecast import catalog

        with open(os.path.join(self.workdir, "session0", "catalog.csv")) as fh:
            return catalog.parse_catalog(fh.read())

    def summary(self) -> dict:
        if self.in_process:  # command bodies without interpreter start
            per_label = {}
            for p in self.passes:
                for label, t in p["timings"].items():
                    per_label.setdefault(label, []).append(t)
            return {f"cli.{k}_s": (float(np.median(v)), "s") for k, v in per_label.items()}
        per_command = [t for p in self.passes for t in p["timings"].values()]
        return {"cli_p50_s": (float(np.median(per_command)), "s")}


WORKLOADS = {w.name: w for w in (Posterior177, Recovery10k, CliSession)}
