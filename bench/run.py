#!/usr/bin/env python3
"""Benchmark for domecast: one workload per run, one process, one thread.

    python3 bench/run.py --workload posterior_177 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports domecast from
``src/``.  The workload repeats its pass (see ``workloads.py``) until
``--seconds`` have gone, checking every output.  It prints one line per
metric with its unit, then a JSON report line with provenance and
failures, then the result line
``{"correct", "attempted", "failed", "metrics"}``.

Clock metrics are at reference host speed: a fixed kernel runs after
every timed step and rescales it (``hostspeed.py``), since the shared
host's speed swings in spells.  With ``--trace 0`` the metrics are the
end-to-end ones.  With
``--trace 1`` one pass of each pair on the same inputs is traced: a span is recorded at each call
into a layer's public functions (``tracing.py``), and the metrics are
per-layer.  Spans are written to ``.bench_out/`` when the run ends.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ess import bulk_ess
from tracing import Tracer, self_times
from workloads import AGE_YR, GPA_TRUTH, SILICA_PCT, T_GRID, WORKLOADS, derive_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_TRIALS = 5  # cli.import_s is the median of this many fresh imports
NLLH_CALLS = 200
# Long enough a burn-in for the proposal scales to adapt at n = 10 000.
PROBE_CHAIN = {"burn_in": 3_000, "iterations": 2_000, "thin": 1}


def import_seconds(module: str, env: dict) -> float:
    """Time to import ``module`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(proc.stdout)


def setup_trial(workload, env: dict, tracer) -> tuple[float, float]:
    """One set-up: a fresh import plus input generation.

    Returns its seconds, raw and at reference host speed."""
    module = "domecast.cli" if workload.name == "cli_session" else "domecast"
    imported = import_seconds(module, env)
    with tracer.active() if tracer else contextlib.nullcontext():
        if tracer:
            tracer.op = "setup"
        t0 = time.perf_counter()
        workload.setup()
        seconds = imported + time.perf_counter() - t0
    mark = workload.speed.mark()
    workload.speed.sample(seconds)
    return seconds, seconds * workload.speed.factor_since(mark)


def run_passes(workload, seconds: float, tracer, env: dict) -> tuple[list, list]:
    """Closed loop of whole cycles until the deadline.

    A cycle runs each of the workload's inputs once (twice when tracing:
    traced and untraced, in alternating order from pair to pair, so the
    difference is the overhead and not an order effect).  The loop stops
    only at the end of a cycle, so a seed always measures the same set of
    inputs and chains whatever the host's speed.  ``workload.setups``
    set-up trials run before each pass, spread over the run like the
    passes; they are not part of any pass.

    Returns (traced, raw wall, calibrated wall) per pass and the set-up
    trials' (raw, calibrated) seconds; calibrated seconds are at reference
    host speed (``hostspeed.py``), from the kernel chunks run in that pass
    or trial."""
    walls, setups = [], []
    cycle = workload.cycle * (2 if tracer is not None else 1)
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or i % cycle or time.perf_counter() < deadline:
        for _ in range(workload.setups):
            setups.append(setup_trial(workload, env, tracer))
        traced = tracer is not None and i % 2 == (i // 2) % 2
        index = i // 2 if tracer is not None else i
        workload.tracer = tracer if traced else None
        mark = workload.speed.mark()
        with tracer.active() if traced else contextlib.nullcontext():
            if traced:
                tracer.op = f"pass{index}"
            result = workload.run_pass(index)
        workload.passes.append(result)
        wall = sum(result["timings"].values())
        walls.append((traced, wall, wall * workload.speed.factor_since(mark)))
        i += 1
    workload.tracer = None
    return walls, setups


def run_probes(workload, tracer) -> None:
    """Call every traced layer once on the workload's own catalog, so each
    per-layer metric exists on every workload.  Metrics use these spans
    only where the workload's passes made none of that name."""
    from domecast import bayes, catalog, fit, forecast, gof, likelihood, pareto, simulate

    def probe():
        cat = workload.probe_catalog()
        truth = pareto.GPaParams(*GPA_TRUTH)
        for _ in range(NLLH_CALLS):
            likelihood.nllh_aggregate(cat, truth)
        catalog.parse_catalog(catalog.serialize_catalog(cat))
        est = fit.fit_aggregate(cat).estimates
        fitted = pareto.GPaParams(est["alpha"], est["beta"])
        gof.gof_test(cat.completed_only(), lambda q: float(pareto.quantile(fitted, q)), 2)
        fit.fit_regression(cat)
        paths = [os.path.join(workload.workdir, f"probe{k}") for k in range(2)]
        for m, kind in enumerate(("aggregate", "regression")):
            cfg = bayes.McmcConfig(seed=derive_seed(workload.seed, 5, m), **PROBE_CHAIN)
            chain = bayes.run_mh(kind, cat, bayes.PriorSpec(), cfg)
        bayes.save_chain(chain, *paths)
        loaded = bayes.load_chain(*paths)
        forecast.predictive_curve(loaded, AGE_YR, SILICA_PCT, T_GRID)
        forecast.predictive_quartiles(loaded, AGE_YR, SILICA_PCT)
        simulate.generate(simulate.SimSpec(truth, n=cat.n, seed=derive_seed(workload.seed, 6)))

    tracer.op = "probe"
    with tracer.active():
        workload.step("probe", probe)


def per_layer_metrics(tracer, walls, cli_import_s: float) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    ess_cache = {}

    def pick(name, model=None):
        """(span, self time) pairs, from the passes if any, else the probe."""
        chosen = [
            (s, own[k])
            for k, s in enumerate(spans)
            if s.name == name and (model is None or s.attrs.get("model") == model)
        ]
        return [c for c in chosen if c[0].op != "probe"] or chosen

    def median_s(name):
        return statistics.median(s.duration for s, _ in pick(name))

    def ess_min(chain):
        if id(chain) not in ess_cache:
            ess_cache[id(chain)] = min(bulk_ess(col) for col in chain.draws.T)
        return ess_cache[id(chain)]

    m = {}
    for tag, model in (("agg", "aggregate"), ("reg", "regression")):
        runs = pick("bayes.run_mh", model)
        steps = sum(s.attrs["steps"] for s, _ in runs)
        first = runs[0][0].attrs["chain"]
        m[f"bayes.{tag}.us_per_step"] = (1e6 * sum(o for _, o in runs) / steps, "us")
        m[f"bayes.{tag}.ess_per_s"] = (
            sum(ess_min(s.attrs["chain"]) for s, _ in runs) / sum(s.duration for s, _ in runs),
            "1/s",
        )
        m[f"bayes.{tag}.ess_min"] = (ess_min(first), "count")
        m[f"bayes.{tag}.acceptance"] = (first.acceptance_rate, "ratio")
    m["likelihood.nllh_us"] = (1e6 * statistics.median(o for _, o in pick("likelihood.nllh")), "us")
    m["likelihood.arrays_us"] = (1e6 * median_s("likelihood.arrays"), "us")
    for kind in ("aggregate", "regression"):
        m[f"fit.{kind}_s"] = (median_s(f"fit.{kind}"), "s")
        m[f"fit.{kind}_nfev"] = (pick(f"fit.{kind}")[0][0].attrs["nfev"], "count")
    for name in (
        "simulate.generate",
        "catalog.parse",
        "catalog.serialize",
        "gof.test",
        "bayes.save",
        "bayes.load",
        "forecast.curve",
        "forecast.quartiles",
    ):
        m[f"{name}_s"] = (median_s(name), "s")
    m["cli.import_s"] = (cli_import_s, "s")
    pairs = [sorted(pair, reverse=True) for pair in zip(walls[0::2], walls[1::2])]
    overhead = statistics.median(traced[2] - plain[2] for traced, plain in pairs)
    m["trace.overhead_s"] = (overhead, "s")
    return m


def layer_table(tracer) -> dict:
    """Self time and calls per layer over the traced passes."""
    table = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span.op == "probe":
            continue
        row = table.setdefault(span.name.split(".")[0], {"self_s": 0.0, "calls": 0})
        row["self_s"] += own
        row["calls"] += 1
    return table


def provenance(workload, args) -> dict:
    import numpy
    import scipy

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_params": workload.params,
        "input_sha256": workload.digests,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "domecast" / "__init__.py").is_file():
        print(f"error: no domecast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work")
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, env)
        import domecast  # noqa: F401  (untimed; set-up is timed in fresh processes)

        tracer = Tracer() if args.trace else None
        if args.workload == "cli_session":
            workload.in_process = bool(args.trace)
        walls, setups = run_passes(workload, args.seconds, tracer, env)
        summary = workload.summary()
        children = args.workload == "cli_session" and not args.trace
        who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

        if tracer:
            run_probes(workload, tracer)
            cli_import_s = statistics.median(
                import_seconds("domecast.cli", env) for _ in range(SETUP_TRIALS)
            )
            metrics = per_layer_metrics(tracer, walls, cli_import_s)
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            metrics = {
                "setup_s": (statistics.median(c for _, c in setups), "s"),
                "wall_s": (statistics.fmean(c for _, _, c in walls), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(workload.failures)
    extra = {
        "passes": (len(walls), "count"),
        "setup_trials": (len(setups), "count"),
        "setup_raw_s": (statistics.median(r for r, _ in setups), "s"),
        "wall_raw_s": (statistics.fmean(r for _, r, _ in walls), "s"),
        "host_factor": (workload.speed.factor_since((0.0, 0)), "ratio"),
        "fail_ratio": (failed / workload.attempted, "ratio"),
        **summary,
    }
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    report = {
        "workload": args.workload,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "pass_timings": [p["timings"] for p in workload.passes],
        "pass_walls": [{"traced": t, "raw_s": r, "calibrated_s": c} for t, r, c in walls],
        "layers": layer_table(tracer) if tracer else None,
        "failures": workload.failures[:20],
        "provenance": provenance(workload, args),
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": workload.attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
