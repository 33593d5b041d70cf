"""The benchmark reaches domecast from outside the package.

The traced benchmark wraps domecast functions by module attribute
(``bench/tracing.py`` ``BINDINGS``); a renamed or dropped attribute would
only show as an ``AttributeError`` in a ``--trace 1`` run, and so would
one that only the traced probe (``bench/run.py``) calls.  Each
workload's ``setup()`` and ``catalog_digest`` (``bench/workloads.py``)
run outside the steps whose failures the benchmark counts, so an
exception in them ends the run."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from domecast import catalog, simulate
from domecast.catalog import CompositionClass

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_binding_resolves():
    bindings = load_bench("tracing").BINDINGS
    assert bindings
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in bindings
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def domecast_attributes(path):
    """Every ``<module>.<attr>`` in the file whose ``<module>`` it imports
    by ``from domecast import <module>``."""
    tree = ast.parse(path.read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "domecast"
        for alias in node.names
    }
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def test_every_domecast_attribute_the_benchmark_uses_resolves():
    for name in ("run", "workloads"):
        used = domecast_attributes(BENCH / f"{name}.py")
        assert used, name
        missing = [
            f"domecast.{module}.{attr}"
            for module, attr in sorted(used)
            if not hasattr(importlib.import_module(f"domecast.{module}"), attr)
        ]
        assert missing == [], name


def test_workload_setup_and_catalog_digests_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports ess and hostspeed
    workloads = load_bench("workloads")
    runs = {
        name: cls(seed=1, workdir=str(tmp_path), env={})
        for name, cls in workloads.WORKLOADS.items()
    }
    for run in runs.values():
        run.setup()

    posterior = runs["posterior_177"]
    assert len(posterior.digests) == posterior.params["catalogs"]
    recovery = runs["recovery_10k"]
    generated = simulate.generate(recovery.spec("reg", 0))
    parsed = catalog.parse_catalog(catalog.serialize_catalog(generated))
    filtered = parsed.filter_class(CompositionClass.EVOLVED)
    digests = [workloads.catalog_digest(c) for c in (generated, parsed, filtered)]
    assert digests[0] == digests[1] != digests[2]
