"""The model table in ``likelihood`` is the one source of per-model facts:
fits, fit files, chain sidecars and recovery reports all follow it, and
``likelihood.model_kernel`` is the one place a likelihood kernel is built."""

import ast
import json
from pathlib import Path

import pytest

from domecast import bayes, fit
from domecast.catalog import CompositionClass
from domecast.cli import _fitted_records, _model_from_fit_doc, main
from domecast.likelihood import MODELS, RegressionParams, model_kernel
from domecast.pareto import ExpParams, GPaParams
from domecast.simulate import SimSpec, generate

SRC = Path(__file__).resolve().parents[1] / "src" / "domecast"
TRUTHS = {
    "aggregate": GPaParams(0.65, 0.7),
    "regression": RegressionParams(0.65, 0.7, 0.05, 0.13),
    "exponential": ExpParams(0.5),
}


@pytest.fixture(scope="module")
def catalog():
    return generate(SimSpec(TRUTHS["regression"], n=300, seed=7))


@pytest.mark.parametrize("comp_class", [None, CompositionClass.INTERMEDIATE])
@pytest.mark.parametrize("kind", list(MODELS))
def test_fit_files_follow_the_table(tmp_path, catalog, kind, comp_class):
    # A class fit is a whole-catalog fit of the class's records; its kind
    # stays a key of the table.
    model = MODELS[kind]
    if comp_class is None:
        result, records = getattr(fit, f"fit_{kind}")(catalog), catalog
    elif model.silica:
        # A simulated class holds one silica value, which leaves the silica
        # coefficients unidentified: a regression fit of it is refused.
        with pytest.raises(ValueError, match="two distinct silica values"):
            fit.fit_grouped(catalog, comp_class, kind)
        return
    else:
        result = fit.fit_grouped(catalog, comp_class, kind)
        records = catalog.filter_class(comp_class)
    assert result.model_kind == kind
    assert tuple(result.estimates) == model.params
    assert tuple(result.standard_errors) == model.params
    assert result.k == len(model.params)
    assert result.n == records.n
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(result.to_dict()))
    params, k, doc = _model_from_fit_doc(str(path))
    assert doc["model_kind"] == kind
    assert params == model.cls(*result.estimates.values())
    assert k == len(model.params)
    label, fitted = _fitted_records(catalog, doc, str(path))
    assert label == ("all" if comp_class is None else comp_class.value)
    assert fitted.names.tolist() == records.names.tolist()


@pytest.mark.parametrize("kind", [k for k, m in MODELS.items() if m.theta])
def test_chain_sidecar_follows_the_table(tmp_path, catalog, kind):
    config = bayes.McmcConfig(seed=1, burn_in=500, iterations=1000, thin=10)
    chain = bayes.run_mh(kind, catalog, bayes.PriorSpec(), config)
    assert chain.param_names == MODELS[kind].params
    csv_path, meta_path = tmp_path / "chain.csv", tmp_path / "chain_meta.json"
    bayes.save_chain(chain, csv_path, meta_path)
    meta = json.loads(meta_path.read_text())
    assert meta["proposal"]["coordinates"] == list(MODELS[kind].theta)
    assert csv_path.read_text().splitlines()[0] == ",".join(MODELS[kind].params)
    assert bayes.load_chain(csv_path, meta_path).param_names == MODELS[kind].params


@pytest.mark.parametrize(
    "kind,flags",
    [
        ("aggregate", ["--alpha", 0.65, "--beta", 0.7]),
        ("exponential", ["--lambda", 0.5]),
        ("regression", ["--alpha", 0.65, "--beta", 0.7, "--gamma-alpha", 0.05,
                        "--gamma-beta", 0.13]),
    ],
)
def test_recovery_report_follows_the_table(tmp_path, kind, flags):
    argv = ["recovery", *flags, "--n", 150, "--reps", 10, "--seed", 3, "--out", tmp_path]
    assert main([str(a) for a in argv]) == 0
    report = json.loads((tmp_path / "recovery.json").read_text())
    assert report["parameters"] == list(MODELS[kind].params)
    assert list(report["truth"]) == list(MODELS[kind].params)


@pytest.mark.parametrize("kind", list(MODELS))
def test_model_kernel_follows_the_table(catalog, kind):
    model = MODELS[kind]
    if not model.theta:
        with pytest.raises(ValueError, match=f"unknown model_kind '{kind}'"):
            model_kernel(kind, catalog)
        return
    # alpha is profiled out by the fits and drawn exactly by the sampler
    assert model.params[:2] == ("alpha", "beta")
    assert model.theta == ("log_beta", *model.params[2:])
    assert (model_kernel(kind, catalog).dx is not None) == model.silica


class _Calls(ast.NodeVisitor):
    """The enclosing ``Class.function`` of every call of ``name``."""

    def __init__(self, name):
        self.name, self.scope, self.callers = name, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == self.name:
            self.callers.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def _callers(name):
    """(file, enclosing scope) of every call of ``name`` in ``src/``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        calls = _Calls(name)
        calls.visit(ast.parse(path.read_text()))
        found += [(path.name, caller) for caller in calls.callers]
    return found


def test_kernel_is_built_only_by_model_kernel():
    assert _callers("_Kernel") == [("likelihood.py", "model_kernel")]


def test_catalogs_are_built_only_by_their_constructor():
    # EruptionRecord rows exist only in the records view; a Catalog is
    # made only by Catalog(...), directly or through dataclasses.replace,
    # never by __new__ or a Catalog.<attribute> classmethod.
    assert _callers("EruptionRecord") == [("catalog.py", "Catalog.records")]
    assert _callers("Catalog") == [("catalog.py", "parse_catalog"),
                                   ("simulate.py", "generate")]
    detours = [
        (path.name, ast.unparse(node))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and (node.attr == "__new__" or getattr(node.value, "id", None) == "Catalog")
    ]
    assert detours == []
