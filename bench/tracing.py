"""Span tracing of domecast's layers, from outside the package.

A span is recorded at every call into one of the public functions listed
in ``BINDINGS``.  Wrappers replace the module attributes through which
domecast's own modules, its CLI and the benchmark reach those functions,
so nested calls (``run_mh`` fitting its start point, ``fit_regression``
calling ``fit_aggregate``) become child spans.  Spans stay in memory and
are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "self_times"]


def _fit_attrs(result, args, kwargs):
    return {"nfev": result.iterations}


def _chain_attrs(result, args, kwargs):
    config = args[3] if len(args) > 3 else kwargs["config"]
    return {
        "model": result.model_kind,
        "steps": config.burn_in + config.iterations,
        "acceptance": result.acceptance_rate,
        "chain": result,  # kept in memory for ESS, not written out
    }


def _arrays_attrs(result, args, kwargs):
    return {"n": len(result[0])}


# (module, attribute, span name, attrs from (result, args, kwargs)).  A
# function imported by name into several modules is bound once per module.
BINDINGS = (
    ("domecast.catalog", "parse_catalog", "catalog.parse", None),
    ("domecast.cli", "parse_catalog", "catalog.parse", None),
    ("domecast.catalog", "serialize_catalog", "catalog.serialize", None),
    ("domecast.likelihood", "catalog_arrays", "likelihood.arrays", _arrays_attrs),
    ("domecast.fit", "catalog_arrays", "likelihood.arrays", _arrays_attrs),
    ("domecast.bayes", "catalog_arrays", "likelihood.arrays", _arrays_attrs),
    ("domecast.likelihood", "nllh_aggregate", "likelihood.nllh", None),
    ("domecast.fit", "fit_aggregate", "fit.aggregate", _fit_attrs),
    ("domecast.fit", "fit_regression", "fit.regression", _fit_attrs),
    ("domecast.gof", "gof_test", "gof.test", None),
    ("domecast.bayes", "run_mh", "bayes.run_mh", _chain_attrs),
    ("domecast.bayes", "save_chain", "bayes.save", None),
    ("domecast.bayes", "load_chain", "bayes.load", None),
    ("domecast.forecast", "predictive_curve", "forecast.curve", None),
    ("domecast.forecast", "predictive_quartiles", "forecast.quartiles", None),
    ("domecast.forecast", "plugin_remaining_quantile", "forecast.plugin", None),
    ("domecast.simulate", "generate", "simulate.generate", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while ``active()``; inactive, nothing is wrapped."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = ""

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._call(name, fn, None, args, kwargs)

    def _call(self, name, fn, attrs_fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent=parent, op=self.op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if attrs_fn is not None:
            span.attrs = attrs_fn(result, args, kwargs)
        return result

    def _wrap(self, name, fn, attrs_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, attrs_fn, args, kwargs)

        return wrapper

    @contextlib.contextmanager
    def active(self):
        saved = []
        wrapped = {}
        try:
            for module_name, attr, name, attrs_fn in BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if original not in wrapped:
                    wrapped[original] = self._wrap(name, original, attrs_fn)
                setattr(module, attr, wrapped[original])
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        def plain(value):
            return isinstance(value, (int, float, str, bool)) or value is None

        doc = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "attrs": {k: v for k, v in s.attrs.items() if plain(v)},
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own
