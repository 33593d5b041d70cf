"""The traced benchmark wraps domecast functions by module attribute
(``bench/tracing.py`` ``BINDINGS``); a renamed or dropped attribute would
only show as an ``AttributeError`` in a ``--trace 1`` run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_binding_resolves():
    bindings = load_tracing().BINDINGS
    assert bindings
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in bindings
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
