"""The library names that bench/tracer.py wraps must exist.

The tracer patches module attributes by name, so a rename in the library
would otherwise surface only when the traced benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
PATCHED = [
    *((module, attr) for module, attr, _, _ in tracer.BOUNDARIES),
    *(("selfcheck", f"check_{name}") for name in tracer.SELFCHECK_CHECKS),
    ("currents", "weights"),
]


@pytest.mark.parametrize("module, attr", PATCHED, ids=[f"{m}.{a}" for m, a in PATCHED])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"thouless_lab.{module}"), attr))
