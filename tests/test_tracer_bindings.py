"""The names that the benchmark's tracer wraps stay bound where it looks.

`perfbench/tracing.py` replaces each (module, name) of `MODULE_TARGETS`
and each (class, method) of `METHOD_TARGETS` through the owner's
`__dict__`, so a name that a refactor stops binding there breaks a
traced benchmark run. This test loads that module read-only and checks
every binding, so such a refactor fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING_PY = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING_PY)
TRACING = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(TRACING)


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _, _ in TRACING.MODULE_TARGETS],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_module_target_is_bound(module, attr):
    assert attr in module.__dict__


@pytest.mark.parametrize(
    "cls, attr",
    [(cls, attr) for cls, attr, _ in TRACING.METHOD_TARGETS],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_method_target_is_bound(cls, attr):
    assert attr in cls.__dict__
