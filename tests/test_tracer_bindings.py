"""The names that the benchmark's tracer wraps stay bound where it looks,
and simulate goes through each gate's wrapped conjugate.

`perfbench/tracing.py` replaces each (module, name) of `MODULE_TARGETS`
and each (class, method) of `METHOD_TARGETS` through the owner's
`__dict__`, so a name that a refactor stops binding there breaks a
traced benchmark run. This test loads that module read-only and checks
every binding, so such a refactor fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

from normsim.engine import (
    AutomorphismGate,
    FourierGate,
    PauliGate,
    QuadraticGate,
    simulate,
)
from test_golden import clifford_z2_8, mixed_moduli

GATE_CLASSES = (FourierGate, AutomorphismGate, QuadraticGate, PauliGate)
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


@pytest.mark.parametrize(
    "circuit", [clifford_z2_8, mixed_moduli], ids=lambda f: f.__name__
)
def test_simulate_calls_each_gate_conjugate_once_per_gate(circuit, monkeypatch):
    """The tracer times each gate kind by wrapping its class's conjugate,
    so simulate must reach every gate through that method, once each and
    in order, on the bit tableau of Z_2^m and on the list tableau alike."""
    coset, gates = circuit()
    assert {type(g) for g in gates} == set(GATE_CLASSES)
    calls = []
    for cls in GATE_CLASSES:

        def counted(gate, target, conjugate=cls.__dict__["conjugate"]):
            calls.append(gate)
            return conjugate(gate, target)

        monkeypatch.setattr(cls, "conjugate", counted)
    simulate(coset, gates)
    assert len(calls) == len(gates)
    assert all(c is g for c, g in zip(calls, gates))
