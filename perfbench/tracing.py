"""Per-module spans for the traced run, recorded from outside the program.

The traced run replaces normsim's public names with timing wrappers
where they are *bound*, not where they are defined: `engine` does
`from .homs import auto_inverse`, so the wrapper goes on
`normsim.engine.auto_inverse`. Class methods (`EndoMatrix.apply`, each
gate's `conjugate`) are wrapped on the class. `GroupElement`
constructions are counted, not timed. Untraced runs install nothing.

A span is [name, start, end, parent, circuit, root, elements, info]:
`parent` is the index of the enclosing span (-1 for a root), `root` the
name of the benchmark-level span it runs under ("solve", "sample" or
"verify"), `elements` the GroupElements built inside it and `info`
whatever the wrapper read from the call's arguments and return value.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import normsim.circuits as circuits
import normsim.engine as engine
import normsim.homs as homs
from normsim import (
    AutomorphismGate,
    EndoMatrix,
    FourierGate,
    GroupElement,
    PauliGate,
    QuadraticGate,
)

NAME, START, END, PARENT, CIRCUIT, ROOT, ELEMENTS, INFO = range(8)


def _matrix_shape(args, kwargs, num_cols_at: int) -> tuple[int, int]:
    A = args[0]
    if A:
        return len(A), len(A[0])
    if len(args) > num_cols_at:
        return 0, args[num_cols_at]
    return 0, kwargs.get("num_cols") or 0


def _max_bits(vectors) -> int:
    return max((abs(x).bit_length() for v in vectors for x in v), default=0)


def _kernel_info(args, kwargs, out):
    return (*_matrix_shape(args, kwargs, 1), _max_bits(out))


def _solve_info(args, kwargs, out):
    vectors = [] if out is None else [out.particular, *out.kernel]
    return (*_matrix_shape(args, kwargs, 2), _max_bits(vectors))


# (module, bound name, span name, info reader)
MODULE_TARGETS = [
    (circuits, "parse_circuit", "circuits.parse", lambda a, k, out: len(out.gates)),
    (engine, "extract_endo", "quadratic.extract_endo", None),
    (engine, "quad_eval", "quadratic.quad_eval", None),
    (engine, "auto_inverse", "homs.auto_inverse", None),
    (engine, "endo_dual", "homs.endo_dual", None),
    (engine, "orthogonal_subgroup", "homs.orthogonal_subgroup", None),
    (engine, "solve_character_system", "homs.solve_character_system", None),
    (engine, "kernel_basis", "intlinalg.kernel_basis", _kernel_info),
    (homs, "kernel_basis", "intlinalg.kernel_basis", _kernel_info),
    (homs, "solve_diophantine", "intlinalg.solve_diophantine", _solve_info),
    (engine, "pauli_identity", "pauli.pauli_identity", None),
    (engine, "pauli_mul", "pauli.pauli_mul", None),
    (engine, "pauli_pow", "pauli.pauli_pow", None),
    (engine, "pauli_dagger", "pauli.pauli_dagger", None),
    (engine, "init_stabilizer", "engine.init", lambda a, k, out: len(out)),
    (engine, "conjugate_circuit", "engine.conjugate", None),
    (
        engine,
        "output_distribution",
        "engine.readout",
        lambda a, k, out: len(out.support.generators),
    ),
]

# (class, method, span name)
METHOD_TARGETS = [
    (EndoMatrix, "apply", "homs.endo_apply"),
    (FourierGate, "conjugate", "engine.conjugate.qft"),
    (AutomorphismGate, "conjugate", "engine.conjugate.auto"),
    (QuadraticGate, "conjugate", "engine.conjugate.quad"),
    (PauliGate, "conjugate", "engine.conjugate.pauli"),
]

GATE_KINDS = ("qft", "auto", "quad", "pauli")
# inside verify only the engine stages are recorded, so that the rest of
# compare_with_engine, the dense work, is the oracle's self time
VERIFY_SPANS = ("engine.init", "engine.conjugate", "engine.readout")


class Tracer:
    """In-memory span recorder; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.circuit = -1
        self.elements = 0
        self._in_verify = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else name
        rec = [name, 0.0, 0.0, parent, self.circuit, root, self.elements, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()
        rec[ELEMENTS] = self.elements - rec[ELEMENTS]

    @contextmanager
    def root(self, name: str, circuit: int, info=None):
        """A benchmark-level span around one call into the program."""
        self.circuit = circuit
        self._in_verify = name == "verify"
        rec = self._open(name)
        rec[INFO] = info
        try:
            yield
        finally:
            self._close(rec)
            self._in_verify = False

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_verify and name not in VERIFY_SPANS:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    rec[INFO] = observe(args, kwargs, out)
            finally:
                self._close(rec)
            return out

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module, attr, name, observe in MODULE_TARGETS:
            self._replace(module, attr, self._wrap(name, getattr(module, attr), observe))
        for cls, attr, name in METHOD_TARGETS:
            self._replace(cls, attr, self._wrap(name, cls.__dict__[attr], None))
        post_init = GroupElement.__post_init__

        def counted(element):
            self.elements += 1
            post_init(element)

        self._replace(GroupElement, "__post_init__", counted)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "circuit": rec[CIRCUIT],
                    "elements": rec[ELEMENTS], "info": rec[INFO],
                }) + "\n")


def layer_metrics(spans: list[list], circuits_run: int, shots: int) -> dict[str, float]:
    """Per-module metrics, per circuit, from the spans of a traced run.

    Stage spans of the engine (init, conjugate and its per-gate-kind
    parts, readout, sample) are reported inclusive, so they add up to
    the solve. Every other time is a self time: span duration minus the
    time covered by its child spans. Module numbers cover the solve
    path; the oracle numbers cover verify.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    incl = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(list)
    elements = defaultdict(int)
    for i, rec in enumerate(spans):
        name, root = rec[NAME], rec[ROOT]
        if root != "solve" and rec[PARENT] >= 0:
            continue  # engine work nested in verify belongs to the oracle
        dur = rec[END] - rec[START]
        incl[name] += dur
        self_t[name] += dur - child_time[i]
        calls[name] += 1
        elements[name] += rec[ELEMENTS]
        if rec[INFO] is not None:
            info[name].append(rec[INFO])
    n = max(circuits_run, 1)
    shapes = info["intlinalg.solve_diophantine"] + info["intlinalg.kernel_basis"]
    gen_gates = sum(calls[f"engine.conjugate.{k}"] for k in GATE_KINDS)
    conj_elements = sum(elements[f"engine.conjugate.{k}"] for k in GATE_KINDS)
    out = {
        "circuits.parse_self_s": self_t["circuits.parse"] / n,
        "circuits.gates": sum(info["circuits.parse"]) / n,
        "quadratic.extract_endo_s": self_t["quadratic.extract_endo"] / n,
        "quadratic.extract_endo_calls": calls["quadratic.extract_endo"] / n,
        "quadratic.quad_eval_s": self_t["quadratic.quad_eval"] / n,
        "quadratic.quad_eval_calls": calls["quadratic.quad_eval"] / n,
        "homs.auto_inverse_s": self_t["homs.auto_inverse"] / n,
        "homs.auto_inverse_calls": calls["homs.auto_inverse"] / n,
        "homs.endo_dual_s": self_t["homs.endo_dual"] / n,
        "homs.endo_apply_s": self_t["homs.endo_apply"] / n,
        "homs.endo_apply_calls": calls["homs.endo_apply"] / n,
        "homs.orthogonal_subgroup_s": self_t["homs.orthogonal_subgroup"] / n,
        "homs.solve_character_system_s": self_t["homs.solve_character_system"] / n,
        "intlinalg.solve_diophantine_s": self_t["intlinalg.solve_diophantine"] / n,
        "intlinalg.solve_diophantine_calls": calls["intlinalg.solve_diophantine"] / n,
        "intlinalg.kernel_basis_s": self_t["intlinalg.kernel_basis"] / n,
        "intlinalg.kernel_basis_calls": calls["intlinalg.kernel_basis"] / n,
        "intlinalg.max_rows": max((s[0] for s in shapes), default=0),
        "intlinalg.max_cols": max((s[1] for s in shapes), default=0),
        "intlinalg.max_coeff_bits": max((s[2] for s in shapes), default=0),
        "pauli.self_s": sum(v for k, v in self_t.items() if k.startswith("pauli.")) / n,
        "pauli.pauli_mul_calls": calls["pauli.pauli_mul"] / n,
        "pauli.pauli_pow_calls": calls["pauli.pauli_pow"] / n,
        "groups.elements_built": (elements["solve"] + elements["sample"]) / n,
        "groups.elements_per_gen_gate": conj_elements / gen_gates if gen_gates else 0.0,
        "engine.init_s": incl["engine.init"] / n,
        "engine.conjugate_s": incl["engine.conjugate"] / n,
        **{
            f"engine.conjugate.{k}_s": incl[f"engine.conjugate.{k}"] / n
            for k in GATE_KINDS
        },
        "engine.gen_gates": gen_gates / n,
        "engine.conjugate_us_per_gen_gate": (
            incl["engine.conjugate"] / gen_gates * 1e6 if gen_gates else 0.0
        ),
        "engine.generators": sum(info["engine.init"]) / n,
        "engine.readout_s": incl["engine.readout"] / n,
        "engine.support_gens": sum(info["engine.readout"]) / n,
        "engine.sample_s": incl["sample"] / n,
        "engine.sample_us_per_shot": incl["sample"] / shots * 1e6 if shots else 0.0,
        "oracle.verify_self_s": self_t["verify"] / n,
        "oracle.dense_elements": sum(info["verify"]) / n,
    }
    return out
