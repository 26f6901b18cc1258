"""Dense state-vector brute force for desk-scale verification.

Everything here is deliberately small and floating-point: states are
full complex vectors indexed by group elements in lexicographic order,
gates act as explicit matrices or permutations, and agreement with the
exact engine is judged against tolerances. The exactness claims live in
the engine; this module only needs to discriminate at small orders,
where support probabilities are at least 1/order, far above tolerance.

This is the only module that imports numpy, and no other module imports
it at load time: the CLI loads it inside `verify` only. Every state,
matrix and comparison refuses groups above min(bound, ENUM_BOUND), so a
large bound cannot ask for an unbounded state vector.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import (
    AutomorphismGate,
    CosetInput,
    FourierGate,
    Gate,
    PauliGate,
    QuadraticGate,
    conjugate_circuit,
    init_stabilizer,
    simulate,
)
from .groups import (
    DENSE_BOUND,
    ENUM_BOUND,
    AbelianGroup,
    GroupElement,
    GroupMismatchError,
    PhaseExponent,
    check_bound,
)
from .homs import Subgroup, subgroup_members
from .pauli import PauliLabel, pauli_apply
from .quadratic import quad_eval

TOL = 1e-9
NORM_TOL = 1e-12


@dataclass
class DenseState:
    group: AbelianGroup
    vector: np.ndarray  # complex128, length = group order, lex order

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


def coset_state(coset: CosetInput, bound: int = DENSE_BOUND) -> DenseState:
    check_bound(coset.group, bound)
    group = coset.group
    members = subgroup_members(Subgroup(group, coset.generators), bound)
    vec = np.zeros(group.order, dtype=np.complex128)
    amp = 1.0 / np.sqrt(len(members))
    for k in members:
        vec[group.index_of(k + coset.shift)] = amp
    return DenseState(group, vec)


def basis_state(group: AbelianGroup, g: GroupElement) -> DenseState:
    check_bound(group, ENUM_BOUND)
    vec = np.zeros(group.order, dtype=np.complex128)
    vec[group.index_of(g)] = 1.0
    return DenseState(group, vec)


def _dft(d: int, inverse: bool) -> np.ndarray:
    """The unitary Fourier matrix of Z_d, exp(+-2*pi*i*g*h/d)/sqrt(d)."""
    grid = np.outer(np.arange(d), np.arange(d))
    f = np.exp(2j * np.pi * grid / d) / np.sqrt(d)
    return f.conj() if inverse else f


def _monomial(gate: Gate) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) with gate|g> = phase[g]|perm[g]>, in one pass over G,
    read off the gate's own definition rather than the engine's conjugation."""
    group, elements = gate.group, gate.group.elements()
    if isinstance(gate, AutomorphismGate):
        zero = PhaseExponent(group, 0)
        pairs = ((zero, gate.matrix.apply(g)) for g in elements)
    elif isinstance(gate, QuadraticGate):
        pairs = ((quad_eval(gate.encoding, g), g) for g in elements)
    elif isinstance(gate, PauliGate):
        pairs = (pauli_apply(gate.label, g) for g in elements)
    else:
        raise TypeError(f"unknown gate {gate!r}")
    exps, perm = zip(*((a.value, group.index_of(h)) for a, h in pairs))
    return np.array(perm), np.exp(1j * np.pi * np.array(exps) / group.order)


def apply_gate(state: DenseState, gate: Gate) -> DenseState:
    group = state.group
    if gate.group != group:
        raise GroupMismatchError(f"gate over {gate.group} applied to a {group} state")
    if isinstance(gate, FourierGate):
        shaped = state.vector.reshape(group.moduli)
        for axis in gate.targets:
            f = _dft(group.moduli[axis], gate.inverse)
            shaped = np.moveaxis(np.tensordot(f, shaped, (1, axis)), 0, axis)
        out = shaped.reshape(group.order)
    else:
        perm, phase = _monomial(gate)
        out = np.empty_like(state.vector)
        out[perm] = phase * state.vector
    result = DenseState(group, out)
    if abs(result.norm() - 1.0) > NORM_TOL and abs(state.norm() - 1.0) <= NORM_TOL:
        raise AssertionError("gate application broke normalization")
    return result


def apply_pauli(state: DenseState, label: PauliLabel) -> DenseState:
    return apply_gate(state, PauliGate(label))


def apply_circuit(state: DenseState, gates: Sequence[Gate]) -> DenseState:
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def gate_matrix(gate: Gate, bound: int = DENSE_BOUND) -> np.ndarray:
    """Explicit unitary: a Kronecker product of per-factor Fourier
    matrices and identities, or the monomial form scattered into columns."""
    group = gate.group
    check_bound(group, bound)
    if isinstance(gate, FourierGate):
        return functools.reduce(np.kron, [
            _dft(d, gate.inverse) if i in gate.targets else np.eye(d)
            for i, d in enumerate(group.moduli)
        ])
    perm, phase = _monomial(gate)
    mat = np.zeros((group.order, group.order), dtype=np.complex128)
    mat[perm, np.arange(group.order)] = phase
    return mat


def dense_distribution(state: DenseState) -> dict[GroupElement, float]:
    probs = np.abs(state.vector) ** 2
    return {
        g: float(probs[i])
        for i, g in enumerate(state.group.elements())
    }


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    support_matches: bool
    max_uniform_dev: float
    engine_support_size: int
    dense_support_size: int

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict}: support "
            f"{'matches' if self.support_matches else 'differs'} "
            f"(engine {self.engine_support_size}, dense "
            f"{self.dense_support_size}), max probability deviation "
            f"{self.max_uniform_dev:.3e}"
        )


def compare_with_engine(
    coset: CosetInput,
    gates: Sequence[Gate],
    tol: float = TOL,
    bound: int = DENSE_BOUND,
) -> VerifyReport:
    """Engine support and uniformity versus the dense state, at small order."""
    group = coset.group
    check_bound(group, bound)
    dist = simulate(coset, gates)
    state = apply_circuit(coset_state(coset, bound), gates)
    probs = dense_distribution(state)
    dense_support = {g for g, p in probs.items() if p > tol}
    engine_support = dist.members(bound)
    support_matches = dense_support == engine_support
    expected = 1.0 / len(engine_support)
    max_dev = max(
        (abs(probs[g] - expected) for g in engine_support), default=0.0
    )
    return VerifyReport(
        passed=support_matches and max_dev < tol,
        support_matches=support_matches,
        max_uniform_dev=max_dev,
        engine_support_size=len(engine_support),
        dense_support_size=len(dense_support),
    )


def eigenvector_check(
    coset: CosetInput,
    gates: Sequence[Gate],
    tol: float = TOL,
    bound: int = DENSE_BOUND,
    labels: Sequence[PauliLabel] | None = None,
) -> bool:
    """Is the dense output state fixed by every conjugated stabilizer label?

    Passing explicit labels overrides the engine-computed conjugation
    (useful as a negative control).
    """
    check_bound(coset.group, bound)
    if labels is None:
        labels = conjugate_circuit(init_stabilizer(coset), gates)
    state = apply_circuit(coset_state(coset, bound), gates)
    for label in labels:
        moved = apply_pauli(state, label)
        if np.max(np.abs(moved.vector - state.vector)) > tol:
            return False
    return True

