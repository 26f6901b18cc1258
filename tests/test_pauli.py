"""Pauli label arithmetic checked against dense matrices."""

import random

import numpy as np

from helpers import to_complex
from normsim.engine import PauliGate
from normsim.groups import AbelianGroup
from normsim.oracle import gate_matrix
from normsim.pauli import (
    pauli_apply,
    pauli_dagger,
    pauli_identity,
    pauli_label,
    pauli_mul,
    pauli_pow,
)


def commute_exponent(s, t):
    """Exponent c with s t = gamma^c t s; zero iff the pair commutes."""
    st = pauli_mul(s, t)
    ts = pauli_mul(t, s)
    return (st.phase.value - ts.phase.value) % s.group.phase_modulus


GROUPS = [AbelianGroup(m) for m in [(2,), (3,), (4,), (2, 2), (2, 4), (6,), (3, 3)]]


def rand_label(group, rng):
    return pauli_label(
        group,
        rng.randrange(group.phase_modulus),
        [rng.randrange(d) for d in group.moduli],
        [rng.randrange(d) for d in group.moduli],
    )


def test_qubit_frozen_products():
    z2 = AbelianGroup((2,))
    x = pauli_label(z2, 0, [0], [1])
    z = pauli_label(z2, 0, [1], [0])
    # X Z picks up gamma^2 = -1 when rewritten in Z-first order
    assert pauli_mul(x, z) == pauli_label(z2, 2, [1], [1])
    assert pauli_mul(z, x) == pauli_label(z2, 0, [1], [1])
    # (gamma X)^dagger = gamma^3 X
    assert pauli_dagger(pauli_label(z2, 1, [0], [1])) == pauli_label(z2, 3, [0], [1])
    assert pauli_pow(x, 2) == pauli_identity(z2)
    y = pauli_label(z2, 1, [1], [1])  # gamma Z X = iZX = Y
    assert pauli_pow(y, 2) == pauli_identity(z2)


def test_mul_matches_dense():
    rng = random.Random(101)
    for g in GROUPS:
        for _ in range(30):
            s, t = rand_label(g, rng), rand_label(g, rng)
            lhs = gate_matrix(PauliGate(pauli_mul(s, t)))
            rhs = gate_matrix(PauliGate(s)) @ gate_matrix(PauliGate(t))
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_pow_matches_dense():
    rng = random.Random(103)
    for g in GROUPS:
        for _ in range(15):
            s = rand_label(g, rng)
            m = gate_matrix(PauliGate(s))
            acc = np.eye(g.order, dtype=complex)
            for n in range(5):
                assert np.max(np.abs(gate_matrix(PauliGate(pauli_pow(s, n))) - acc)) < 1e-9
                acc = acc @ m
            # negative powers too
            inv = np.linalg.inv(m)
            assert np.max(np.abs(gate_matrix(PauliGate(pauli_pow(s, -1))) - inv)) < 1e-9
            assert np.max(np.abs(gate_matrix(PauliGate(pauli_pow(s, -3))) - inv @ inv @ inv)) < 1e-9


def test_dagger_matches_dense_and_pow():
    rng = random.Random(107)
    for g in GROUPS:
        for _ in range(20):
            s = rand_label(g, rng)
            assert np.max(np.abs(gate_matrix(PauliGate(pauli_dagger(s))) - gate_matrix(PauliGate(s)).conj().T)) < 1e-9
            # the inverse through the group exponent
            assert pauli_dagger(s) == pauli_pow(s, g.phase_modulus - 1)
            assert pauli_mul(s, pauli_dagger(s)) == pauli_identity(g)


def test_matrix_is_phase_times_z_times_x():
    # the operator from its definition, without the label algebra:
    # X(h)|k> = |k+h>, Z(g)|k> = chi_g(k)|k>, and gamma = exp(i*pi/order)
    rng = random.Random(127)
    for g in GROUPS:
        elems = list(g.elements())
        for _ in range(10):
            s = rand_label(g, rng)
            x = np.zeros((g.order, g.order))
            for k in elems:
                x[g.index_of(k + s.x_part), g.index_of(k)] = 1.0
            z = np.diag([
                np.exp(2j * np.pi * sum(
                    zi * ki / d
                    for zi, ki, d in zip(s.z_part.residues, k.residues, g.moduli)
                ))
                for k in elems
            ])
            want = np.exp(1j * np.pi * s.phase.value / g.order) * (z @ x)
            assert np.max(np.abs(gate_matrix(PauliGate(s)) - want)) < 1e-9


def test_apply_matches_dense():
    rng = random.Random(109)
    for g in GROUPS:
        for _ in range(10):
            s = rand_label(g, rng)
            m = gate_matrix(PauliGate(s))
            for k in g.elements():
                phase, moved = pauli_apply(s, k)
                vec = np.zeros(g.order, dtype=complex)
                vec[g.index_of(k)] = 1.0
                out = m @ vec
                assert abs(out[g.index_of(moved)] - to_complex(phase)) < 1e-9
                out[g.index_of(moved)] = 0.0
                assert np.max(np.abs(out)) < 1e-12


def test_commute_exponent():
    rng = random.Random(113)
    for g in GROUPS:
        mod = g.phase_modulus
        for _ in range(30):
            s, t = rand_label(g, rng), rand_label(g, rng)
            c = commute_exponent(s, t)
            st = pauli_mul(s, t)
            ts = pauli_mul(t, s)
            assert st.z_part == ts.z_part and st.x_part == ts.x_part
            assert (ts.phase.value + c) % mod == st.phase.value


def test_labels_are_canonical():
    g = AbelianGroup((2, 4))
    a = pauli_label(g, 35, [5, 9], [-1, 6])
    assert a.phase.value == 35 % 16
    assert a.z_part.residues == (1, 1)
    assert a.x_part.residues == (1, 2)
    assert str(a) == "a=3 z=(1,1) x=(1,2)"
