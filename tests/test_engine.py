"""Stabilizer pipeline: init, conjugation, output distribution, sampling."""

import pytest

from normsim.engine import (
    AutomorphismGate,
    CosetInput,
    EngineError,
    FourierGate,
    NotInvertible,
    PauliGate,
    QuadraticGate,
    conjugate_circuit,
    init_stabilizer,
    output_distribution,
    sample_stream,
    simulate,
)
from normsim.groups import AbelianGroup
from normsim.homs import endo_validate
from normsim.pauli import pauli_label
from normsim.quadratic import QuadraticEncoding, quad_cross, quad_half


def coset(group, gens, shift):
    return CosetInput(
        group,
        tuple(group.element(g) for g in gens),
        group.element(shift),
    )


def test_init_stabilizer_frozen_qubit():
    z2 = AbelianGroup((2,))
    # |0>: K = {0}, so K-perp = Z_2 contributes Z, nothing else
    labels = init_stabilizer(coset(z2, [], (0,)))
    assert set(labels) == {pauli_label(z2, 0, [1], [0])}
    # |+>: K = Z_2 contributes X, K-perp = {0}
    labels = init_stabilizer(coset(z2, [(1,)], (0,)))
    assert set(labels) == {pauli_label(z2, 0, [0], [1])}
    # |1>: the Z generator picks up chi_1(-1) = gamma^2
    labels = init_stabilizer(coset(z2, [], (1,)))
    assert set(labels) == {pauli_label(z2, 2, [1], [0])}


def test_init_stabilizer_fixes_coset_members():
    from normsim.oracle import apply_pauli, coset_state
    import numpy as np

    g = AbelianGroup((2, 4))
    c = coset(g, [(1, 2)], (0, 3))
    state = coset_state(c)
    for lab in init_stabilizer(c):
        out = apply_pauli(state, lab)
        assert np.max(np.abs(out.vector - state.vector)) < 1e-12


def test_fourier_gate_validation():
    g = AbelianGroup((2, 4))
    f = FourierGate(g, (0,))
    assert f.targets == (0,)
    with pytest.raises(ValueError):
        FourierGate(g, (2,))
    with pytest.raises(ValueError):
        FourierGate(g, (0, 0))
    with pytest.raises(ValueError):
        FourierGate(g, ())
    # a non-integer target is refused, not truncated to factor 0
    with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
        FourierGate(g, (0.7,))
    assert FourierGate(g, (True,)).targets == (1,)


def test_fourier_conjugation_swaps_parts():
    z3 = AbelianGroup((3,))
    f = FourierGate(z3, (0,))
    x = pauli_label(z3, 0, [0], [1])
    z = pauli_label(z3, 0, [1], [0])
    # F X F* = Z, F Z F* = X(-1)
    assert f.conjugate(x) == pauli_label(z3, 0, [1], [0])
    assert f.conjugate(z) == pauli_label(z3, 0, [0], [2])
    finv = FourierGate(z3, (0,), inverse=True)
    assert finv.conjugate(f.conjugate(x)) == x
    assert finv.conjugate(f.conjugate(z)) == z


def test_partial_fourier_leaves_other_factors():
    g = AbelianGroup((2, 4))
    f = FourierGate(g, (1,))
    lab = pauli_label(g, 0, [1, 0], [0, 0])
    assert f.conjugate(lab) == lab  # factor 0 untouched
    lab = pauli_label(g, 0, [0, 1], [0, 2])
    out = f.conjugate(lab)
    # phase 2g/d * g_1 h_1 = (16/4)*1*2 = 8, then (g,h) -> (h,-g)
    assert out == pauli_label(g, 8, [0, 2], [0, 3])


def test_automorphism_gate_conjugation():
    g = AbelianGroup((2, 4))
    alpha = AutomorphismGate(endo_validate(g, [(1, 2), (0, 1)]))
    x = pauli_label(g, 0, [0, 0], [1, 0])
    out = alpha.conjugate(x)
    assert out.x_part.residues == (1, 2)  # alpha applied to x part
    assert out.phase.value == 0
    with pytest.raises(NotInvertible):
        AutomorphismGate(endo_validate(g, [(0, 0), (0, 1)]))


def test_quadratic_gate_conjugation_frozen():
    z2 = AbelianGroup((2,))
    s_gate = QuadraticGate(QuadraticEncoding(z2, (1,), (), (0,)))  # diag(1, i)
    x = pauli_label(z2, 0, [0], [1])
    # S X S* = gamma^3 Z X over Z_2 in Z-first ordering
    assert s_gate.conjugate(x) == pauli_label(z2, 3, [1], [1])
    z = pauli_label(z2, 0, [1], [0])
    assert s_gate.conjugate(z) == z  # diagonal gates commute


def test_cz_conjugation():
    g = AbelianGroup((2, 2))
    czg = QuadraticGate(quad_cross(g, 0, 1, 1))
    x0 = pauli_label(g, 0, [0, 0], [1, 0])
    out = czg.conjugate(x0)
    # CZ maps X otimes I to X otimes Z with no phase
    assert out == pauli_label(g, 0, [0, 1], [1, 0])


def test_pauli_gate_conjugation():
    z4 = AbelianGroup((4,))
    t = PauliGate(pauli_label(z4, 0, [0], [1]))  # X
    z = pauli_label(z4, 0, [1], [0])
    out = t.conjugate(z)
    assert out.z_part == z.z_part and out.x_part == z.x_part
    assert out.phase.value == (0 - 2) % 8  # X Z X* = chi_1(-1) Z


def test_conjugate_circuit_composes_in_order():
    z2 = AbelianGroup((2,))
    f = FourierGate(z2, (0,))
    s_gate = QuadraticGate(QuadraticEncoding(z2, (1,), (), (0,)))
    x = pauli_label(z2, 0, [0], [1])
    via_circuit = conjugate_circuit((x,), [f, s_gate])[0]
    assert via_circuit == s_gate.conjugate(f.conjugate(x))


def test_simulate_plus_state():
    z2 = AbelianGroup((2,))
    dist = simulate(coset(z2, [], (0,)), [FourierGate(z2, (0,))])
    assert dist.members() == {z2.element((0,)), z2.element((1,))}


def test_simulate_z8_subgroup_fourier():
    z8 = AbelianGroup((8,))
    dist = simulate(coset(z8, [(2,)], (0,)), [FourierGate(z8, (0,))])
    assert dist.members() == {z8.element((0,)), z8.element((4,))}


def test_simulate_shift_moves_support():
    z8 = AbelianGroup((8,))
    shift = PauliGate(pauli_label(z8, 0, [0], [3]))
    dist = simulate(coset(z8, [(4,)], (1,)), [shift])
    assert dist.members() == {z8.element((4,)), z8.element((0,))}


def test_simulate_identity_returns_input_coset():
    g = AbelianGroup((2, 4))
    dist = simulate(coset(g, [(1, 2)], (0, 1)), [])
    want = {g.element((0, 1)), g.element((1, 3))}
    assert dist.members() == want


def test_deterministic_sampling():
    z8 = AbelianGroup((8,))
    dist = simulate(coset(z8, [(2,)], (1,)), [FourierGate(z8, (0,))])
    a = list(sample_stream(dist, 50, seed=7))
    b = list(sample_stream(dist, 50, seed=7))
    assert a == b
    assert all(s in dist.members() for s in a)
    c = list(sample_stream(dist, 50, seed=8))
    assert a != c  # different seed, different stream (overwhelmingly)


def test_output_distribution_rejects_inconsistent_sets():
    z2 = AbelianGroup((2,))
    # gamma * identity fixes nothing
    with pytest.raises(EngineError):
        output_distribution((pauli_label(z2, 1, [0], [0]),))
    with pytest.raises(EngineError):
        output_distribution((pauli_label(z2, 2, [0], [0]),))
    # -Z has no +1 eigenspace intersected with +Z
    with pytest.raises(EngineError):
        output_distribution(
            (pauli_label(z2, 0, [1], [0]), pauli_label(z2, 2, [1], [0]))
        )


def test_half_gate_pipeline_matches_oracle():
    from normsim.oracle import compare_with_engine

    g = AbelianGroup((4, 2))
    gates = [
        FourierGate(g, (0, 1)),
        QuadraticGate(quad_half(g, 0, 3)),
        FourierGate(g, (0,), inverse=True),
    ]
    report = compare_with_engine(coset(g, [(2, 1)], (1, 0)), gates)
    assert report.passed, report.summary()
