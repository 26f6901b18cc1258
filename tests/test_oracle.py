"""Dense reference simulator and the verification helpers built on it."""

import itertools
import math
import random

import numpy as np
import pytest

from normsim.affine import PermutationSpec, affine_test, modexp_permutation
from normsim.engine import (
    AutomorphismGate,
    CosetInput,
    FourierGate,
    PauliGate,
    QuadraticGate,
)
from normsim.groups import AbelianGroup, BoundExceeded, GroupMismatchError
from normsim.homs import endo_validate
from normsim.oracle import (
    DenseState,
    apply_circuit,
    apply_gate,
    apply_pauli,
    basis_state,
    compare_with_engine,
    coset_state,
    dense_distribution,
    eigenvector_check,
    gate_matrix,
)
from normsim.pauli import pauli_apply, pauli_label
from normsim.quadratic import build_quadratic, quad_cross, quad_eval


def coset(group, gens, shift):
    return CosetInput(
        group,
        tuple(group.element(g) for g in gens),
        group.element(shift),
    )


def test_coset_state_amplitudes():
    g = AbelianGroup((2, 4))
    st = coset_state(coset(g, [(1, 2)], (0, 1)))
    # members: (0,1) and (1,3), amplitude 1/sqrt(2) each
    v = st.vector
    idx = [g.index_of(g.element(x)) for x in [(0, 1), (1, 3)]]
    for i in range(g.order):
        want = 1 / math.sqrt(2) if i in idx else 0.0
        assert abs(v[i] - want) < 1e-12


def test_basis_state():
    g = AbelianGroup((3,))
    st = basis_state(g, g.element((2,)))
    assert abs(st.vector[2] - 1) < 1e-15
    assert abs(np.linalg.norm(st.vector) - 1) < 1e-15


def test_fourier_matrix_is_dft():
    z4 = AbelianGroup((4,))
    f = gate_matrix(FourierGate(z4, (0,)))
    w = np.exp(2j * np.pi / 4)
    for h in range(4):
        for g in range(4):
            assert abs(f[h, g] - w ** (h * g) / 2) < 1e-12


def test_gate_matrices_are_unitary():
    g = AbelianGroup((2, 4))
    gates = [
        FourierGate(g, (0, 1)),
        FourierGate(g, (1,), inverse=True),
        QuadraticGate(quad_cross(g, 0, 1, 2)),
        PauliGate(pauli_label(g, 3, [1, 2], [0, 3])),
    ]
    for gt in gates:
        u = gate_matrix(gt)
        assert np.max(np.abs(u @ u.conj().T - np.eye(g.order))) < 1e-9


def test_inverse_fourier_inverts():
    g = AbelianGroup((3, 4))
    st = coset_state(coset(g, [(1, 2)], (0, 3)))
    rt = apply_gate(apply_gate(st, FourierGate(g, (0, 1))), FourierGate(g, (0, 1), inverse=True))
    assert np.max(np.abs(rt.vector - st.vector)) < 1e-12


def test_dense_distribution_uniform():
    z2 = AbelianGroup((2,))
    st = apply_circuit(coset_state(coset(z2, [], (0,))), [FourierGate(z2, (0,))])
    dist = dense_distribution(st)
    assert set(dist) == {z2.element((0,)), z2.element((1,))}
    for p in dist.values():
        assert abs(p - 0.5) < 1e-12


def test_compare_with_engine_report():
    z8 = AbelianGroup((8,))
    report = compare_with_engine(coset(z8, [(2,)], (0,)), [FourierGate(z8, (0,))])
    assert report.passed
    assert report.support_matches
    assert report.engine_support_size == 2
    assert report.dense_support_size == 2
    assert report.max_uniform_dev < 1e-9
    assert report.summary().startswith("PASS")


def test_eigenvector_check_positive_and_negative():
    z2 = AbelianGroup((2,))
    c = coset(z2, [], (0,))
    gates = [FourierGate(z2, (0,))]
    assert eigenvector_check(c, gates)
    # Z does not stabilize |+>
    wrong = (pauli_label(z2, 0, [1], [0]),)
    assert not eigenvector_check(c, gates, labels=wrong)


def test_bound_exceeded():
    g = AbelianGroup((64, 65))  # order 4160 > default bound
    with pytest.raises(BoundExceeded):
        coset_state(coset(g, [], (0, 0)))
    z8 = AbelianGroup((8,))
    with pytest.raises(BoundExceeded):
        compare_with_engine(coset(z8, [], (0,)), [], bound=4)
    huge = AbelianGroup((2**21,))  # above ENUM_BOUND, whatever bound is asked
    with pytest.raises(BoundExceeded):
        basis_state(huge, huge.zero())
    with pytest.raises(BoundExceeded):
        coset_state(coset(huge, [], (0,)), bound=2**40)


def test_permutation_spec_validation():
    z2 = AbelianGroup((2,))
    with pytest.raises(ValueError):
        PermutationSpec(z2, (z2.element((0,)), z2.element((0,))))
    ok = PermutationSpec(z2, (z2.element((1,)), z2.element((0,))))
    assert ok.apply(z2.element((0,))).residues == (1,)


def test_modexp_permutation_images():
    spec = modexp_permutation(2, 2, 15)
    g = spec.group
    assert g.moduli == (4, 15)
    # (x, y) -> (x, y + 2^x mod 15)
    assert spec.apply(g.element((0, 0))).residues == (0, 1)
    assert spec.apply(g.element((1, 0))).residues == (1, 2)
    assert spec.apply(g.element((3, 10))).residues == (3, (10 + 8) % 15)


def test_affine_test_rejects_modexp():
    res = affine_test(modexp_permutation(2, 2, 15))
    assert not res.is_affine
    assert res.witness is not None
    assert "not affine" in str(res) or "witness" in str(res)


def test_affine_test_accepts_translation():
    g = AbelianGroup((3, 4))
    t = g.element((1, 2))
    spec = PermutationSpec.from_callable(g, lambda x: x + t)
    res = affine_test(spec)
    assert res.is_affine
    assert res.shift == t
    ident = endo_validate(g, [(1, 0), (0, 1)])
    assert res.matrix.columns == ident.columns


def test_affine_test_recovers_random_automorphism():
    rng = random.Random(55)
    g = AbelianGroup((2, 4))
    from normsim.circuits import _random_automorphism

    for _ in range(10):
        alpha = _random_automorphism(rng, g).matrix
        t = g.element(tuple(rng.randrange(d) for d in g.moduli))
        spec = PermutationSpec.from_callable(g, lambda x: alpha.apply(x) + t)
        res = affine_test(spec)
        assert res.is_affine
        assert res.shift == t
        assert res.matrix.columns == alpha.columns


def test_affine_test_rejects_nonaffine_bijection():
    # swap two elements of Z_4: breaks additivity
    z4 = AbelianGroup((4,))
    images = [z4.element((k,)) for k in (0, 1, 3, 2)]
    res = affine_test(PermutationSpec(z4, tuple(images)))
    assert not res.is_affine
    assert res.witness is not None


def test_pauli_matrix_monomial():
    g = AbelianGroup((2, 2))
    m = gate_matrix(PauliGate(pauli_label(g, 1, [1, 0], [0, 1])))
    # exactly one nonzero per column, all magnitude 1
    for col in range(g.order):
        nz = np.flatnonzero(np.abs(m[:, col]) > 1e-12)
        assert len(nz) == 1
        assert abs(abs(m[nz[0], col]) - 1) < 1e-12


def _invariant_factor_groups(max_order):
    """Every finite abelian group of order at most max_order, once each,
    as moduli d_1 | d_2 | ... (the invariant factor form)."""
    out = []

    def grow(moduli, order):
        if moduli:
            out.append(tuple(moduli))
        step = moduli[-1] if moduli else 1
        d = moduli[-1] if moduli else 2
        while order * d <= max_order:
            grow(moduli + [d], order * d)
            d += step

    grow([], 1)
    return out


PINNED_GROUPS = _invariant_factor_groups(24) + [(4, 2), (2, 3, 4)]


def _definition_gates(group, rng):
    """Fourier gates on every target subset, a unit multiply, a shear,
    every build_quadratic family and random Paulis."""
    m, d = group.num_factors, group.moduli
    gates = [
        FourierGate(group, targets, inverse)
        for r in range(1, m + 1)
        for targets in itertools.combinations(range(m), r)
        for inverse in (False, True)
    ]
    ident = [[int(r == k) for r in range(m)] for k in range(m)]
    unit = [col[:] for col in ident]
    unit[-1][-1] = d[-1] - 1
    gates.append(AutomorphismGate(endo_validate(group, unit)))
    shears = [
        (i, j, d[i] // math.gcd(d[i], d[j]))
        for i in range(m)
        for j in range(m)
        if i != j and d[i] // math.gcd(d[i], d[j]) % d[i]
    ]
    if shears:
        i, j, c = shears[0]
        shear = [col[:] for col in ident]
        shear[j][i] = c
        gates.append(AutomorphismGate(endo_validate(group, shear)))
    encodings = []
    for i, di in enumerate(d):
        encodings.append(build_quadratic(group, "character", factor=i, a=1))
        encodings.append(build_quadratic(group, "square", factor=i, a=1))
        encodings.append(build_quadratic(group, "half", factor=i, a=di - 1))
    for i, j in itertools.combinations(range(m), 2):
        c = d[j] // math.gcd(d[i], d[j])
        encodings.append(build_quadratic(group, "cross", i=i, j=j, c=c))
    endo = [
        [dk // math.gcd(di, dk) * rng.randrange(math.gcd(di, dk)) for dk in d]
        for di in d
    ]
    endo = endo_validate(group, endo)
    encodings.append(build_quadratic(group, "from_endo", endo=endo))
    gates += [QuadraticGate(xi) for xi in encodings]
    for _ in range(3):
        a = rng.randrange(group.phase_modulus)
        z = [rng.randrange(di) for di in d]
        x = [rng.randrange(di) for di in d]
        gates.append(PauliGate(pauli_label(group, a, z, x)))
    return gates


def _defined_matrix(gate):
    """The gate's matrix entry by entry, straight from its definition."""
    group = gate.group
    n = group.order
    mat = np.zeros((n, n), dtype=np.complex128)
    elements = list(group.elements())
    for g in elements:
        if isinstance(gate, FourierGate):
            sign = -1 if gate.inverse else 1
            for h in elements:
                entry = 1.0 + 0j
                for i, di in enumerate(group.moduli):
                    gi, hi = g.residues[i], h.residues[i]
                    if i in gate.targets:
                        entry *= np.exp(sign * 2j * np.pi * gi * hi / di) / np.sqrt(di)
                    elif gi != hi:
                        entry = 0j
                mat[group.index_of(h), group.index_of(g)] = entry
            continue
        if isinstance(gate, AutomorphismGate):
            a, image = 0, gate.matrix.apply(g)
        elif isinstance(gate, QuadraticGate):
            a, image = quad_eval(gate.encoding, g).value, g
        else:
            phase, image = pauli_apply(gate.label, g)
            a = phase.value
        mat[group.index_of(image), group.index_of(g)] = np.exp(1j * np.pi * a / n)
    return mat


@pytest.mark.parametrize("moduli", PINNED_GROUPS, ids=str)
def test_gate_matrices_match_gate_definitions(moduli):
    group = AbelianGroup(moduli)
    rng = random.Random(sum(moduli) * 31 + len(moduli))
    vec = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in group.elements()])
    state = DenseState(group, vec / np.linalg.norm(vec))
    for gate in _definition_gates(group, rng):
        mat = gate_matrix(gate)
        want = _defined_matrix(gate)
        assert np.max(np.abs(mat - want)) < 1e-12, gate
        if not isinstance(gate, FourierGate):
            assert np.count_nonzero(mat) == group.order, gate
        moved = apply_gate(state, gate).vector
        assert np.max(np.abs(moved - mat @ state.vector)) < 1e-12, gate


def test_gates_over_another_group_are_refused():
    z2z3, z3z2 = AbelianGroup((2, 3)), AbelianGroup((3, 2))
    state = coset_state(coset(z2z3, [(1, 0)], (0, 1)))
    qft = FourierGate(z3z2, (0,))
    with pytest.raises(GroupMismatchError):
        apply_gate(state, qft)
    with pytest.raises(GroupMismatchError):
        apply_circuit(state, [FourierGate(z2z3, (1,)), qft])
    z4, z2z2 = AbelianGroup((4,)), AbelianGroup((2, 2))
    swap = AutomorphismGate(endo_validate(z2z2, [(0, 1), (1, 0)]))
    with pytest.raises(GroupMismatchError):
        apply_gate(coset_state(coset(z4, [], (1,))), swap)
    with pytest.raises(GroupMismatchError):
        apply_pauli(state, pauli_label(z3z2, 0, [1, 0], [0, 1]))
