"""The column-major tableau against per-label conjugation.

`conjugate_circuit` runs every gate once over a whole tableau of
labels. `reference_circuit` in helpers.py conjugates one label at a
time through group elements, in the per-label form each gate kind had
before the tableau. The two must agree exactly, label for label, on
random circuits of every gate kind over up to 64 factors with moduli
from 2 to 2^40 and 10^9+7. Each test also runs on Z_2^m for every m
of Z2_WIDTHS, where the tableau holds its state in bits.
"""

import math
import random

import pytest

from helpers import random_endo, reference_circuit, reference_conjugate
from normsim.engine import (
    AutomorphismGate,
    CosetInput,
    FourierGate,
    PauliGate,
    QuadraticGate,
    Tableau,
    conjugate_circuit,
    simulate,
)
from normsim.groups import AbelianGroup, GroupElement, GroupMismatchError
from normsim.homs import EndoMatrix, auto_inverse
from normsim.oracle import eigenvector_check
from normsim.pauli import pauli_dagger, pauli_label
from normsim.quadratic import QuadraticEncoding, build_quadratic, quad_square

MODULI = (2, 4, 6, 9, 16, 27, 2**40, 10**9 + 7)
SEEDS = range(10)
Z2_WIDTHS = (1, 2, 8, 64, 65, 130)
# the seeds draw their groups as they always have; a "z2^m" case runs on Z_2^m
CASES = [*SEEDS, *(f"z2^{m}" for m in Z2_WIDTHS)]
KINDS = ("qft", "auto", "character", "square", "half", "cross", "from_endo", "pauli")


def random_group(rng, max_factors=64):
    m = rng.choice((1, 2, 3, 5, 8, 16, max_factors))
    return AbelianGroup(tuple(rng.choice(MODULI) for _ in range(m)))


def case_group(base, case, max_factors=64):
    """(rng, group) for a case of CASES: a seed s draws from Random(base + s)."""
    if isinstance(case, int):
        rng = random.Random(base + case)
        return rng, random_group(rng, max_factors)
    return random.Random(f"{base}:{case}"), AbelianGroup((2,) * int(case[3:]))


def groups(rng, n):
    """n groups drawn from rng as they are needed, then Z_2^m for each
    width of Z2_WIDTHS."""
    for _ in range(n):
        yield random_group(rng)
    for m in Z2_WIDTHS:
        yield AbelianGroup((2,) * m)


def random_label(rng, group):
    return pauli_label(
        group,
        rng.randrange(group.phase_modulus),
        [rng.randrange(d) for d in group.moduli],
        [rng.randrange(d) for d in group.moduli],
    )


def _step(d, i, j):
    """Smallest c with d_i * c = 0 mod d_j."""
    return d[j] // math.gcd(d[i], d[j])


def shear(rng, group):
    """e^i -> u e^i + c e^j for a unit u: invertible for any i != j."""
    d = group.moduli
    m = len(d)
    cols = [list(e.residues) for e in group.units()]
    i = rng.randrange(m)
    while True:
        u = rng.randrange(1, d[i]) if d[i] > 2 else 1
        if math.gcd(u, d[i]) == 1:
            break
    cols[i][i] = u
    if m > 1:
        j = rng.choice([k for k in range(m) if k != i])
        cols[i][j] = _step(d, i, j) * rng.randrange(d[j])
    return AutomorphismGate(EndoMatrix(group, tuple(map(group.element, cols))))


def random_gate(rng, group, kind):
    d = group.moduli
    m = len(d)
    if kind == "qft":
        targets = rng.sample(range(m), rng.randint(1, min(m, 4)))
        return FourierGate(group, tuple(targets), inverse=rng.random() < 0.5)
    if kind == "auto":
        return shear(rng, group)
    if kind == "pauli":
        return PauliGate(random_label(rng, group))
    if kind == "cross":
        if m < 2:
            kind = "square"
        else:
            i, j = rng.sample(range(m), 2)
            c = _step(d, i, j) * rng.randrange(1, d[j] // _step(d, i, j) + 1)
            return QuadraticGate(build_quadratic(group, "cross", i=i, j=j, c=c))
    if kind == "from_endo":
        endo = random_endo(rng, group, rng.choice((0.02, 0.1, 0.5)))
        return QuadraticGate(build_quadratic(group, "from_endo", endo=endo))
    factor = rng.randrange(m)
    a = rng.randrange(1, d[factor])
    return QuadraticGate(build_quadratic(group, kind, factor=factor, a=a))


def random_circuit(rng, group, n_gates):
    return [random_gate(rng, group, rng.choice(KINDS)) for _ in range(n_gates)]


def inverse_gate(gate):
    if isinstance(gate, FourierGate):
        return FourierGate(gate.group, gate.targets, inverse=not gate.inverse)
    if isinstance(gate, AutomorphismGate):
        return AutomorphismGate(auto_inverse(gate.matrix))
    if isinstance(gate, QuadraticGate):
        xi = gate.encoding
        neg = [tuple(-v for v in part) for part in (xi.n_diag, xi.n_pair, xi.n_double)]
        return QuadraticGate(QuadraticEncoding(xi.group, *neg))
    return PauliGate(pauli_dagger(gate.label))


@pytest.mark.parametrize("case", CASES)
def test_tableau_matches_per_label_reference(case):
    rng, group = case_group(0, case)
    labels = [random_label(rng, group) for _ in range(rng.randint(1, 12))]
    gates = random_circuit(rng, group, 40)
    assert conjugate_circuit(labels, gates) == reference_circuit(labels, gates)


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_matches_reference_alone(kind):
    rng = random.Random(kind)
    for group in groups(rng, 6):
        labels = [random_label(rng, group) for _ in range(5)]
        gate = random_gate(rng, group, kind)
        assert conjugate_circuit(labels, [gate]) == reference_circuit(labels, [gate])


@pytest.mark.parametrize("kind", KINDS)
def test_single_label_conjugate_is_a_one_row_tableau(kind):
    rng = random.Random(100 + len(kind))
    for group in groups(rng, 6):
        label = random_label(rng, group)
        gate = random_gate(rng, group, kind)
        out = gate.conjugate(label)
        assert out == conjugate_circuit((label,), [gate])[0]
        assert out == reference_conjugate(gate, label)


@pytest.mark.parametrize("case", CASES)
def test_fourier_to_the_fourth_is_identity(case):
    rng, group = case_group(200, case)
    labels = tuple(random_label(rng, group) for _ in range(6))
    for i in range(group.num_factors):
        for inverse in (False, True):
            gate = FourierGate(group, (i,), inverse=inverse)
            assert conjugate_circuit(labels, [gate] * 4) == labels


@pytest.mark.parametrize("case", CASES)
def test_circuit_then_inverse_is_identity(case):
    rng, group = case_group(300, case, max_factors=24)
    labels = tuple(random_label(rng, group) for _ in range(6))
    gates = random_circuit(rng, group, 30)
    undo = [inverse_gate(g) for g in reversed(gates)]
    assert conjugate_circuit(labels, gates + undo) == labels


def _gates_over(group):
    return [
        FourierGate(group, (0,)),
        AutomorphismGate(EndoMatrix.identity(group)),
        QuadraticGate(quad_square(group, 0, 1)),
        PauliGate(pauli_label(group, 0, [1], [0])),
    ]


@pytest.mark.parametrize("index", range(4))
def test_gate_over_another_group_is_refused(index):
    z2, z3 = AbelianGroup((2,)), AbelianGroup((3,))
    label = pauli_label(z2, 0, [0], [1])
    gate = _gates_over(z3)[index]
    with pytest.raises(GroupMismatchError):
        conjugate_circuit((label,), [FourierGate(z2, (0,)), gate])
    with pytest.raises(GroupMismatchError):
        gate.conjugate(label)
    coset = CosetInput(z2, (), z2.zero())
    with pytest.raises(GroupMismatchError):
        simulate(coset, [gate])
    with pytest.raises(GroupMismatchError):
        eigenvector_check(coset, [gate])


def test_conjugation_builds_only_the_final_labels(monkeypatch):
    """Z_2^128 with 1,280 gates: GroupElements are built only for the output."""
    rng = random.Random(11)
    m = 128
    group = AbelianGroup((2,) * m)
    kinds = ["qft", "cross", "square", "pauli"] * (1280 // 4)
    rng.shuffle(kinds)
    gates = []
    for kind in kinds:
        if kind == "qft":
            gates.append(FourierGate(group, (rng.randrange(m),)))
        elif kind == "cross":
            i, j = rng.sample(range(m), 2)
            gates.append(QuadraticGate(build_quadratic(group, "cross", i=i, j=j, c=1)))
        elif kind == "square":
            gates.append(QuadraticGate(quad_square(group, rng.randrange(m), 1)))
        else:
            gates.append(PauliGate(random_label(rng, group)))
    labels = tuple(random_label(rng, group) for _ in range(m))
    built = 0
    reduced = GroupElement._reduced

    def counted(group, residues):
        nonlocal built
        built += 1
        return reduced(group, residues)

    monkeypatch.setattr(GroupElement, "_reduced", counted)
    out = conjugate_circuit(labels, gates)
    assert len(out) == m
    assert built <= 2 * m


def pauli_dense_circuit(rng, group, n_gates):
    """Runs of one to five Pauli gates between single other gates, with a
    Pauli gate first and last."""
    others = [k for k in KINDS if k != "pauli"]
    gates = []
    while len(gates) < n_gates:
        gates += [random_gate(rng, group, "pauli") for _ in range(rng.randint(1, 5))]
        gates.append(random_gate(rng, group, rng.choice(others)))
    gates.append(random_gate(rng, group, "pauli"))
    return gates


@pytest.mark.parametrize("case", CASES)
def test_pauli_frame_matches_per_label_reference(case):
    rng, group = case_group(400, case)
    labels = [random_label(rng, group) for _ in range(rng.randint(1, 8))]
    gates = pauli_dense_circuit(rng, group, 30)
    assert conjugate_circuit(labels, gates) == reference_circuit(labels, gates)
    for cut in (gates[:1], gates[1:], gates[:-1], gates[-2:]):
        assert conjugate_circuit(labels, cut) == reference_circuit(labels, cut)


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "pauli"])
def test_pauli_frame_on_either_side_of_each_kind(kind):
    rng = random.Random(500 + len(kind))
    for group in groups(rng, 4):
        labels = [random_label(rng, group) for _ in range(4)]
        p, q = (random_gate(rng, group, "pauli") for _ in range(2))
        g = random_gate(rng, group, kind)
        for gates in ([p, g], [g, p], [p, g, q], [p, q, g, g]):
            assert conjugate_circuit(labels, gates) == reference_circuit(labels, gates)


def test_labels_flush_the_frame_once():
    rng = random.Random(600)
    group = AbelianGroup((2, 4, 6, 9, 2**40, 10**9 + 7))
    labels = [random_label(rng, group) for _ in range(5)]
    first = pauli_dense_circuit(rng, group, 12)
    second = pauli_dense_circuit(rng, group, 12)
    tab = Tableau(labels)
    for gate in first:
        gate.conjugate(tab)
    read = tab.labels()
    assert read == reference_circuit(labels, first)
    assert tab.labels() == read
    # conjugation goes on after a read, with a fresh frame
    for gate in second:
        gate.conjugate(tab)
    assert tab.labels() == reference_circuit(labels, first + second)
    assert len(tab.phase) == len(labels)


def test_a_circuit_without_pauli_gates_adds_no_frame_row():
    rng = random.Random(700)
    group = random_group(rng, max_factors=8)
    labels = [random_label(rng, group) for _ in range(3)]
    tab = Tableau(labels)
    for gate in random_circuit(rng, group, 20):
        if not isinstance(gate, PauliGate):
            gate.conjugate(tab)
            assert len(tab.phase) == len(labels)
    PauliGate(random_label(rng, group)).conjugate(tab)
    assert len(tab.phase) == len(labels) + 1


def test_z2_labels_flush_the_frame_once():
    """The bit tableau's counterpart: its frame is two ints, zeroed by a read."""
    rng = random.Random(601)
    group = AbelianGroup((2,) * 65)
    labels = [random_label(rng, group) for _ in range(5)]
    first = pauli_dense_circuit(rng, group, 12)
    second = pauli_dense_circuit(rng, group, 12)
    tab = Tableau(labels)
    for gate in first:
        gate.conjugate(tab)
    assert (tab.fz, tab.fx) != (0, 0)
    read = tab.labels()
    assert read == reference_circuit(labels, first)
    assert (tab.fz, tab.fx) == (0, 0)
    assert tab.labels() == read
    for gate in second:
        gate.conjugate(tab)
    assert tab.labels() == reference_circuit(labels, first + second)
    assert len(tab.a) == len(labels)


def test_z2_frame_is_present_only_after_a_pauli_gate():
    """The bit tableau's counterpart: no row is ever added, and the frame
    stays zero until a Pauli gate puts that gate's parts into it."""
    rng = random.Random(701)
    group = AbelianGroup((2,) * 8)
    labels = [random_label(rng, group) for _ in range(3)]
    tab = Tableau(labels)
    for gate in random_circuit(rng, group, 20):
        if not isinstance(gate, PauliGate):
            gate.conjugate(tab)
            assert (tab.fz, tab.fx) == (0, 0)
            assert all(c >> len(labels) == 0 for c in (*tab.z, *tab.x))
    gate = PauliGate(pauli_label(group, 1, [1, 0, 1] + [0] * 5, [0] * 7 + [1]))
    gate.conjugate(tab)
    assert (tab.fz, tab.fx) == (0b101, 0b10000000)
    assert all(c >> len(labels) == 0 for c in (*tab.z, *tab.x))
