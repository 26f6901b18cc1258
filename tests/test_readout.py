"""Plain-int readout and packed sampler against slow references.

`reference_output_distribution` in helpers.py reads out through
`pauli_mul`/`pauli_pow` products and its own slack-column congruence
solver, as the engine did before, and `reference_sample` decodes the
shot's one draw over the canonical rows with `GroupElement` arithmetic.
The engine must give the same coset (the offsets may be different
representatives of it), the same support generators, the same shots and
leave the generator in the same state, on random circuits of every gate
kind and on distributions built by hand.
"""

import random

import pytest

import normsim.engine as engine
import normsim.pauli as pauli
from helpers import reference_output_distribution, reference_sample
from normsim.engine import (
    CosetInput,
    EngineError,
    FourierGate,
    OutputDistribution,
    QuadraticGate,
    conjugate_circuit,
    init_stabilizer,
    output_distribution,
)
from normsim.groups import AbelianGroup, GroupMismatchError
from normsim.homs import Subgroup, subgroup_contains
from normsim.intlinalg import kernel_basis
from normsim.pauli import pauli_label
from normsim.quadratic import build_quadratic
from test_tableau import random_circuit, random_group

SHOTS = 200


def random_coset(rng, group):
    def element():
        return group.element([rng.randrange(d) for d in group.moduli])

    return CosetInput(group, tuple(element() for _ in range(rng.randint(0, 3))), element())


def assert_same_coset(dist, ref):
    assert dist.canonical == ref.canonical
    assert subgroup_contains(dist.support, dist.offset - ref.offset)


def assert_same_stream(dist, ref, seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    shots = [dist.sample(rng) for _ in range(SHOTS)]
    assert shots == [reference_sample(ref, ref_rng) for _ in range(SHOTS)]
    printed = ["(" + ",".join(str(r) for r in s.residues) + ")" for s in shots]
    assert [str(s) for s in shots] == printed
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("seed", range(12))
def test_readout_and_stream_match_reference(seed):
    rng = random.Random(f"readout:{seed}")
    group = random_group(rng)
    gates = random_circuit(rng, group, 30)
    labels = conjugate_circuit(init_stabilizer(random_coset(rng, group)), gates)
    dist = output_distribution(labels)
    ref = reference_output_distribution(labels)
    assert_same_coset(dist, ref)
    assert dist.support.generators == ref.support.generators
    assert_same_stream(dist, ref, seed)


def _dist(moduli, offset, gens):
    group = AbelianGroup(moduli)
    support = Subgroup(group, tuple(map(group.element, gens)))
    return OutputDistribution(group, group.element(offset), support)


HAND_BUILT = {
    # the zero generator adds no canonical row
    "zero_generator": _dist((4, 6, 9), (1, 2, 3), [(2, 0, 3), (0, 0, 0), (1, 1, 1)]),
    "empty_support": _dist((16, 10**9 + 7), (5, 12345), []),
    "order_one_factor": _dist((1, 4, 1, 27), (0, 3, 0, 26), [(0, 1, 0, 9), (0, 2, 0, 1)]),
    # every residue at its top, so fields reach their bound
    "shifted_offset": _dist(
        (2**40, 6, 27, 2),
        (2**40 - 1, 5, 26, 1),
        [(2**40 - 1, 5, 26, 1), (2**39, 3, 9, 0), (1, 1, 1, 1)],
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_distribution_streams_match_reference(name):
    dist = HAND_BUILT[name]
    assert_same_stream(dist, dist, 7)


Z2 = AbelianGroup((2,))
INCONSISTENT = {
    "empty": (),
    "odd_phase": (pauli_label(Z2, 1, [0], [0]),),
    "scalar": (pauli_label(Z2, 2, [0], [0]),),
    "unsatisfiable": (pauli_label(Z2, 0, [1], [0]), pauli_label(Z2, 2, [1], [0])),
}


@pytest.mark.parametrize("name", sorted(INCONSISTENT))
def test_inconsistent_sets_raise_the_reference_error(name):
    labels = INCONSISTENT[name]
    with pytest.raises(EngineError) as ref:
        reference_output_distribution(labels)
    with pytest.raises(EngineError) as err:
        output_distribution(labels)
    assert str(err.value) == str(ref.value)


def test_parts_over_another_group_are_refused():
    z2z3, z4z5 = AbelianGroup((2, 3)), AbelianGroup((4, 5))
    offset = z4z5.element((0, 2))
    support = Subgroup(z4z5, (z4z5.element((1, 0)),))
    with pytest.raises(GroupMismatchError):
        OutputDistribution(z2z3, offset, support)
    with pytest.raises(GroupMismatchError):
        OutputDistribution(z2z3, z2z3.zero(), support)
    with pytest.raises(GroupMismatchError):
        OutputDistribution(z4z5, z2z3.zero(), support)


def test_readout_builds_no_labels_on_z2_64(monkeypatch):
    """One GroupElement per kernel vector plus the offset, no label products."""
    rng = random.Random(64)
    m = 64
    group = AbelianGroup((2,) * m)
    gates = [FourierGate(group, tuple(range(0, m, 2)))]
    for _ in range(200):
        i, j = rng.sample(range(m), 2)
        gates.append(QuadraticGate(build_quadratic(group, "cross", i=i, j=j, c=1)))
        gates.append(FourierGate(group, (rng.randrange(m),)))
    labels = conjugate_circuit(init_stabilizer(random_coset(rng, group)), gates)
    rows = [[s.x_part.residues[j] for s in labels] for j in range(m)]
    r = len(kernel_basis(rows, num_cols=len(labels), moduli=group.moduli))
    ref = reference_output_distribution(labels)

    calls = {"pauli_mul": 0, "pauli_pow": 0, "elements": 0}
    for module in (engine, pauli):
        for name in ("pauli_mul", "pauli_pow"):
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
    element = AbelianGroup.element

    def counted_element(group, residues):
        calls["elements"] += 1
        return element(group, residues)

    monkeypatch.setattr(AbelianGroup, "element", counted_element)
    dist = output_distribution(labels)
    assert calls["pauli_mul"] == calls["pauli_pow"] == 0
    assert 0 < calls["elements"] <= r + 1
    assert dist.support == ref.support
    assert_same_coset(dist, ref)


def test_labels_over_different_groups_are_refused():
    z3 = AbelianGroup((3,))
    labels = (pauli_label(Z2, 0, [1], [0]), pauli_label(z3, 0, [1], [0]))
    with pytest.raises(GroupMismatchError, match="labels over different groups"):
        output_distribution(labels)
