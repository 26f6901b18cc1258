"""Golden seeded sample streams.

`sample_stream` makes one draw per shot and decodes it over the
canonical form of the output coset, so a stream is a function of the
coset and the seed alone, on any platform. The first 20 shots at seed 7
of three fixed circuits are pinned here as literals: a change to gate
conjugation or readout that keeps every coset keeps these shots, and a
change that moves a coset or the sampler fails here. Streams moved
once, in 0.2.0, from one draw per support generator to one per shot.
"""

import pytest

from normsim.engine import (
    AutomorphismGate,
    CosetInput,
    FourierGate,
    PauliGate,
    QuadraticGate,
    sample_stream,
    simulate,
)
from normsim.groups import AbelianGroup
from normsim.homs import EndoMatrix, endo_validate, subgroup_contains
from normsim.pauli import pauli_label
from normsim.quadratic import quad_cross, quad_half, quad_square


def _coset(group, gens, shift):
    return CosetInput(
        group, tuple(group.element(g) for g in gens), group.element(shift)
    )


def _shear(group, src, dst, k):
    """Automorphism e^src -> e^src + k e^dst, the other units fixed."""
    cols = [list(u.residues) for u in group.units()]
    cols[src][dst] = k
    return AutomorphismGate(endo_validate(group, cols))


def bell():
    g = AbelianGroup((2, 2))
    gates = [FourierGate(g, (0,)), _shear(g, 0, 1, 1)]
    return _coset(g, [], (0, 0)), gates


def clifford_z2_8():
    g = AbelianGroup((2,) * 8)
    gates = [FourierGate(g, tuple(range(8)))]
    gates += [QuadraticGate(quad_cross(g, i, i + 1, 1)) for i in (0, 2, 4, 6)]
    gates += [QuadraticGate(quad_half(g, i, 1)) for i in (1, 3)]
    gates.append(FourierGate(g, (0, 2, 4, 6)))
    gates += [_shear(g, i, i + 1, 1) for i in (0, 3, 6)]
    z, x = [1, 0, 0, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0, 0, 1]
    gates.append(PauliGate(pauli_label(g, 1, z, x)))
    gates.append(QuadraticGate(quad_square(g, 5, 1)))
    gates.append(FourierGate(g, (1, 5), inverse=True))
    gates.append(_shear(g, 7, 2, 1))
    return _coset(g, [], (0,) * 8), gates


def mixed_moduli():
    g = AbelianGroup((4, 6, 2**40, 9, 10**9 + 7))
    gates = [
        FourierGate(g, (0, 2)),
        _shear(g, 2, 0, 1),
        QuadraticGate(quad_square(g, 2, 5)),
        QuadraticGate(quad_cross(g, 2, 0, 1)),
        _shear(g, 3, 1, 2),
        QuadraticGate(quad_half(g, 1, 1)),
        PauliGate(pauli_label(g, 3, [1, 2, 7, 4, 11], [3, 1, 2**39 + 5, 8, 12345])),
        FourierGate(g, (1, 3, 4)),
        AutomorphismGate(EndoMatrix.identity(g)),
    ]
    return _coset(g, [(2, 3, 0, 3, 0)], (1, 0, 17, 2, 99)), gates


def first_shots(circuit):
    coset, gates = circuit
    dist = simulate(coset, gates)
    return [s.residues for s in sample_stream(dist, 20, seed=7)]


GOLDEN = {
    "bell": [
        (1, 1), (0, 0), (1, 1), (0, 0), (0, 0),
        (0, 0), (1, 1), (0, 0), (0, 0), (0, 0),
        (0, 0), (1, 1), (1, 1), (0, 0), (0, 0),
        (0, 0), (1, 1), (0, 0), (0, 0), (0, 0),
    ],
    "clifford_z2_8": [
        (1, 0, 0, 0, 1, 0, 1, 1), (1, 1, 0, 0, 0, 1, 0, 1),
        (0, 1, 0, 0, 0, 1, 1, 1), (0, 1, 1, 1, 0, 0, 0, 1),
        (1, 0, 0, 0, 1, 0, 0, 1), (0, 0, 1, 1, 1, 0, 0, 1),
        (0, 1, 1, 1, 1, 0, 1, 1), (1, 1, 1, 1, 0, 0, 0, 1),
        (1, 1, 0, 0, 1, 1, 0, 1), (0, 0, 1, 1, 0, 0, 0, 1),
        (1, 1, 0, 0, 1, 0, 0, 1), (1, 1, 1, 1, 0, 1, 1, 1),
        (1, 0, 1, 1, 0, 1, 1, 1), (0, 0, 0, 0, 1, 0, 0, 1),
        (0, 1, 1, 1, 1, 1, 0, 1), (1, 1, 0, 0, 1, 0, 0, 1),
        (0, 1, 1, 1, 0, 1, 1, 1), (1, 1, 1, 1, 0, 0, 0, 1),
        (1, 1, 1, 1, 1, 0, 0, 1), (0, 0, 1, 1, 1, 1, 0, 1),
    ],
    "mixed_moduli": [
        (0, 4, 269925063895, 5, 287996726),
        (2, 5, 564143027957, 8, 92193349),
        (1, 1, 988568685274, 5, 968630166),
        (0, 1, 771700879251, 8, 164052626),
        (2, 0, 944075624185, 5, 133383101),
        (1, 0, 992420733706, 8, 118127377),
        (3, 5, 135573703389, 2, 757208313),
        (0, 3, 128142065350, 8, 422221069),
        (1, 1, 255932300615, 5, 800014463),
        (0, 5, 546202489926, 8, 224754269),
        (3, 3, 118257652140, 8, 345023913),
        (3, 5, 768376613090, 2, 710745288),
        (3, 1, 401411721730, 2, 113843749),
        (1, 0, 269083102994, 2, 947494662),
        (0, 1, 63472529934, 8, 816149044),
        (0, 4, 501039651403, 8, 888799615),
        (1, 0, 1077962624702, 8, 865173868),
        (0, 2, 1084722906894, 5, 474259219),
        (0, 4, 549000584982, 2, 156178194),
        (2, 3, 860334762517, 2, 655680430),
    ],
}


@pytest.mark.parametrize("circuit", [bell, clifford_z2_8, mixed_moduli])
def test_seed_7_stream_is_pinned(circuit):
    assert first_shots(circuit()) == GOLDEN[circuit.__name__]


@pytest.mark.parametrize("circuit", [bell, clifford_z2_8, mixed_moduli])
def test_pinned_shots_lie_in_the_output_coset(circuit):
    """A re-pin may move the draws, never the distribution they come from."""
    coset, gates = circuit()
    dist = simulate(coset, gates)
    for shot in GOLDEN[circuit.__name__]:
        diff = dist.group.element(shot) - dist.offset
        assert subgroup_contains(dist.support, diff)
