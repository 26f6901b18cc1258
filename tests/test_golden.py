"""Golden seeded sample streams.

`sample_stream` makes one draw per shot and decodes it over the
canonical form of the output coset, so a stream is a function of the
coset and the seed alone, on any platform. The draws are the values of
one randrange(|S|) call per shot, taken from blocks of MT19937 words:
the top byte of a word for |S| <= 255, a shifted word up to 2^32 - 1,
randrange itself above. The first 20 shots at seed 7 of six fixed
circuits are pinned here as literals, the last three with |S| = 210,
256 and 3^20, pinned with one randrange call per shot before draws
came from word blocks: a change to gate conjugation or readout that
keeps every coset keeps these shots, and a change that moves a coset
or the sampler fails here. Streams moved once, in 0.2.0, from one draw
per support generator to one per shot.
"""

import pytest

from normsim.engine import (
    AutomorphismGate,
    CosetInput,
    FourierGate,
    PauliGate,
    QuadraticGate,
    init_stabilizer,
    sample_stream,
    simulate,
)
from normsim.groups import AbelianGroup
from normsim.homs import EndoMatrix, endo_validate, subgroup_contains
from normsim.pauli import PauliLabel, pauli_label
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


def mixed_210():
    """|S| = 210 < 2^8, so a draw is a word's top byte and 46 of its 256
    values are rejected."""
    g = AbelianGroup((3, 4, 5, 7, 6))
    gates = [
        FourierGate(g, (0, 2, 3)),
        _shear(g, 4, 0, 1),
        QuadraticGate(quad_square(g, 2, 2)),
        QuadraticGate(quad_cross(g, 3, 2, 5)),
        QuadraticGate(quad_half(g, 1, 1)),
        PauliGate(pauli_label(g, 5, [1, 3, 2, 6, 5], [2, 1, 4, 3, 1])),
        _shear(g, 0, 4, 2),
    ]
    return _coset(g, [(0, 2, 0, 0, 3)], (1, 1, 3, 5, 2)), gates


def z4_256():
    """|S| = 256, the largest coset held whole: a draw is a word's top 9
    bits, rejected half of the time."""
    g = AbelianGroup((4, 4, 4, 4, 3))
    gates = [FourierGate(g, (0, 1, 2, 3))]
    gates += [_shear(g, i, i + 1, 3) for i in (0, 1, 2)]
    gates += [QuadraticGate(quad_cross(g, 0, 3, 1)), QuadraticGate(quad_half(g, 2, 1))]
    gates.append(PauliGate(pauli_label(g, 3, [1, 2, 3, 0, 2], [3, 0, 1, 2, 1])))
    return _coset(g, [], (0, 1, 0, 2, 1)), gates


def z9_3_20():
    """|S| = 3^20 < 2^32, so a draw is a whole word."""
    g = AbelianGroup((9,) * 10 + (2,))
    gates = [FourierGate(g, tuple(range(10)))]
    gates += [_shear(g, i, i + 1, 2) for i in range(0, 9, 2)]
    gates += [QuadraticGate(quad_square(g, i, i + 1)) for i in (1, 4, 7)]
    gates.append(QuadraticGate(quad_cross(g, 3, 8, 4)))
    z, x = [1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 1], [8, 7, 6, 5, 4, 3, 2, 1, 0, 2, 0]
    gates.append(PauliGate(pauli_label(g, 7, z, x)))
    return _coset(g, [], (0,) * 10 + (1,)), gates


def first_shots(circuit):
    coset, gates = circuit
    dist = simulate(coset, gates)
    return [s.residues for s in sample_stream(dist, 20, seed=7)]


CIRCUITS = [bell, clifford_z2_8, mixed_moduli, mixed_210, z4_256, z9_3_20]
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
    "mixed_210": [
        (1, 2, 3, 2, 5), (2, 0, 1, 1, 4), (2, 2, 1, 3, 1), (1, 2, 2, 5, 5),
        (0, 0, 2, 0, 0), (0, 0, 3, 0, 0), (2, 2, 2, 4, 1), (0, 0, 4, 0, 0),
        (0, 2, 0, 3, 3), (2, 2, 4, 4, 1), (2, 0, 2, 0, 4), (0, 2, 1, 4, 3),
        (0, 0, 4, 1, 0), (0, 2, 1, 0, 3), (1, 2, 3, 0, 5), (0, 2, 3, 3, 3),
        (2, 2, 2, 3, 1), (2, 2, 2, 0, 1), (1, 0, 0, 2, 2), (2, 2, 3, 0, 1),
    ],
    "z4_256": [
        (1, 1, 2, 2, 2), (1, 3, 0, 1, 2), (2, 2, 0, 3, 2), (0, 2, 1, 0, 2),
        (1, 1, 2, 0, 2), (0, 0, 3, 0, 2), (3, 2, 3, 2, 2), (1, 3, 1, 0, 2),
        (1, 3, 2, 1, 2), (3, 0, 1, 0, 2), (0, 3, 2, 0, 2), (2, 3, 1, 3, 2),
        (2, 1, 1, 3, 2), (3, 0, 2, 0, 2), (3, 2, 3, 1, 2), (2, 3, 2, 0, 2),
        (1, 2, 1, 3, 2), (2, 3, 1, 0, 2), (3, 3, 3, 0, 2), (2, 0, 3, 1, 2),
    ],
    "z9_3_20": [
        (2, 5, 0, 6, 1, 1, 7, 2, 5, 3, 1), (0, 1, 1, 0, 1, 1, 4, 0, 6, 1, 1),
        (8, 4, 1, 6, 6, 7, 4, 3, 3, 4, 1), (0, 8, 3, 2, 1, 6, 4, 8, 1, 7, 1),
        (4, 3, 6, 2, 1, 2, 3, 7, 4, 0, 1), (6, 3, 6, 2, 6, 3, 0, 2, 7, 0, 1),
        (5, 5, 6, 4, 6, 7, 1, 4, 8, 5, 1), (3, 4, 3, 4, 5, 6, 4, 3, 0, 1, 1),
        (3, 3, 2, 5, 5, 3, 3, 4, 0, 4, 1), (5, 1, 5, 1, 4, 8, 2, 1, 4, 6, 1),
        (1, 5, 6, 2, 5, 6, 0, 7, 5, 0, 1), (8, 3, 0, 0, 6, 8, 5, 5, 5, 5, 1),
        (0, 2, 1, 8, 1, 1, 7, 3, 3, 2, 1), (5, 7, 8, 3, 2, 0, 6, 6, 3, 0, 1),
        (8, 8, 5, 7, 3, 5, 1, 5, 8, 0, 1), (4, 5, 4, 4, 4, 5, 3, 2, 7, 4, 1),
        (5, 6, 7, 1, 0, 5, 4, 6, 5, 4, 1), (4, 1, 3, 7, 8, 4, 6, 8, 6, 0, 1),
        (3, 1, 1, 0, 7, 8, 0, 0, 6, 2, 1), (0, 0, 6, 5, 0, 1, 4, 0, 0, 1, 1),
    ],
}


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_seed_7_stream_is_pinned(circuit):
    assert first_shots(circuit()) == GOLDEN[circuit.__name__]


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_pinned_shots_lie_in_the_output_coset(circuit):
    """A re-pin may move the draws, never the distribution they come from."""
    coset, gates = circuit()
    dist = simulate(coset, gates)
    for shot in GOLDEN[circuit.__name__]:
        diff = dist.group.element(shot) - dist.offset
        assert subgroup_contains(dist.support, diff)


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_simulate_builds_labels_in_init_only(circuit, monkeypatch):
    """simulate builds the init labels and no other: conjugation and
    readout work on the Tableau's columns and rows, over Z_2^m and over
    mixed moduli, Pauli frame included."""
    coset, gates = circuit()
    expected = len(init_stabilizer(coset))
    built = 0
    reduced = PauliLabel._reduced.__func__

    def counted(cls, *parts):
        nonlocal built
        built += 1
        return reduced(cls, *parts)

    monkeypatch.setattr(PauliLabel, "_reduced", classmethod(counted))
    simulate(coset, gates)
    assert built == expected
