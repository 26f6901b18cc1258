"""Golden seeded sample streams.

`sample_stream` promises the same shots for the same seed on any
platform and across versions. The first 20 shots at seed 7 of three
fixed circuits are pinned here as literals, so a change to gate
conjugation, readout or the sampler that moves a stream fails here.
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
from normsim.homs import EndoMatrix, endo_validate
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
        (0, 0), (1, 1), (1, 1), (0, 0), (0, 0),
        (0, 0), (0, 0), (0, 0), (1, 1), (0, 0),
        (0, 0), (1, 1), (1, 1), (0, 0), (1, 1),
        (0, 0), (1, 1), (0, 0), (0, 0), (1, 1),
    ],
    "clifford_z2_8": [
        (1, 0, 0, 0, 1, 0, 0, 1), (1, 0, 1, 1, 1, 1, 0, 1),
        (1, 1, 1, 1, 0, 0, 0, 1), (0, 1, 1, 1, 0, 1, 1, 1),
        (0, 1, 0, 0, 1, 0, 0, 1), (0, 1, 0, 0, 0, 0, 1, 1),
        (0, 0, 1, 1, 1, 0, 0, 1), (0, 0, 1, 1, 0, 1, 0, 1),
        (1, 1, 1, 1, 0, 1, 1, 1), (1, 0, 0, 0, 0, 0, 1, 1),
        (0, 1, 1, 1, 0, 0, 0, 1), (1, 1, 0, 0, 1, 1, 1, 1),
        (0, 0, 1, 1, 1, 1, 0, 1), (1, 0, 1, 1, 1, 1, 1, 1),
        (1, 1, 0, 0, 1, 0, 1, 1), (0, 0, 1, 1, 1, 0, 1, 1),
        (1, 0, 1, 1, 1, 0, 0, 1), (0, 0, 1, 1, 1, 0, 1, 1),
        (0, 0, 1, 1, 0, 0, 0, 1), (1, 1, 0, 0, 0, 0, 0, 1),
    ],
    "mixed_moduli": [
        (3, 0, 944581693645, 5, 420305067),
        (3, 4, 858034655143, 2, 799030709),
        (0, 3, 856541403560, 2, 264778856),
        (2, 3, 139075294799, 8, 253332197),
        (3, 5, 18125493728, 8, 19841323),
        (0, 4, 3586460460, 5, 356904630),
        (0, 3, 640822469411, 8, 887607286),
        (3, 0, 966852799864, 2, 995315234),
        (3, 4, 838070861136, 5, 421042258),
        (0, 0, 592055665219, 8, 801848109),
        (0, 5, 273509480203, 8, 105428919),
        (2, 4, 908840334163, 5, 853124694),
        (2, 5, 802723098212, 5, 193386987),
        (0, 3, 650833619497, 5, 428692408),
        (3, 5, 1039592601005, 2, 347841912),
        (2, 4, 928692455146, 8, 461025614),
        (1, 0, 642021853000, 2, 881038018),
        (2, 2, 616806542329, 5, 72353558),
        (2, 4, 481264842259, 2, 265062571),
        (0, 5, 468420010262, 2, 9119381),
    ],
}


@pytest.mark.parametrize("circuit", [bell, clifford_z2_8, mixed_moduli])
def test_seed_7_stream_is_pinned(circuit):
    assert first_shots(circuit()) == GOLDEN[circuit.__name__]
