"""Wide groups: init, readout, sampling and the CLI on 32-1024 factors,
in bounded time.

The congruence systems of init and readout once ran mod |G| with
unreduced entries, which is 2^128 on Z_2^128 and about 10^60 on 64
mixed factors; their coefficients grew without bound and these inputs
did not finish. Each case here carries a wall-clock bound far above
its time mod N = lcm(d) and far below the old one. Circuits are built
from gate objects, so no dense parse enters the timings.
"""

import math
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import echelon_coset
from normsim.cli import main
from normsim.engine import (
    CosetInput,
    FourierGate,
    PauliGate,
    QuadraticGate,
    conjugate_circuit,
    init_stabilizer,
    output_distribution,
    sample_stream,
)
from normsim.groups import AbelianGroup, GroupElement, PhaseExponent, character_exponent
from normsim.homs import Subgroup, orthogonal_subgroup, solve_character_system
from normsim.pauli import PauliLabel
from normsim.quadratic import build_quadratic

MIXED = (2, 4, 6, 9, 16, 27)


def random_element(rng, group):
    return group.element([rng.randrange(d) for d in group.moduli])


def assert_orthogonal_duality(H: Subgroup, perp: Subgroup):
    """|H| |H^perp| = |G|, and every pairing of generators is trivial."""
    assert H.howell.order * perp.howell.order == H.group.order
    for h in H.generators:
        for v in perp.generators:
            assert character_exponent(h, v) == 0


def test_init_stabilizer_on_64_mixed_factors():
    rng = random.Random(64)
    group = AbelianGroup(tuple(rng.choice(MIXED) for _ in range(64)))
    gens = tuple(random_element(rng, group) for _ in range(32))
    coset = CosetInput(group, gens, random_element(rng, group))
    start = time.perf_counter()
    labels = init_stabilizer(coset)
    assert time.perf_counter() - start < 2.0
    perp = Subgroup(group, tuple(s.z_part for s in labels[len(gens):]))
    assert_orthogonal_duality(coset.subgroup, perp)


def random_bits(rng, group):
    """An element of Z_2^m from one getrandbits call."""
    m = group.num_factors
    return GroupElement(group, tuple(map(int, format(rng.getrandbits(m), f"0{m}b"))))


def clifford_wide_circuit(seed, m=128, per_kind=320, n_gens=4, draw=random_element):
    """perfbench's make_clifford_wide(m, per_kind) circuit for
    random.Random(seed), built from gate objects: Z_2^m, n_gens coset
    generators, per_kind each of qft, cross, square and Pauli, and every
    random element drawn by draw(rng, group)."""
    rng = random.Random(seed)
    group = AbelianGroup((2,) * m)
    gens = tuple(draw(rng, group) for _ in range(n_gens))
    coset = CosetInput(group, gens, draw(rng, group))
    kinds = ["qft", "cross", "square", "pauli"] * per_kind
    rng.shuffle(kinds)
    gates = []
    for kind in kinds:
        if kind == "qft":
            gates.append(FourierGate(group, (rng.randrange(m),)))
        elif kind == "cross":
            i, j = rng.sample(range(m), 2)
            gates.append(QuadraticGate(build_quadratic(group, "cross", i=i, j=j, c=1)))
        elif kind == "square":
            enc = build_quadratic(group, "square", factor=rng.randrange(m), a=1)
            gates.append(QuadraticGate(enc))
        else:
            a = PhaseExponent(group, rng.randrange(group.phase_modulus))
            gates.append(PauliGate(PauliLabel(a, draw(rng, group), draw(rng, group))))
    return coset, gates


def clifford_wide_labels(seed: int, m: int = 128, per_kind: int = 320):
    """The final labels of clifford_wide_circuit(seed, m, per_kind)."""
    coset, gates = clifford_wide_circuit(seed, m, per_kind)
    return conjugate_circuit(init_stabilizer(coset), gates)


def test_conjugation_on_z2_1024_with_10240_gates_and_back():
    """The bit tableau: about 0.3 s on a 2-core box, where the list
    tableau took 3.2-4.8 s. Over Z_2 every gate here but qft is its own
    inverse under conjugation, and the inverse qft undoes qft."""
    coset, gates = clifford_wide_circuit(
        5, m=1024, per_kind=2560, n_gens=512, draw=random_bits
    )
    labels = init_stabilizer(coset)
    assert len(labels) == 1024
    start = time.perf_counter()
    out = conjugate_circuit(labels, gates)
    assert time.perf_counter() - start < 1.5
    undo = [
        FourierGate(g.group, g.targets, inverse=True)
        if isinstance(g, FourierGate) else g
        for g in reversed(gates)
    ]
    assert conjugate_circuit(out, undo) == labels


def test_readout_on_z2_128_is_label_order_free():
    for seed in (2, 3):
        labels = clifford_wide_labels(seed)
        start = time.perf_counter()
        dist = output_distribution(labels)
        assert time.perf_counter() - start < 2.0
        assert dist.canonical == output_distribution(labels[::-1]).canonical


def test_readout_and_canonical_form_on_z2_256_with_2560_gates():
    """Readout plus canonical form in one Howell elimination on bit-packed
    rows: about 0.2 s on a 2-core box, where three list eliminations and
    one label product per kernel vector took 1.2-1.4 s."""
    labels = clifford_wide_labels(4, m=256, per_kind=640)
    start = time.perf_counter()
    dist = output_distribution(labels)
    dist.canonical
    assert time.perf_counter() - start < 0.6
    assert dist.canonical[1].order == 2 ** len(dist.support.generators)


def test_orthogonal_subgroup_and_character_system_on_z2_512():
    """Both go straight to solve_mod: about 0.2 s together on a 2-core
    box, where re-checking every kernel vector of the same systems took
    about 2.9 s."""
    rng = random.Random(512)
    group = AbelianGroup((2,) * 512)
    H = Subgroup(group, tuple(random_element(rng, group) for _ in range(256)))
    target = random_element(rng, group)
    phases = [character_exponent(target, h) // 2 for h in H.generators]
    start = time.perf_counter()
    perp = orthogonal_subgroup(H)
    x = solve_character_system(group, H.generators, phases)
    assert time.perf_counter() - start < 0.5
    assert H.howell.order * perp.howell.order == group.order
    assert x is not None
    for h, s in zip(H.generators, phases):
        assert character_exponent(x, h) == 2 * s


def test_2000_shots_with_str_on_z2_1024_with_1022_support_rows():
    """The bit-packed decode, one XOR per 8 rows from tables indexed by
    the draw's bytes: about 0.1 s with its tables on a 2-core box, where
    11-bit fields split by shift and mask took 0.76-0.82 s."""
    dist = echelon_coset(random.Random(3), (2,) * 1024, 1022)
    start = time.perf_counter()
    lines = [str(shot) for shot in sample_stream(dist, 2000, 7)]
    assert time.perf_counter() - start < 0.3
    assert len(set(lines)) == 2000 and all(len(s) == 2049 for s in lines)


def test_support_on_32_mixed_factors_exits_0(tmp_path, capsys):
    rng = random.Random(32)
    group = AbelianGroup(tuple(rng.choice(MIXED) for _ in range(32)))
    gens = ",".join(str(random_element(rng, group)) for _ in range(16))
    path = tmp_path / "wide.nc"
    path.write_text(
        f"group: {' '.join(map(str, group.moduli))}\n"
        f"state: coset gens=[{gens}] shift={random_element(rng, group)}\n"
        "gate: qft targets=[1]\n"
    )
    start = time.perf_counter()
    assert main(["support", str(path)]) == 0
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out


WIDE_MODULI = (2, 3, 4, 6, 9, 16, 27, 2**40, 10**9 + 7)


@st.composite
def wide_subgroups(draw):
    """Up to 64 factors, moduli up to 2^40 and 10^9+7, up to m/2 generators."""
    m = draw(st.integers(1, 64))
    moduli = draw(st.lists(st.sampled_from(WIDE_MODULI), min_size=m, max_size=m))
    group = AbelianGroup(tuple(moduli))
    element = st.tuples(*(st.integers(0, d - 1) for d in moduli)).map(group.element)
    k = draw(st.integers(0, m // 2))
    gens = draw(st.lists(element, min_size=k, max_size=k))
    return Subgroup(group, tuple(gens)), draw(element)


@settings(max_examples=30, deadline=5000)
@given(wide_subgroups())
def test_wide_orthogonal_duality_and_character_systems(case):
    H, target = case
    group = H.group
    assert_orthogonal_duality(H, orthogonal_subgroup(H))
    # chi_h(target) for each generator, as a phase s with gamma^(2s)
    phases = [character_exponent(target, h) // 2 for h in H.generators]
    x = solve_character_system(group, H.generators, phases)
    assert x is not None
    for h, s in zip(H.generators, phases):
        assert character_exponent(x, h) == 2 * s
    # a phase that is no N-th root of unity has no solution
    if H.generators and group.order // math.lcm(*group.moduli) > 1:
        assert solve_character_system(group, H.generators[:1], [1]) is None
