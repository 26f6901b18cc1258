"""Wide groups: init, readout and the CLI on 32-128 factors, in bounded time.

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

from normsim.cli import main
from normsim.engine import (
    CosetInput,
    FourierGate,
    PauliGate,
    QuadraticGate,
    conjugate_circuit,
    init_stabilizer,
    output_distribution,
)
from normsim.groups import AbelianGroup, character_exponent
from normsim.homs import Subgroup, orthogonal_subgroup, solve_character_system
from normsim.pauli import pauli_label
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


def clifford_wide_labels(seed: int, m: int = 128, per_kind: int = 320):
    """The final labels of perfbench's make_clifford_wide(m, per_kind)
    circuit for random.Random(seed), built from gate objects: Z_2^m,
    4 coset generators, per_kind each of qft, cross, square and Pauli."""
    rng = random.Random(seed)
    group = AbelianGroup((2,) * m)
    gens = tuple(random_element(rng, group) for _ in range(4))
    coset = CosetInput(group, gens, random_element(rng, group))
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
            a = rng.randrange(group.phase_modulus)
            z, x = random_element(rng, group), random_element(rng, group)
            gates.append(PauliGate(pauli_label(group, a, z.residues, x.residues)))
    return conjugate_circuit(init_stabilizer(coset), gates)


def test_readout_on_z2_128_is_label_order_free():
    for seed in (2, 3):
        labels = clifford_wide_labels(seed)
        start = time.perf_counter()
        dist = output_distribution(labels)
        assert time.perf_counter() - start < 2.0
        assert dist.canonical == output_distribution(labels[::-1]).canonical


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
