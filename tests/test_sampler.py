"""The one-draw sampler over the canonical form of the output coset.

`OutputDistribution.canonical` is the Howell basis of the support plus
the offset reduced against it; `sample` makes one randrange(|S|) per
shot and decodes it in mixed radix over those rows. The decode must
reach every coset element exactly once, the stream must depend on the
coset and the seed alone, a shot must be exactly one draw, the
canonical form must tell cosets apart exactly as the benchmark's HNF
form does, and enumeration must be bounded by the coset, not the group.
"""

import contextlib
import importlib.util
import io
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import span_closure
from normsim.cli import main
from normsim.engine import (
    CosetInput,
    FourierGate,
    OutputDistribution,
    sample_stream,
    simulate,
)
from normsim.groups import ENUM_BOUND, AbelianGroup, BoundExceeded
from normsim.homs import Subgroup, subgroup_members

CHECKS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
WIDE_MODULI = (2, 3, 4, 6, 9, 16, 27, 2**40, 10**9 + 7)


def _load_checks():
    name = "_bench_checks"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, CHECKS_PY)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


class Replay:
    """Stands in for random.Random: randrange returns the given values."""

    def __init__(self, values):
        self.values = iter(values)
        self.ranges = []

    def randrange(self, n):
        r = next(self.values)
        assert 0 <= r < n
        self.ranges.append(n)
        return r


def random_dist(rng, moduli_pool=range(2, 19), max_order=4096, group=None):
    """A coset with 0-4 generators, each the zero element with odds 1/5."""
    while group is None:
        moduli = tuple(rng.choice(moduli_pool) for _ in range(rng.randint(1, 4)))
        if AbelianGroup(moduli).order <= max_order:
            group = AbelianGroup(moduli)

    def element():
        return group.element([rng.randrange(d) for d in group.moduli])

    gens = tuple(
        element() if rng.random() < 0.8 else group.zero()
        for _ in range(rng.randint(0, 4))
    )
    return OutputDistribution(group, element(), Subgroup(group, gens))


def coset_of(dist):
    d = dist.group.moduli
    span = span_closure(d, [h.residues for h in dist.support.generators])
    x = dist.offset.residues
    return {tuple((a + b) % dj for a, b, dj in zip(x, h, d)) for h in span}


@pytest.mark.parametrize("seed", range(8))
def test_decode_reaches_each_coset_element_once(seed):
    rng = random.Random(f"bijection:{seed}")
    seen = set()
    for _ in range(60):
        dist = random_dist(rng)
        gens = dist.support.generators
        seen.add("empty" if not gens else "zero" if any(h.is_zero for h in gens) else "")
        offset, basis = dist.canonical
        size = basis.order
        replay = Replay(range(size))
        shots = [dist.sample(replay).residues for _ in range(size)]
        assert replay.ranges == [size] * size
        coset = coset_of(dist)
        assert len(set(shots)) == size == len(coset)
        assert set(shots) == coset
        assert {g.residues for g in dist.members()} == coset
        # Howell shape: pivots divide their modulus, rise strictly, and
        # reduce the entries above them
        d = dist.group.moduli
        assert list(basis.pivots) == sorted(set(basis.pivots))
        for i, (c, h) in enumerate(zip(basis.pivots, basis.rows)):
            p = h.residues[c]
            assert h.residues[:c] == (0,) * c and d[c] % p == 0
            assert all(earlier.residues[c] < p for earlier in basis.rows[:i])
            assert offset.residues[c] < p
    assert {"empty", "zero", ""} <= seen


@st.composite
def equal_cosets(draw):
    """(moduli, qft targets, (gens, shift), (gens', shift')) of one coset:
    generators shuffled, with redundant combinations and a zero element
    mixed in, and the shift moved by an element of the subgroup."""
    moduli = draw(st.lists(st.integers(2, 18), min_size=1, max_size=4))
    element = st.tuples(*(st.integers(0, d - 1) for d in moduli))
    gens = draw(st.lists(element, max_size=4))
    shift = draw(element)
    coeffs = st.lists(st.integers(-20, 20), min_size=len(gens), max_size=len(gens))

    def combine(cs, base=None):
        base = base or (0,) * len(moduli)
        return tuple(
            (b + sum(c * g[j] for c, g in zip(cs, gens))) % d
            for j, (b, d) in enumerate(zip(base, moduli))
        )

    extra = [combine(cs) for cs in draw(st.lists(coeffs, max_size=3))]
    other = draw(st.permutations(gens + extra + [(0,) * len(moduli)]))
    moved = combine(draw(coeffs), shift)
    targets = draw(st.lists(st.integers(0, len(moduli) - 1), unique=True))
    return moduli, tuple(targets), (gens, shift), (other, moved)


def _circuit_text(moduli, targets, gens, shift):
    def elem(v):
        return "(" + ",".join(map(str, v)) + ")"

    lines = [
        "group: " + " ".join(map(str, moduli)),
        f"state: coset gens=[{','.join(map(elem, gens))}] shift={elem(shift)}",
    ]
    if targets:
        lines.append("gate: qft targets=[" + ",".join(str(i + 1) for i in targets) + "]")
    return "\n".join(lines) + "\n"


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@given(equal_cosets(), st.integers(0, 2**32))
def test_equal_cosets_give_equal_streams_and_support(case, seed):
    moduli, targets, *inputs = case
    group = AbelianGroup(tuple(moduli))
    streams, supports, prints = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        for k, (gens, shift) in enumerate(inputs):
            coset = CosetInput(group, tuple(map(group.element, gens)), group.element(shift))
            gates = [FourierGate(group, targets)] if targets else []
            dist = simulate(coset, gates)
            streams.append([s.residues for s in sample_stream(dist, 30, seed)])
            path = Path(tmp) / f"c{k}.nc"
            path.write_text(_circuit_text(moduli, targets, gens, shift))
            supports.append(_stdout(["support", str(path)]))
            prints.append(_stdout(["simulate", str(path), "--shots", "30", "--seed", str(seed)]))
    assert streams[0] == streams[1]
    assert supports[0] == supports[1]
    assert prints[0] == prints[1]
    assert prints[0] == "".join(f"{s}\n" for s in sample_stream(dist, 30, seed))


@pytest.mark.parametrize("seed", range(4))
def test_one_randrange_per_shot(seed):
    rng = random.Random(f"draws:{seed}")
    for k in range(50):
        dist = random_dist(rng, WIDE_MODULI, max_order=2**200)
        size = dist.canonical[1].order
        shots = 1 + k % 7
        drawn, direct = random.Random(seed), random.Random(seed)
        got = [dist.sample(drawn) for _ in range(shots)]
        for _ in range(shots):
            direct.randrange(size)
        assert drawn.getstate() == direct.getstate()
        assert list(sample_stream(dist, shots, seed)) == got


def test_canonical_form_separates_cosets_as_the_hnf_form_does():
    checks = _load_checks()
    rng = random.Random("hnf")
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        a = random_dist(rng, (2, 3, 4, 6), max_order=64)
        g = a.group
        if rng.random() < 0.5:
            # the same coset from other generators and a moved offset
            gens = list(a.support.generators)
            extra = [sum((rng.randrange(-5, 6) * h for h in gens), g.zero())]
            move = sum((rng.randrange(-5, 6) * h for h in gens), g.zero())
            rng.shuffle(gens)
            b = OutputDistribution(g, a.offset + move, Subgroup(g, tuple(gens + extra)))
        else:
            b = random_dist(rng, group=g)
        same = a.canonical == b.canonical
        assert same == (checks.Coset(a).digest() == checks.Coset(b).digest())
        outcomes[same] += 1
    assert min(outcomes.values()) > 50


def test_members_are_bounded_by_the_coset_not_the_group():
    g = AbelianGroup((2,) * 30)
    dist = simulate(CosetInput(g, (), g.zero()), [FourierGate(g, (0,))])
    assert dist.members() == {g.zero(), g.unit(0)}
    assert subgroup_members(dist.support) == {g.zero(), g.unit(0)}
    with pytest.raises(BoundExceeded, match="support order 2 exceeds bound 1"):
        dist.members(bound=1)
    wide = Subgroup(g, tuple(g.units()[:21]))
    with pytest.raises(BoundExceeded, match=f"subgroup order {2**21} exceeds bound {ENUM_BOUND}"):
        subgroup_members(wide, bound=2**40)


def test_support_prints_the_canonical_form(tmp_path):
    path = tmp_path / "c.nc"
    path.write_text(_circuit_text((4, 6), (), [(2, 3), (0, 2)], (3, 5)))
    # <(2,3),(0,2)> = <(2,1),(0,2)>, radices 2 and 3; (3,5) reduces to (1,0)
    assert _stdout(["support", str(path)]) == "x0=(1,0)\nh=(2,1)\nh=(0,2)\n"
