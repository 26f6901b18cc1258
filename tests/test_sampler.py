"""The one-draw sampler over the canonical form of the output coset.

`OutputDistribution.canonical` is the Howell basis of the support plus
the offset reduced against it; `sample` makes one randrange(|S|) per
shot and decodes it in mixed radix over those rows. Every decode the
moduli choose must equal its definition, and reach every coset element
exactly once; the stream must depend on the
coset and the seed alone, a shot must be exactly one draw, the
canonical form must tell cosets apart exactly as the benchmark's HNF
form does, and enumeration must be bounded by the coset, not the group.
"""

import contextlib
import importlib.util
import io
import math
import random
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import echelon_coset, span_closure
from normsim.cli import main
from normsim.engine import (
    CosetInput,
    FourierGate,
    OutputDistribution,
    sample_stream,
    simulate,
)
from normsim.groups import ENUM_BOUND, AbelianGroup, BoundExceeded, GroupElement
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


@pytest.mark.parametrize(
    "moduli, n_gens",
    [((2,) * 32, 10), ((3,) * 16, 6), ((10,) * 8, 2), ((2, 3, 4, 5, 6, 7, 8, 9), 1)],
    ids=["2^32", "3^16", "10^8", "mixed"],
)
def test_decode_is_a_bijection_with_byte_fields(moduli, n_gens):
    # every field sum fits in one byte: the equal moduli take byte rows,
    # split by one translate; the mixed case takes 16-bit struct fields
    rng = random.Random(f"bytes:{moduli}")
    group = AbelianGroup(moduli)

    def element():
        return group.element([rng.randrange(d) for d in moduli])

    for _ in range(10):
        gens = tuple(element() for _ in range(n_gens))
        dist = OutputDistribution(group, element(), Subgroup(group, gens))
        offset, basis = dist.canonical
        top = [o + sum((n - 1) * h.residues[j] for n, h in zip(basis.radices, basis.rows))
               for j, o in enumerate(offset.residues)]
        assert max(top) < 256
        members = dist.members()
        assert len(members) == basis.order
        assert {g.residues for g in members} == coset_of(dist)


def defined_decode(dist, r):
    """x0 + sum_i c_i row_i mod d, c the mixed-radix digits of r over the
    radices, the first row lowest: the decode's definition."""
    x0, basis = dist.canonical
    acc = list(x0.residues)
    for h, n in zip(basis.rows, basis.radices):
        r, c = divmod(r, n)
        if c:
            acc = [a + c * v for a, v in zip(acc, h.residues)]
    return tuple(a % d for a, d in zip(acc, dist.group.moduli))


def unit(rng, d):
    return 1


def radix_2_or_3(rng, d):
    return d // next(q for q in (2, 3, d) if d % q == 0)


# (moduli, support rows, pivot residues), by the decode each reaches:
# lcm 2 in byte rows up to 128 factors and in bit rows, by XOR, above;
# the factors of order 1 that the package tolerates internally, in byte
# rows; equal moduli with so many radix-d rows that even reduced table
# entries pass 255 in a byte before the end, so the sum folds, and d =
# 128, where it folds before every step; unequal moduli, within a byte
# or past it, in `struct` fields of 16, 32 and 64 bits; and with radices
# past a table, 2^40 and 10^9+7, in fields past 64 bits, split by shift
# and mask. The coset of "2^8", "mixed-small" and "ones" is also shared.
DECODE_CASES = {
    "2^8": ((2,) * 8, 5, None),
    "2^40": ((2,) * 40, 30, None),
    "2^1024": ((2,) * 1024, 1022, None),
    "3^700": ((3,) * 700, 660, unit),
    "5^250": ((5,) * 250, 220, unit),
    "7^120": ((7,) * 120, 100, unit),
    "9^90": ((9,) * 90, 80, unit),
    "9^60": ((9,) * 60, 50, None),
    "128^60": ((128,) * 60, 40, None),
    "mixed-byte": ((2, 3, 4, 6, 9, 12, 16, 27, 125, 128) * 6, 40, None),
    "mixed-small": ((2, 3, 5, 7), 3, None),
    "ones": ((1, 1, 1), 0, None),
    "wide-16": ((200, 129, 6, 12) * 4, 10, radix_2_or_3),
    "wide-32": ((1000, 999, 6, 12) * 4, 10, unit),
    "wide-64": ((2**40, 12, 200, 6) * 6, 16, radix_2_or_3),
    "wide-128": ((2**40, 10**9 + 7, 9, 2) * 6, 16, unit),
}


@pytest.mark.parametrize("case", DECODE_CASES, ids=str)
def test_every_decode_is_its_definition(case):
    moduli, n_rows, pivot = DECODE_CASES[case]
    rng = random.Random(f"decode:{case}")
    if pivot is unit and len(set(moduli)) == 1:
        # more radix-d rows than a byte holds at d - 1 per table
        d = moduli[0]
        assert (d - 1) * n_rows // int(math.log(256, d)) > 255
    for _ in range(1 if n_rows > 200 else 3):
        dist = echelon_coset(rng, moduli, n_rows, pivot)
        size = dist.canonical[1].order
        draws = [0, size - 1] + [rng.randrange(size) for _ in range(4)]
        replay = Replay(draws)
        shots = [dist.sample(replay).residues for _ in draws]
        assert shots == [defined_decode(dist, r) for r in draws]


def test_unequal_small_moduli_shots_cost_under_three_z3_shots():
    """Per shot with `str`, set-up apart, the minimum over alternating
    repeats in one process, so the machine's speed cancels: unequal moduli
    up to 128, (2, 3, 4, 6, 9, 12, 16, 27, 125, 128) x 6 with 40 rows,
    take 16-bit `struct` fields and cost under 3x a shot of Z_3^256 with
    128 rows in byte rows (about 1.4x; about 6-11x when those moduli took
    byte rows folded byte by byte before every step)."""
    cases = [
        echelon_coset(random.Random(3), moduli, n_rows)
        for moduli, n_rows in (((2, 3, 4, 6, 9, 12, 16, 27, 125, 128) * 6, 40),
                               ((3,) * 256, 128))
    ]
    best = [math.inf] * len(cases)
    for seed in range(7):
        for k, dist in enumerate(cases):
            list(sample_stream(dist, 1, seed))  # builds the decode
            start = time.perf_counter()
            for shot in sample_stream(dist, 400, seed):
                str(shot)
            best[k] = min(best[k], time.perf_counter() - start)
    assert best[0] < 3 * best[1]


def test_shots_build_no_checked_elements(monkeypatch):
    # the decode's residues are reduced by construction, so no shot pays
    # for the public constructor's range check; one group per split
    rng = random.Random("unchecked")
    for moduli in ((2,) * 32, (2, 3, 4, 5), (2**40, 10**9 + 7, 6)):
        dist = random_dist(rng, group=AbelianGroup(moduli))
        dist.canonical  # built once per coset
        checked = []
        monkeypatch.setattr(GroupElement, "__post_init__", lambda e: checked.append(e))
        lines = [str(shot) for shot in sample_stream(dist, 1000, 7)]
        monkeypatch.undo()
        assert checked == [] and len(lines) == 1000


def old_text(residues):
    """A shot's text by its rule before shots were shared, "(r_1,...,r_m)"."""
    return "(" + ",".join(map(str, residues)) + ")"


def units_coset(moduli, n_units, offset):
    """x0 + <e_1, ..., e_n>: the first n_units unit vectors span the support."""
    group = AbelianGroup(moduli)
    gens = tuple(group.units()[:n_units])
    return OutputDistribution(group, group.element(offset), Subgroup(group, gens))


# (moduli, unit generators, offset, |S|): single-digit moduli on five or
# more factors (the digit template), moduli past 10 (the repr), one to
# four factors, |S| = 1 and |S| = 256, the largest coset held whole
SHARED_CASES = {
    "digits-6": ((2, 3, 4, 5, 6, 7), 3, (1, 2, 3, 4, 5, 6), 24),
    "digits-10": ((10,) * 10, 2, (9,) * 10, 100),
    "wide-moduli": ((11, 17, 2**40), 2, (10, 16, 2**40 - 1), 187),
    "one-factor": ((97,), 1, (5,), 97),
    "four-factors": ((3, 12, 5, 100), 3, (2, 11, 4, 99), 180),
    "single": ((6, 10, 2**40, 3, 4), 0, (5, 9, 12345, 2, 3), 1),
    "256": ((2,) * 10, 8, (1,) * 10, 256),
    "256-mixed": ((16, 16, 3), 2, (15, 15, 2), 256),
}


@pytest.mark.parametrize("case", SHARED_CASES, ids=str)
def test_small_cosets_hand_out_shared_preformatted_elements(case):
    moduli, n_units, offset, size = SHARED_CASES[case]
    dist = units_coset(moduli, n_units, offset)
    assert dist.canonical[1].order == size
    shots = list(sample_stream(dist, 10_000, 11))
    members = {id(e): e for e in dist.members()}
    assert len(members) == size and {id(s) for s in shots} <= members.keys()
    assert {s.residues for s in shots} <= coset_of(dist)
    rng = random.Random(11)
    assert all(id(dist.sample(rng)) in members for _ in range(100))
    for shot in members.values():
        fresh = GroupElement._reduced(dist.group, shot.residues)
        assert shot == fresh and hash(shot) == hash(fresh)
        assert str(shot) == str(fresh) == old_text(shot.residues)


@pytest.mark.parametrize("moduli, n_units", [((257,), 1), ((2,) * 9, 9), ((3, 100), 2)])
def test_cosets_past_256_elements_hand_out_fresh_elements(moduli, n_units):
    dist = units_coset(moduli, n_units, (1,) * len(moduli))
    assert dist.canonical[1].order > 256
    shots = list(sample_stream(dist, 2_000, 11))
    assert len({id(s) for s in shots}) == len(shots)
    assert all(str(s) == old_text(s.residues) for s in shots)


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
