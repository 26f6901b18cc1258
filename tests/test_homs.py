"""Endomorphism matrices, duals, inverses, and orthogonal subgroups."""

import itertools
import math
import random

import pytest

import normsim.homs as homs
from helpers import element_at, span_closure
from normsim.groups import AbelianGroup, character_exponent
from normsim.homs import (
    EndoMatrix,
    InvalidEndomorphism,
    Subgroup,
    auto_inverse,
    endo_dual,
    endo_validate,
    orthogonal_subgroup,
    solve_character_system,
    subgroup_contains,
    subgroup_members,
)


def endo_is_valid(group, columns):
    try:
        endo_validate(group, columns)
    except (InvalidEndomorphism, ValueError):
        return False
    return True


def test_column_validity():
    g = AbelianGroup((2, 4))
    assert endo_is_valid(g, [(1, 2), (0, 1)])
    # col 0 maps the order-2 generator to an order-4 element
    assert not endo_is_valid(g, [(1, 1), (0, 1)])
    with pytest.raises(InvalidEndomorphism) as exc:
        endo_validate(g, [(1, 1), (0, 1)])
    assert exc.value.column == 0


def test_apply_and_compose():
    g = AbelianGroup((2, 4))
    a = endo_validate(g, [(1, 2), (0, 1)])
    assert a.apply(g.element((1, 1))).residues == (1, 3)
    ident = EndoMatrix.identity(g)
    assert a.compose(ident).columns == a.columns
    assert ident.compose(a).columns == a.columns
    z = EndoMatrix.zero(g)
    assert a.compose(z).apply(g.element((1, 1))).is_zero


def test_dual_frozen_example():
    g = AbelianGroup((2, 4))
    a = endo_validate(g, [(1, 2), (0, 1)])
    b = endo_dual(a)
    assert [c.residues for c in b.columns] == [(1, 0), (1, 1)]


def test_dual_defining_identity():
    # chi_g(A(x)) = chi_{dual(A)(g)}(x) for all g, x
    rng = random.Random(5)
    for mods in [(2, 4), (3, 6), (2, 2, 2), (4, 3)]:
        g = AbelianGroup(mods)
        for _ in range(20):
            cols = []
            for i, d in enumerate(mods):
                col = []
                for k, dk in enumerate(mods):
                    step = dk // math.gcd(d, dk)
                    col.append(step * rng.randrange(dk // step))
                cols.append(col)
            a = endo_validate(g, cols)
            b = endo_dual(a)
            for x in g.elements():
                for y in g.elements():
                    assert character_exponent(y, a.apply(x)) == character_exponent(
                        b.apply(y), x
                    )


def test_dual_is_involution():
    g = AbelianGroup((2, 4))
    a = endo_validate(g, [(1, 2), (0, 1)])
    assert endo_dual(endo_dual(a)).columns == a.columns


def test_auto_inverse_cyclic():
    g = AbelianGroup((4,))
    a = endo_validate(g, [(3,)])
    inv = auto_inverse(a)
    assert inv is not None
    assert [c.residues for c in inv.columns] == [(3,)]
    assert auto_inverse(endo_validate(g, [(2,)])) is None
    assert auto_inverse(EndoMatrix.zero(g)) is None


def test_auto_inverse_roundtrip():
    cases = [
        # shear plus unit multiplications, certainly invertible
        ((2, 4, 3), [(1, 2, 0), (0, 3, 0), (0, 0, 2)]),
        # row 1 of B A = 1 also holds for B = [[.., ..], [1, 0]], which is
        # no homomorphism (2 * 1 != 0 mod 6); the d_j B_kj = 0 rows exclude it
        ((2, 6), [(0, 3), (1, 1)]),
    ]
    for mods, cols in cases:
        g = AbelianGroup(mods)
        a = endo_validate(g, cols)
        inv = auto_inverse(a)
        assert inv is not None
        for x in g.elements():
            assert inv.apply(a.apply(x)) == x
            assert a.apply(inv.apply(x)) == x


def test_auto_inverse_many_factors_beyond_word():
    base = (4, 6, 3, 8, 2, 9, 16, 27, 5, 12, 2**40, 10**9 + 7)
    for m in (12, 64):
        mods = tuple(base[i % len(base)] for i in range(m))
        g = AbelianGroup(mods)
        ident = EndoMatrix.identity(g)
        rng = random.Random(41)
        pairs = [
            (i, j) for i in range(m) for j in range(m)
            if i != j and math.gcd(mods[i], mods[j]) > 1
        ]
        a = ident
        for _ in range(3 * m):
            # shear e^i -> e^i + c e^j, a homomorphism when d_i c = 0 mod d_j
            i, j = rng.choice(pairs)
            step = math.gcd(mods[i], mods[j])
            c = rng.randrange(1, step) * (mods[j] // step)
            cols = list(ident.columns)
            cols[i] = cols[i] + c * g.unit(j)
            a = EndoMatrix(g, tuple(cols)).compose(a)
        cols = list(ident.columns)
        cols[11] = 5 * cols[11]  # a unit mod 10^9 + 7
        a = EndoMatrix(g, tuple(cols)).compose(a)
        inv = auto_inverse(a)
        assert inv is not None
        assert inv.compose(a).columns == ident.columns
        assert a.compose(inv).columns == ident.columns
        # doubling the image of the Z_(2^40) generator loses invertibility
        cols = list(a.columns)
        cols[10] = 2 * cols[10]
        assert auto_inverse(EndoMatrix(g, tuple(cols))) is None


def apply_residues(cols, mods, x):
    """A x for an endomorphism given by residue columns, on residue tuples."""
    return tuple(
        sum(col[k] * xi for col, xi in zip(cols, x)) % dk
        for k, dk in enumerate(mods)
    )


def test_auto_inverse_none_exactly_for_non_bijections():
    # entry (k, i) a multiple of d_k / gcd(d_i, d_k) is exactly a valid
    # column i; the image is enumerated, so None is checked against the
    # definition, including matrices whose scaled congruences do solve
    rng = random.Random(47)
    seen = {True: 0, False: 0}
    for _ in range(1000):
        mods = tuple(
            rng.choice([2, 3, 4, 6, 8, 9, 12]) for _ in range(rng.randint(1, 3))
        )
        cols = [
            [dk // math.gcd(di, dk) * rng.randrange(math.gcd(di, dk)) for dk in mods]
            for di in mods
        ]
        g = AbelianGroup(mods)
        elements = list(itertools.product(*(range(d) for d in mods)))
        image = {apply_residues(cols, mods, x) for x in elements}
        bijective = len(image) == g.order
        inv = auto_inverse(endo_validate(g, cols))
        assert (inv is not None) == bijective
        seen[bijective] += 1
        if inv is not None:
            inv_cols = [c.residues for c in inv.columns]
            for x in elements:
                ax = apply_residues(cols, mods, x)
                bx = apply_residues(inv_cols, mods, x)
                assert apply_residues(inv_cols, mods, ax) == x
                assert apply_residues(cols, mods, bx) == x
    assert min(seen.values()) > 200


def test_orthogonal_subgroup_frozen():
    z8 = AbelianGroup((8,))
    h = Subgroup(z8, (z8.element((2,)),))
    perp = orthogonal_subgroup(h)
    assert subgroup_members(perp) == {z8.element((0,)), z8.element((4,))}


def test_orthogonal_of_trivial_and_full():
    g = AbelianGroup((2, 3))
    trivial = Subgroup(g, ())
    assert subgroup_members(orthogonal_subgroup(trivial)) == set(g.elements())
    full = Subgroup(g, tuple(g.units()))
    assert subgroup_members(orthogonal_subgroup(full)) == {g.zero()}


def test_orthogonal_duality_laws():
    rng = random.Random(23)
    for _ in range(40):
        mods = tuple(rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 3)))
        g = AbelianGroup(mods)
        gens = tuple(
            g.element(tuple(rng.randrange(d) for d in mods))
            for _ in range(rng.randint(0, 3))
        )
        h = Subgroup(g, gens)
        hp = orthogonal_subgroup(h)
        mh = subgroup_members(h)
        mhp = subgroup_members(hp)
        assert len(mh) * len(mhp) == g.order
        # every pairing is trivial
        for a in mh:
            for b in mhp:
                assert character_exponent(a, b) == 0
        assert subgroup_members(orthogonal_subgroup(hp)) == mh


def test_subgroup_contains():
    g = AbelianGroup((4, 6))
    h = Subgroup(g, (g.element((2, 0)), g.element((0, 3))))
    assert subgroup_contains(h, g.element((2, 3)))
    assert subgroup_contains(h, g.zero())
    assert not subgroup_contains(h, g.element((1, 0)))
    assert not subgroup_contains(h, g.element((2, 1)))


def test_subgroup_contains_matches_enumeration():
    """Howell reduction against search, on 320 random subgroups with
    |G| <= 4096, for every element of G when |G| <= 64 and otherwise
    for 40 random elements plus 10 members."""
    rng = random.Random(2718)
    for _ in range(320):
        while True:
            mods = tuple(rng.randint(2, 18) for _ in range(rng.randint(1, 4)))
            g = AbelianGroup(mods)
            if g.order <= 4096:
                break
        gens = tuple(
            g.element(tuple(rng.randrange(d) for d in mods))
            for _ in range(rng.randint(0, 4))
        )
        span = span_closure(mods, [h.residues for h in gens])
        if g.order <= 64:
            probes = list(g.elements())
        else:
            probes = [element_at(g, rng.randrange(g.order)) for _ in range(40)]
            probes += [g.element(v) for v in rng.sample(sorted(span), min(10, len(span)))]
        h = Subgroup(g, gens)
        for x in probes:
            assert subgroup_contains(h, x) == (x.residues in span)


def test_character_system_simple():
    z4 = AbelianGroup((4,))
    # phases are in units of exp(2 pi i/order): chi_x(2) = e^{2 pi i 2x/4}
    x = solve_character_system(z4, [z4.element((2,))], [2])
    assert x is not None
    assert character_exponent(x, z4.element((2,))) == 4  # gamma^4 = -1


def test_character_system_infeasible():
    z4 = AbelianGroup((4,))
    # chi_x(2) only takes values e^{2 pi i 2x/4}, never e^{2 pi i/4}
    assert solve_character_system(z4, [z4.element((2,))], [1]) is None


def test_character_system_empty():
    g = AbelianGroup((3, 5))
    x = solve_character_system(g, [], [])
    assert x is not None and x.is_zero


def test_character_system_random_consistent():
    rng = random.Random(41)
    for _ in range(50):
        mods = tuple(rng.choice([2, 3, 4]) for _ in range(rng.randint(1, 3)))
        g = AbelianGroup(mods)
        target = g.element(tuple(rng.randrange(d) for d in mods))
        gens = [
            g.element(tuple(rng.randrange(d) for d in mods))
            for _ in range(rng.randint(1, 3))
        ]
        phases = [character_exponent(target, h) // 2 for h in gens]
        x = solve_character_system(g, gens, phases)
        assert x is not None
        for h, p in zip(gens, phases):
            assert character_exponent(x, h) == 2 * p % g.phase_modulus


def test_character_system_checks_the_solved_offset(monkeypatch):
    """An offset that misses a constraint raises, whatever solve_mod says."""
    z4 = AbelianGroup((4,))
    monkeypatch.setattr(homs, "solve_mod", lambda *args: ([(0,)], []))
    with pytest.raises(ArithmeticError, match="constraint 0"):
        solve_character_system(z4, [z4.element((1,))], [2])
