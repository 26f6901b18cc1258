"""Group arithmetic, characters, and phase exponents."""

import cmath
import math
import random

import pytest

from helpers import element_at, to_complex
from normsim.groups import (
    ENUM_BOUND,
    AbelianGroup,
    BoundExceeded,
    GroupMismatchError,
    PhaseExponent,
    character_eval,
    character_exponent,
    check_bound,
)


def character_sum_is_zero(g, bound=ENUM_BOUND):
    """Decide exactly whether sum over h of chi_g(h) vanishes.

    The sum factors over the cyclic coordinates; coordinate i
    contributes the multiset of roots exp(2*pi*i * (g_i*k mod d_i) / d_i)
    for k = 0..d_i-1, which covers a cyclic subgroup of the d_i-th roots
    of unity with uniform multiplicity. A full set of t-th roots of
    unity sums to zero exactly when t > 1 (sum of roots of x^t - 1), so
    the product vanishes iff some coordinate's support has more than one
    point.
    """
    check_bound(g.group, bound)
    for d, gi in zip(g.group.moduli, g.residues):
        support = {gi * k % d for k in range(d)}
        if len(support) > 1:
            return True
    return False


def test_group_basic_attributes():
    g = AbelianGroup((2, 4))
    assert g.order == 8
    assert g.phase_modulus == 16
    assert g.num_factors == 2
    assert str(g) == "Z2xZ4"


def test_group_rejects_bad_moduli():
    with pytest.raises(ValueError):
        AbelianGroup((0,))
    with pytest.raises(ValueError):
        AbelianGroup((-2, 4))
    # order-1 factors are tolerated internally (the parser rejects them)
    assert AbelianGroup((1, 4)).order == 4


def test_element_reduction_and_arithmetic():
    g = AbelianGroup((2, 4))
    a = g.element((3, 7))
    assert a.residues == (1, 3)
    b = g.element((1, 2))
    assert (a + b).residues == (0, 1)
    assert (a - b).residues == (0, 1)
    assert (-a).residues == (1, 1)
    assert (3 * a).residues == (1, 1)
    assert (-5 * a).residues == (1, 1)
    assert g.zero().is_zero
    assert not a.is_zero
    assert str(a) == "(1,3)"


def test_element_group_mismatch():
    a = AbelianGroup((2,)).element((1,))
    b = AbelianGroup((3,)).element((1,))
    with pytest.raises(GroupMismatchError):
        a + b


def test_unit_vectors():
    g = AbelianGroup((2, 3, 4))
    assert g.unit(1).residues == (0, 1, 0)
    assert [u.residues for u in g.units()] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_enumeration_order_and_indexing():
    g = AbelianGroup((2, 3))
    elems = list(g.elements())
    assert len(elems) == 6
    # first factor is most significant
    assert elems[0].residues == (0, 0)
    assert elems[1].residues == (0, 1)
    assert elems[3].residues == (1, 0)
    for i, e in enumerate(elems):
        assert g.index_of(e) == i
        assert element_at(g, i) == e


def test_character_exponent_frozen_values():
    z2 = AbelianGroup((2,))
    # 2g/d * g_i * h_i = (4/2)*1*1 = 2, so chi_1(1) = gamma^2 = -1
    assert character_exponent(z2.element((1,)), z2.element((1,))) == 2
    g24 = AbelianGroup((2, 4))
    # (16/2)*1*1 + (16/4)*3*2 = 8 + 24 = 32 = 0 mod 32
    assert character_exponent(g24.element((1, 3)), g24.element((1, 2))) == 0
    assert character_exponent(g24.element((0, 1)), g24.element((0, 1))) == 4


def test_character_exponent_always_even():
    rng = random.Random(7)
    for mods in [(2,), (3,), (4, 6), (2, 3, 5)]:
        g = AbelianGroup(mods)
        for _ in range(50):
            a = g.element(tuple(rng.randrange(d) for d in mods))
            b = g.element(tuple(rng.randrange(d) for d in mods))
            assert character_exponent(a, b) % 2 == 0


def test_character_bilinear_and_symmetric():
    rng = random.Random(11)
    g = AbelianGroup((4, 3))
    for _ in range(100):
        a = g.element((rng.randrange(4), rng.randrange(3)))
        b = g.element((rng.randrange(4), rng.randrange(3)))
        c = g.element((rng.randrange(4), rng.randrange(3)))
        m = g.phase_modulus
        assert character_exponent(a + b, c) == (
            character_exponent(a, c) + character_exponent(b, c)
        ) % m
        assert character_exponent(a, b + c) == (
            character_exponent(a, b) + character_exponent(a, c)
        ) % m
        assert character_exponent(a, b) == character_exponent(b, a)


def test_character_eval_matches_numeric():
    g = AbelianGroup((3, 4))
    for a in g.elements():
        for b in g.elements():
            want = cmath.exp(
                2j
                * math.pi
                * sum(ai * bi / d for ai, bi, d in zip(a.residues, b.residues, g.moduli))
            )
            assert abs(to_complex(character_eval(a, b)) - want) < 1e-12


def test_phase_exponent_cyclic():
    g = AbelianGroup((2,))
    p = PhaseExponent(g, 3)
    q = PhaseExponent(g, 2)
    assert (p + q).value == 1
    assert (p - q).value == 1
    assert (-p).value == 1
    assert (3 * p.value) % g.phase_modulus == 1
    assert PhaseExponent(g, 7).value == 3
    assert q.value % 2 == 0 and p.value % 2 != 0
    assert abs(to_complex(p) - cmath.exp(1j * math.pi * 3 / 2)) < 1e-12


def test_character_orthogonality():
    # sum_h chi_g(h) is |G| when g = 0 and vanishes otherwise
    for mods in [(2,), (4,), (6,), (2, 3), (2, 4), (3, 3)]:
        g = AbelianGroup(mods)
        for a in g.elements():
            total = sum(to_complex(character_eval(a, h)) for h in g.elements())
            if a.is_zero:
                assert abs(total - g.order) < 1e-9
                assert not character_sum_is_zero(a)
            else:
                assert abs(total) < 1e-9
                assert character_sum_is_zero(a)


def test_check_bound_caps_at_enum_bound():
    check_bound(AbelianGroup((64, 64)), 4096)
    with pytest.raises(BoundExceeded, match="exceeds bound 4096"):
        check_bound(AbelianGroup((64, 65)), 4096)
    # a larger requested bound does not lift the enumeration ceiling
    big = AbelianGroup((2**30,))
    with pytest.raises(BoundExceeded, match=f"exceeds bound {ENUM_BOUND}"):
        check_bound(big, 2**40)
    assert issubclass(BoundExceeded, ValueError)
