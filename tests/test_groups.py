"""Group arithmetic, characters, and phase exponents."""

import cmath
import copy
import math
import pickle
import random

import numpy as np
import pytest

from helpers import element_at, to_complex
from normsim.groups import (
    ENUM_BOUND,
    AbelianGroup,
    BoundExceeded,
    GroupElement,
    GroupMismatchError,
    PhaseExponent,
    character_exponent,
    check_bound,
)
from normsim.pauli import pauli_label


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


def test_trivial_group_is_refused_before_the_engine():
    # the empty product would reach the engine with no stabilizer labels
    with pytest.raises(ValueError, match="at least one cyclic factor"):
        AbelianGroup(())


def test_element_range_error_names_the_first_bad_residue():
    g = AbelianGroup((2, 3, 5))
    assert GroupElement(g, (1, 2, 4)).residues == (1, 2, 4)
    cases = {
        (1, 3, 9): "residue 3 out of range for modulus 3",
        (2, -1, 0): "residue 2 out of range for modulus 2",
        (0, -1, 7): "residue -1 out of range for modulus 3",
        (0, 0, 5): "residue 5 out of range for modulus 5",
    }
    for residues, message in cases.items():
        with pytest.raises(ValueError) as err:
            GroupElement(g, residues)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="residue count does not match group"):
        GroupElement(g, (0, 0))


def test_non_integers_are_refused_not_truncated():
    g = AbelianGroup((2, 3))
    refused = [
        lambda: AbelianGroup((2.9, 3)),
        lambda: g.element([1.7, 2.2]),
        lambda: PhaseExponent(g, 1.5),
        lambda: GroupElement(g, (1.0, 2)),
        lambda: pauli_label(g, 2.9, [0, 1], [1, 0]),
        lambda: pauli_label(g, 1, [0, 1.0], [1, 0]),
    ]
    for build in refused:
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            build()
    # integers of other types pass, and where they are reduced become ints
    moduli = AbelianGroup((Index(2), True)).moduli
    assert moduli == (2, 1) and set(map(type, moduli)) == {int}
    assert g.element([True, Index(5)]).residues == (1, 2)
    assert PhaseExponent(g, Index(13)).value == 1
    with pytest.raises(ValueError, match="residue 3 out of range for modulus 3"):
        GroupElement(g, (Index(1), Index(3)))


class Index:
    """An integer-like value that is not an int, as numpy's scalars are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_integer_like_residues_are_stored_as_ints():
    """The public constructor stores residues of another integer type as
    plain ints, so such an element prints, compares and hashes as the one
    built from ints; the range check still reads the converted values."""
    g = AbelianGroup((4, 6))
    plain = g.element((1, 2))
    for residues in [(np.int64(1), np.int64(2)), (Index(1), Index(2)), (True, 2)]:
        element = GroupElement(g, residues)
        assert element.residues == (1, 2) and set(map(type, element.residues)) == {int}
        assert str(element) == "(1,2)"
        assert element == plain and hash(element) == hash(plain)
    with pytest.raises(ValueError, match="residue 6 out of range for modulus 6"):
        GroupElement(g, (np.int64(1), Index(6)))


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


def test_str_matches_the_join_on_the_digit_and_generic_paths():
    # every modulus at most 10 takes the digit template, an 11 the join
    rng = random.Random("str")
    for top in (10, 11):
        for m in (1, 2, 5, 40):
            assert (AbelianGroup((top,) * m)._digit_template is None) == (top == 11)
            for _ in range(50):
                moduli = tuple(rng.randint(2, top) for _ in range(m))
                for g in (AbelianGroup(moduli), AbelianGroup((top,) * m)):
                    e = g.element([rng.randrange(d) for d in g.moduli])
                    assert str(e) == "(" + ",".join(map(str, e.residues)) + ")"
    assert str(AbelianGroup((10, 11)).element((9, 10))) == "(9,10)"
    assert str(AbelianGroup((10, 2)).element((9, 1))) == "(9,1)"


def test_trusted_elements_equal_checked_ones():
    rng = random.Random("trusted")
    for _ in range(200):
        g = AbelianGroup(tuple(rng.randint(2, 12) for _ in range(rng.randint(1, 6))))
        residues = tuple(rng.randrange(d) for d in g.moduli)
        trusted, checked = GroupElement._reduced(g, residues), GroupElement(g, residues)
        assert trusted == checked and hash(trusted) == hash(checked)
        assert str(trusted) == str(checked)
        assert {checked: 1}[trusted] == 1
        # the public constructor keeps its check
        with pytest.raises(ValueError, match="residue count"):
            GroupElement(g, residues + (0,))
        with pytest.raises(ValueError, match="out of range"):
            GroupElement(g, residues[:-1] + (g.moduli[-1],))


def test_elements_are_slotted_and_survive_pickle_and_copy():
    g = AbelianGroup((4, 6, 9))
    e = GroupElement._reduced(g, (0, 5, 3))
    assert not hasattr(e, "__dict__")
    assert e.nonzero_residues == ((1, 5), (2, 3))
    assert e.nonzero_residues is e.nonzero_residues  # filled once
    for other in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert other == e and hash(other) == hash(e) and str(other) == "(0,5,3)"
    with pytest.raises(AttributeError):
        e.residues = (1, 1, 1)
    # an element with its text formatted ahead, over the repr path and over
    # the digit template of five or more single-digit factors
    five = AbelianGroup((2, 3, 4, 5, 10))
    for f, text in ((GroupElement._formatted(g, (0, 5, 3)), "(0,5,3)"),
                    (GroupElement._formatted(five, (1, 2, 3, 4, 9)), "(1,2,3,4,9)")):
        fresh = GroupElement._reduced(f.group, f.residues)
        assert f._text == text and not hasattr(fresh, "_text")
        assert not hasattr(f, "__dict__")
        assert f == fresh and hash(f) == hash(fresh) and str(f) == str(fresh) == text
        for other in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
            assert other == f and hash(other) == hash(f) and str(other) == text
        with pytest.raises(AttributeError):
            f._text = "(0,0,0)"
        unit = f.group.unit(0)
        for result in (f + unit, f - unit, -f, 3 * f, f + f):
            assert str(result) == "(" + ",".join(map(str, result.residues)) + ")"
    shot = GroupElement._formatted(five, (1, 2, 3, 4, 9))
    assert str(shot + five.unit(4)) == "(1,2,3,4,0)"
    assert str(-GroupElement._formatted(g, (0, 5, 3))) == "(0,1,6)"


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
            chi = PhaseExponent(g, character_exponent(a, b))
            assert abs(to_complex(chi) - want) < 1e-12


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
            total = sum(
                to_complex(PhaseExponent(g, character_exponent(a, h)))
                for h in g.elements()
            )
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
