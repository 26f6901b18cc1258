"""Quadratic phase functions: encodings, builders, extraction, laws."""

import math
import random

import pytest

from helpers import (
    DenseQuadratic,
    quad_product,
    quad_trivial,
    quad_validate_exhaustive,
)
from normsim.groups import AbelianGroup, character_exponent
from normsim.homs import endo_validate
from normsim.quadratic import (
    InvalidQuadratic,
    QuadraticEncoding,
    build_quadratic,
    derive_double_exponents,
    extract_endo,
    quad_character,
    quad_cross,
    quad_eval,
    quad_from_endo,
    quad_half,
    quad_square,
    triangle,
)


def all_groups_upto(n):
    seen = []
    for mods in [(2,), (3,), (4,), (6,), (8,), (2, 2), (2, 4), (3, 3), (2, 3), (4, 4), (2, 2, 2), (2, 3, 4)]:
        g = AbelianGroup(mods)
        if g.order <= n:
            seen.append(g)
    return seen


def test_triangle():
    assert [triangle(n) for n in range(6)] == [0, 0, 1, 3, 6, 10]
    assert triangle(-1) == 1
    assert triangle(-2) == 3


def test_cz_frozen_encoding():
    g = AbelianGroup((2, 2))
    cz = quad_cross(g, 0, 1, 1)
    # gamma = e^{i pi/4} here, so the (1,1) value gamma^4 = -1
    assert quad_eval(cz, g.element((1, 1))).value == 4
    assert quad_eval(cz, g.element((1, 0))).value == 0
    assert quad_eval(cz, g.element((0, 1))).value == 0
    assert quad_validate_exhaustive(cz)


def test_half_frozen_encoding():
    z2 = AbelianGroup((2,))
    h = quad_half(z2, 0, 1)
    # q_1(1) = 1*1*(1+2) = 3: the gate diag(1, gamma^3) = diag(1, -i)
    assert quad_eval(h, z2.element((1,))).value == 3
    assert quad_validate_exhaustive(h)


def test_character_builder_matches_character():
    g = AbelianGroup((3, 4))
    xi = quad_character(g, 1, 3)
    target = g.element((0, 3))
    for x in g.elements():
        assert quad_eval(xi, x).value == character_exponent(target, x)


def test_square_builder_values():
    z4 = AbelianGroup((4,))
    xi = quad_square(z4, 0, 1)
    # e^{2 pi i x^2/4} = gamma^{2 x^2}
    for x in range(4):
        assert quad_eval(xi, z4.element((x,))).value == (2 * x * x) % 8


def test_half_builder_values():
    z4 = AbelianGroup((4,))
    xi = quad_half(z4, 0, 3)
    # gamma^{q_a(x)} with q_a(x) = a x (x + d) over the integers
    for x in range(4):
        assert quad_eval(xi, z4.element((x,))).value == (3 * x * (x + 4)) % 8


def test_from_endo_values():
    g = AbelianGroup((2, 4))
    endo = endo_validate(g, [(0, 2), (0, 1)])
    xi = quad_from_endo(endo)
    for x in g.elements():
        assert quad_eval(xi, x).value == character_exponent(x, endo.apply(x))


def test_cross_requires_divisibility():
    g = AbelianGroup((2, 4))
    with pytest.raises(InvalidQuadratic):
        quad_cross(g, 0, 1, 1)  # 4 does not divide 2*1
    xi = quad_cross(g, 0, 1, 2)
    assert quad_validate_exhaustive(xi)


def test_constructor_rejects_bad_encoding():
    z2 = AbelianGroup((2,))
    # n(1) = 1 forces n(2e) = 0, not 2
    with pytest.raises(InvalidQuadratic):
        QuadraticEncoding(z2, (1,), (), (2,))
    QuadraticEncoding(z2, (1,), (), (0,))  # fine


def test_validate_catches_corruption():
    g = AbelianGroup((2, 2))
    cz = quad_cross(g, 0, 1, 1)
    broken = DenseQuadratic(
        g, cz.n_diag, (cz.n_pair[0] + 1,), cz.n_double, validate=False
    )
    assert not quad_validate_exhaustive(broken)
    assert quad_validate_exhaustive(cz)


def test_builders_validate_everywhere():
    for g in all_groups_upto(64):
        m = g.num_factors
        for i in range(m):
            d = g.moduli[i]
            for a in {0, 1, d - 1, d // 2}:
                assert quad_validate_exhaustive(quad_character(g, i, a))
                assert quad_validate_exhaustive(quad_square(g, i, a))
                assert quad_validate_exhaustive(quad_half(g, i, a))
        for i in range(m):
            for j in range(i + 1, m):
                step = g.moduli[j] // math.gcd(g.moduli[i], g.moduli[j])
                assert quad_validate_exhaustive(quad_cross(g, i, j, step))
        assert quad_validate_exhaustive(quad_trivial(g))


def test_quadratic_law_random():
    # xi(g + h) = xi(g) xi(h) chi_{w(g)}(h) with w = extract_endo
    rng = random.Random(13)
    for g in all_groups_upto(36):
        xi = _random_encoding(g, rng)
        w = extract_endo(xi)
        mod = g.phase_modulus
        for _ in range(40):
            a = g.element(tuple(rng.randrange(d) for d in g.moduli))
            b = g.element(tuple(rng.randrange(d) for d in g.moduli))
            lhs = quad_eval(xi, a + b).value
            rhs = (
                quad_eval(xi, a).value
                + quad_eval(xi, b).value
                + character_exponent(w.apply(a), b)
            ) % mod
            assert lhs == rhs


def test_power_law_random():
    # xi(n g) = xi(g)^n B(g,g)^{n(n-1)/2}
    rng = random.Random(19)
    for g in all_groups_upto(36):
        xi = _random_encoding(g, rng)
        w = extract_endo(xi)
        mod = g.phase_modulus
        for _ in range(40):
            a = g.element(tuple(rng.randrange(d) for d in g.moduli))
            n = rng.randrange(-6, 12)
            lhs = quad_eval(xi, n * a).value
            rhs = (
                n * quad_eval(xi, a).value
                + triangle(n) * character_exponent(w.apply(a), a)
            ) % mod
            assert lhs == rhs


def _random_encoding(group, rng):
    kinds = ["character", "square", "half", "from_endo"]
    if group.num_factors >= 2:
        kinds.append("cross")
    parts = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(kinds)
        if kind == "cross":
            i = rng.randrange(group.num_factors - 1)
            j = rng.randrange(i + 1, group.num_factors)
            step = group.moduli[j] // math.gcd(group.moduli[i], group.moduli[j])
            c = step * rng.randrange(max(1, group.moduli[j] // step))
            parts.append(quad_cross(group, i, j, c))
        elif kind == "from_endo":
            cols = []
            for i, d in enumerate(group.moduli):
                col = []
                for k, dk in enumerate(group.moduli):
                    step = dk // math.gcd(d, dk)
                    col.append(step * rng.randrange(dk // step))
                cols.append(col)
            parts.append(quad_from_endo(endo_validate(group, cols)))
        else:
            i = rng.randrange(group.num_factors)
            a = rng.randrange(group.moduli[i])
            parts.append(build_quadratic(group, kind, factor=i, a=a))
    out = parts[0]
    for p in parts[1:]:
        out = quad_product(out, p)
    return out


def test_product_is_pointwise():
    rng = random.Random(31)
    g = AbelianGroup((2, 4))
    for _ in range(20):
        a = _random_encoding(g, rng)
        b = _random_encoding(g, rng)
        p = quad_product(a, b)
        for x in g.elements():
            want = (quad_eval(a, x).value + quad_eval(b, x).value) % g.phase_modulus
            assert quad_eval(p, x).value == want


def test_extract_endo_reproduces_bilinear_part():
    rng = random.Random(37)
    for g in all_groups_upto(36):
        xi = _random_encoding(g, rng)
        w = extract_endo(xi)
        mod = g.phase_modulus
        for a in g.units():
            for b in g.units():
                bee = (
                    quad_eval(xi, a + b).value
                    - quad_eval(xi, a).value
                    - quad_eval(xi, b).value
                ) % mod
                assert bee == character_exponent(w.apply(a), b)


def test_derive_double_exponents_consistent():
    # reconstructed diagonal doubles must make the encoding valid
    for g in all_groups_upto(64):
        for i in range(g.num_factors):
            for a in {1, g.moduli[i] - 1}:
                xi = quad_half(g, i, a)
                derived = derive_double_exponents(g, xi.n_diag)
                rebuilt = QuadraticEncoding(g, xi.n_diag, xi.n_pair, derived)
                assert quad_validate_exhaustive(rebuilt)


def test_trivial_encoding_is_one():
    g = AbelianGroup((3, 4))
    xi = quad_trivial(g)
    for x in g.elements():
        assert quad_eval(xi, x).value == 0
