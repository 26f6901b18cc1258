"""Sparse gate paths against their dense definitions, above the dense bound.

Quadratic encodings are read through their table of nonzero terms,
endomorphisms are applied over their nonzero entries and Pauli gates
update only the phase. Each of these is compared here with the dense
definition it replaces, written out in this file, on random groups of
up to 40 factors with moduli from 2 to 2^40: far beyond what the dense
oracle can check.
"""

import math
import random

import pytest

from helpers import quad_product, random_endo
from normsim.engine import PauliGate, QuadraticGate
from normsim.groups import AbelianGroup, character_exponent
from normsim.pauli import pauli_dagger, pauli_label, pauli_mul
from normsim.quadratic import (
    InvalidQuadratic,
    QuadraticEncoding,
    extract_endo,
    quad_character,
    quad_cross,
    quad_eval,
    quad_from_endo,
    quad_half,
    quad_square,
    triangle,
)

MODULI = (2, 4, 6, 9, 16, 27, 2**40, 10**9 + 7)
SEEDS = range(12)


def random_group(rng, max_factors=40):
    return AbelianGroup(
        tuple(rng.choice(MODULI) for _ in range(rng.randint(1, max_factors)))
    )


def random_element(rng, group):
    return group.element([rng.randrange(d) for d in group.moduli])


def random_encoding(rng, group):
    """A product of a few single-factor, cross and endomorphism terms."""
    d = group.moduli
    m = group.num_factors
    parts = [quad_from_endo(random_endo(rng, group, rng.choice((0.02, 0.2))))]
    for _ in range(rng.randint(1, 6)):
        i = rng.randrange(m)
        build = rng.choice((quad_character, quad_square, quad_half))
        parts.append(build(group, i, rng.randrange(2 * d[i])))
    for _ in range(rng.randint(0, 6) if m > 1 else 0):
        i, j = rng.sample(range(m), 2)
        step = d[j] // math.gcd(d[i], d[j])
        parts.append(quad_cross(group, i, j, step * rng.randrange(d[j] // step)))
    out = parts[0]
    for p in parts[1:]:
        out = quad_product(out, p)
    return out


# Dense definitions, read straight off the stored exponents.


def dense_b(xi, i, j):
    """Exponent of B(e^i, e^j) from n_diag, n_pair and n_double."""
    L = xi.group.phase_modulus
    if i == j:
        return (xi.n_double[i] - 2 * xi.n_diag[i]) % L
    i, j = min(i, j), max(i, j)
    m = xi.group.num_factors
    k = sum(m - 1 - r for r in range(i)) + (j - i - 1)
    return (xi.n_pair[k] - xi.n_diag[i] - xi.n_diag[j]) % L


def dense_quad_eval(xi, g):
    """n(g) = sum_i [g_i n(e^i) + f(g_i) b_ii] + sum_{i<j} g_i g_j b_ij."""
    r = g.residues
    m = xi.group.num_factors
    total = 0
    for i in range(m):
        total += r[i] * xi.n_diag[i] + triangle(r[i]) * dense_b(xi, i, i)
        for j in range(i + 1, m):
            total += r[i] * r[j] * dense_b(xi, i, j)
    return total % xi.group.phase_modulus


def dense_apply(endo, g):
    """sum_i g_i * column_i, reduced mod the moduli."""
    d = endo.group.moduli
    cols = [col.residues for col in endo.columns]
    return tuple(
        sum(gi * col[row] for gi, col in zip(g.residues, cols)) % d[row]
        for row in range(len(d))
    )


def dense_check_ok(xi):
    """Every b_ij dies under d_i and d_j, and xi(d_i e^i) = 1."""
    d = xi.group.moduli
    L = xi.group.phase_modulus
    m = xi.group.num_factors
    for i in range(m):
        for j in range(i, m):
            b = dense_b(xi, i, j)
            if (d[i] * b) % L or (d[j] * b) % L:
                return False
        if (d[i] * xi.n_diag[i] + triangle(d[i]) * dense_b(xi, i, i)) % L:
            return False
    return True


@pytest.mark.parametrize("seed", SEEDS)
def test_quad_eval_matches_dense_formula(seed):
    rng = random.Random(seed)
    group = random_group(rng)
    xi = random_encoding(rng, group)
    for _ in range(20):
        g = random_element(rng, group)
        assert quad_eval(xi, g).value == dense_quad_eval(xi, g)


@pytest.mark.parametrize("seed", SEEDS)
def test_extract_endo_matches_bilinear_exponents(seed):
    rng = random.Random(100 + seed)
    group = random_group(rng)
    xi = random_encoding(rng, group)
    w = extract_endo(xi)
    d = group.moduli
    L = group.phase_modulus
    for k in range(group.num_factors):
        for l in range(group.num_factors):
            u = L // d[l]
            b = xi.bilinear_exponent(k, l)
            assert b == dense_b(xi, k, l)
            assert b % u == 0
            assert w.entry(l, k) == b // u


@pytest.mark.parametrize("seed", SEEDS)
def test_endo_apply_matches_column_sum(seed):
    rng = random.Random(200 + seed)
    group = random_group(rng)
    for density in (0.0, 0.05, 0.5, 1.0):
        endo = random_endo(rng, group, density)
        for _ in range(10):
            g = random_element(rng, group)
            assert endo.apply(g).residues == dense_apply(endo, g)


@pytest.mark.parametrize("seed", SEEDS)
def test_pauli_gate_matches_label_products(seed):
    rng = random.Random(300 + seed)
    group = random_group(rng)
    L = group.phase_modulus

    def label():
        return pauli_label(
            group,
            rng.randrange(L),
            random_element(rng, group).residues,
            random_element(rng, group).residues,
        )

    for _ in range(10):
        P = label()
        s = label()
        want = pauli_mul(pauli_mul(P, s), pauli_dagger(P))
        assert PauliGate(P).conjugate(s) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_quadratic_gate_matches_dense_pieces(seed):
    rng = random.Random(400 + seed)
    group = random_group(rng)
    xi = random_encoding(rng, group)
    gate = QuadraticGate(xi)
    w = extract_endo(xi)
    L = group.phase_modulus
    for _ in range(10):
        z, x = random_element(rng, group), random_element(rng, group)
        s = pauli_label(group, rng.randrange(L), z.residues, x.residues)
        w_x = group.element(dense_apply(w, x))
        a = s.phase.value + dense_quad_eval(xi, x) - character_exponent(w_x, x)
        assert gate.conjugate(s) == pauli_label(
            group, a, (z + w_x).residues, x.residues
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_check_rejects_what_the_dense_check_rejects(seed):
    rng = random.Random(500 + seed)
    group = random_group(rng, max_factors=12)
    d = group.moduli
    m = group.num_factors
    L = group.phase_modulus
    verdicts = set()
    for _ in range(30):
        xi = random_encoding(rng, group)
        fields = [list(xi.n_diag), list(xi.n_pair), list(xi.n_double)]
        which = rng.choice([f for f in fields if f])
        k = rng.randrange(len(which))
        # a generic shift, or a multiple of 2*order/d_i that may stay valid
        i = rng.randrange(m)
        shifts = (rng.randrange(1, L), (L // d[i]) * rng.randrange(1, d[i]))
        which[k] += rng.choice(shifts)
        raw = QuadraticEncoding(group, *map(tuple, fields), validate=False)
        ok = dense_check_ok(raw)
        verdicts.add(ok)
        if ok:
            QuadraticEncoding(group, *map(tuple, fields))
        else:
            with pytest.raises(InvalidQuadratic):
                QuadraticEncoding(group, *map(tuple, fields))
    assert False in verdicts


def test_check_rejects_hand_broken_encodings():
    z2 = AbelianGroup((2,))
    z2z4 = AbelianGroup((2, 4))
    broken = [
        # n(e) = 1 forces n(2e) = 0
        (z2, (1,), (), (2,)),
        # a cross term of order 4 on a factor of order 2
        (z2z4, (0, 0), (2,), (0, 0)),
        # b_11 = 3 gamma-units is not killed by d = 4
        (z2z4, (0, 0), (0,), (0, 3)),
        # B(e^0, e^0) = 1 but xi(2 e^0) = gamma^2, not 1
        (z2z4, (1, 0), (1,), (2, 0)),
    ]
    for group, n1, n12, n2 in broken:
        assert not dense_check_ok(QuadraticEncoding(group, n1, n12, n2, validate=False))
        with pytest.raises(InvalidQuadratic):
            QuadraticEncoding(group, n1, n12, n2)
