"""The terms-only quadratic encoding against the dense reference.

`QuadraticEncoding` stores just the nonzero terms of a quadratic
function and derives the dense exponent lists of the file format on
demand. `helpers.DenseQuadratic` and its builders keep every exponent,
as the package did before; here both are built from the same seeded
parameters, for every builder family, over up to 64 factors with
moduli from 2 to 2^40, and must agree on terms, dense views, equality,
hashing and the circuit-file round trip.
"""

import math
import random

import pytest

from helpers import (
    DenseQuadratic,
    dense_character,
    dense_cross,
    dense_from_endo,
    dense_half,
    dense_square,
    quad_product,
    random_endo,
)
from normsim.circuits import ParsedCircuit, parse_circuit, serialize_circuit
from normsim.engine import CosetInput, FourierGate, QuadraticGate
from normsim.groups import AbelianGroup
from normsim.homs import EndoMatrix
from normsim.quadratic import (
    InvalidQuadratic,
    QuadraticEncoding,
    build_quadratic,
    quad_character,
    quad_cross,
    quad_from_endo,
    quad_half,
    quad_square,
)

MODULI = (2, 4, 6, 9, 16, 27, 2**40, 10**9 + 7)
SEEDS = range(10)
FAMILIES = ("character", "square", "half", "cross", "from_endo")
BUILDERS = {
    "character": (quad_character, dense_character),
    "square": (quad_square, dense_square),
    "half": (quad_half, dense_half),
    "cross": (quad_cross, dense_cross),
    "from_endo": (quad_from_endo, dense_from_endo),
}


def random_group(rng, max_factors=64):
    m = rng.randint(1, max_factors)
    return AbelianGroup(tuple(rng.choice(MODULI) for _ in range(m)))


def random_args(rng, group, family):
    """Builder arguments for one family; cross coefficients are valid."""
    d = group.moduli
    m = group.num_factors
    if family == "from_endo":
        return (random_endo(rng, group, rng.choice((0.02, 0.2, 1.0))),)
    if family == "cross":
        i, j = rng.sample(range(m), 2)
        step = d[j] // math.gcd(d[i], d[j])
        k = d[j] // step
        return (group, i, j, step * rng.randrange(-3 * k, 3 * k))
    t = rng.randrange(m)
    return (group, t, rng.randrange(-3 * d[t], 3 * d[t]))


def random_pairs(rng, group, count=4):
    """(encoding, reference) pairs from every family the group admits."""
    families = [f for f in FAMILIES if f != "cross" or group.num_factors > 1]
    out = []
    for _ in range(count):
        for family in families:
            args = random_args(rng, group, family)
            build, reference = BUILDERS[family]
            out.append((build(*args), reference(*args)))
    return out


def dense(xi):
    return (xi.n_diag, xi.n_pair, xi.n_double)


@pytest.mark.parametrize("seed", SEEDS)
def test_terms_and_views_match_the_dense_reference(seed):
    rng = random.Random(seed)
    group = random_group(rng)
    pairs = random_pairs(rng, group)
    # products go through the dense constructor on both sides
    for _ in range(3):
        (a, ra), (b, rb) = rng.sample(pairs, 2)
        sums = [tuple(map(sum, zip(x, y))) for x, y in zip(dense(ra), dense(rb))]
        ref = DenseQuadratic(group, *sums)
        pairs.append((quad_product(a, b), ref))
    for xi, ref in pairs:
        assert xi.terms == ref.terms
        assert dense(xi) == dense(ref)


def test_every_family_through_build_quadratic():
    rng = random.Random(7)
    group = AbelianGroup((4, 2**40, 6, 10**9 + 7, 27, 2))
    for family in FAMILIES:
        args = random_args(rng, group, family)
        if family == "from_endo":
            params = {"endo": args[0]}
        elif family == "cross":
            params = dict(zip(("i", "j", "c"), args[1:]))
        else:
            params = dict(zip(("factor", "a"), args[1:]))
        xi = build_quadratic(group, family, **params)
        assert xi == BUILDERS[family][0](*args)
        assert dense(xi) == dense(BUILDERS[family][1](*args))


def test_invalid_cross_coefficients_fail_like_the_reference():
    group = AbelianGroup((2, 4, 9))
    for i, j, c in [(0, 1, 1), (0, 1, 3), (2, 0, 1), (1, 2, 2)]:
        with pytest.raises(InvalidQuadratic):
            dense_cross(group, i, j, c)
        with pytest.raises(InvalidQuadratic):
            quad_cross(group, i, j, c)
    with pytest.raises(ValueError):
        quad_cross(group, 1, 1, 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_equality_and_hash_follow_dense_equality(seed):
    rng = random.Random(100 + seed)
    group = random_group(rng, max_factors=24)
    L = group.phase_modulus
    encodings = [xi for xi, _ in random_pairs(rng, group, count=2)]
    # the same functions again, from unreduced dense lists and as products
    for xi in rng.sample(encodings, 4):
        shifted = [
            tuple(v + L * rng.randrange(-2, 3) for v in part) for part in dense(xi)
        ]
        encodings.append(QuadraticEncoding(group, *shifted))
        encodings.append(quad_product(xi, quad_character(group, 0, 0)))
    for a in encodings:
        for b in encodings:
            assert (a == b) == (dense(a) == dense(b))
            if a == b:
                assert hash(a) == hash(b)
    assert len(set(encodings)) == len({dense(xi) for xi in encodings})


@pytest.mark.parametrize("seed", SEEDS)
def test_circuit_text_round_trip(seed):
    rng = random.Random(200 + seed)
    group = random_group(rng, max_factors=40)
    gates = [QuadraticGate(xi) for xi, _ in random_pairs(rng, group, count=1)]
    gates.insert(rng.randrange(len(gates)), FourierGate(group, (0,)))
    shift = group.element([rng.randrange(d) for d in group.moduli])
    circuit = ParsedCircuit(group, CosetInput(group, (), shift), tuple(gates))
    text = serialize_circuit(circuit)
    again = parse_circuit(text)
    assert again == circuit
    assert serialize_circuit(again) == text


def _stored_ints(value) -> int:
    if isinstance(value, int):
        return 1
    if isinstance(value, (tuple, list)):
        return sum(_stored_ints(v) for v in value)
    return 0


def test_an_encoding_stores_only_its_terms():
    rng = random.Random(400)
    group = AbelianGroup((2,) * 48 + (2**40, 9, 10**9 + 7))
    pairs = random_pairs(rng, group, count=2)
    # fresh encodings, before any dense view is asked for and cached
    encodings = [xi for xi, _ in pairs]
    encodings += [QuadraticEncoding(group, *dense(ref)) for _, ref in pairs]
    for xi in encodings:
        held = sum(_stored_ints(v) for k, v in vars(xi).items() if k != "group")
        assert held <= 3 * sum(map(len, xi.terms))


def test_builders_make_no_endomorphism_apply_call(monkeypatch):
    def refuse(self, g):
        raise AssertionError("a builder applied the endomorphism")

    rng = random.Random(500)
    group = AbelianGroup((4, 6, 2**40, 9))
    endo = random_endo(rng, group, 1.0)
    monkeypatch.setattr(EndoMatrix, "apply", refuse)
    for family in FAMILIES:
        BUILDERS[family][0](*random_args(rng, group, family))
    quad_from_endo(endo)
