"""Dense `quad` lines parse to the terms of a per-entry filter.

`QuadraticEncoding` finds the pair slots that can hold a term with
C-level passes and reads only those. `helpers.DenseQuadratic` derives
its terms entry by entry, as the package did before. On random
encodings over mixed moduli with nonzero diagonals, written with
unreduced, negative, zero-padded and space-padded values, both must
give the same terms, and bad `nee` tokens keep their errors.
"""

import random
import time

import pytest

from helpers import DenseQuadratic, quad_product, random_endo
from normsim.circuits import CircuitParseError, parse_circuit
from normsim.groups import AbelianGroup
from normsim.homs import EndoMatrix
from normsim.quadratic import (
    QuadraticEncoding,
    build_quadratic,
    derive_double_exponents,
)

MODULI = (2, 3, 4, 6, 9, 16, 27, 2**40, 10**9 + 7)


def random_encoding(rng, group):
    """A product of a few single-factor functions and a sparse from-endo."""
    d = group.moduli
    xi = build_quadratic(group, "from_endo", endo=random_endo(rng, group, 0.1))
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("character", "square", "half"))
        factor = rng.choice((0, len(d) - 1, rng.randrange(len(d))))
        a = rng.randrange(1, 2 * d[factor])
        xi = quad_product(xi, build_quadratic(group, kind, factor=factor, a=a))
    return xi


def scribble(rng, value, L):
    """value + k*L as text, maybe negative, zero-padded or space-padded."""
    v = value + rng.choice((0, 0, 1, -1, -3, 7)) * L
    text = str(abs(v))
    if rng.random() < 0.3:
        text = "0" * rng.randint(1, 3) + text
    if v < 0:
        text = "-" + text
    if rng.random() < 0.3:
        text = rng.choice((" ", "  ", "\t")) + text + rng.choice(("", " ", "\t "))
    return text


@pytest.mark.parametrize("seed", range(12))
def test_scribbled_quad_lines_parse_to_the_per_entry_terms(seed):
    rng = random.Random(seed)
    m = rng.choice((1, 2, 3, 8, 17, 40))
    group = AbelianGroup(tuple(rng.choice(MODULI) for _ in range(m)))
    L = group.phase_modulus
    xi = random_encoding(rng, group)
    assert xi.terms[0], "every case has a nonzero diagonal"
    dense = [[scribble(rng, v, L) for v in part]
             for part in (xi.n_diag, xi.n_pair, xi.n_double)]
    ne, nee, ndd = (",".join(part) for part in dense)
    text = (
        f"group: {' '.join(map(str, group.moduli))}\n"
        f"state: coset gens=[] shift=({','.join(['0'] * m)})\n"
        f"gate: quad ne=[{ne}] nee=[{nee}] ndd=[{ndd}]\n"
    )
    (gate,) = parse_circuit(text).gates
    raw = [[int(t) for t in part] for part in dense]
    assert gate.encoding.terms == DenseQuadratic(group, *raw).terms == xi.terms
    for part in gate.encoding.terms:
        assert all(type(v) is int for term in part for v in term)


@pytest.mark.parametrize("hot", [(0,), (2,), (4,), (0, 3), (1, 4), (0, 1, 2, 3, 4)])
def test_zero_pair_values_beside_nonzero_diagonals(hot):
    # over Z_4^5, n_i = 512 a_i with every n_ij written 0 gives the terms
    # b_ij = -(n_i + n_j): they sit only in the rows and columns of `hot`
    group = AbelianGroup((4,) * 5)
    ne = [512 * (i + 1) if i in hot else 0 for i in range(5)]
    ndd = [2 * n for n in ne]
    text = (
        "group: 4 4 4 4 4\nstate: coset gens=[] shift=(0,0,0,0,0)\n"
        f"gate: quad ne={ne} nee=[{','.join(['0'] * 10)}] ndd={ndd}\n"
    )
    (gate,) = parse_circuit(text).gates
    want = DenseQuadratic(group, tuple(ne), (0,) * 10, tuple(ndd)).terms
    assert gate.encoding.terms == want
    assert {i for i, j, _ in want[1]} | {j for i, j, _ in want[1]} >= set(hot)


BASE = "group: 4 4 4\nstate: coset gens=[] shift=(0,0,0)\n"


@pytest.mark.parametrize(
    "nee, reason",
    [
        ("+1,0,0", "malformed gate directive"),
        ("1_0,0,0", "malformed gate directive"),
        ("0,\u0663,0", "malformed gate directive"),
        ("0,,0", "bad integer in nee list"),
        ("0,0,", "bad integer in nee list"),
        ("0,-,0", "bad integer in nee list"),
        ("0,1 2,0", "bad integer in nee list"),
        # mostly repeats: int() runs once per distinct token
        ("0,0,0,0,0,-", "bad integer in nee list"),
        ("0,0,0,0,0,1" + "0" * 5000, "bad integer in nee list"),
    ],
    ids=[
        "plus", "underscore", "non-ascii", "empty", "trailing", "bare-minus",
        "inner-space", "repeats-bare-minus", "repeats-past-digit-limit",
    ],
)
def test_bad_nee_tokens_keep_their_errors(nee, reason):
    with pytest.raises(CircuitParseError) as exc:
        parse_circuit(BASE + f"gate: quad ne=[0,0,0] nee=[{nee}]\n")
    assert exc.value.line_no == 3
    assert exc.value.reason == reason


def quad_text(group, ne, nee, ndd=None):
    m = group.num_factors
    line = f"gate: quad ne=[{','.join(map(str, ne))}] nee=[{','.join(map(str, nee))}]"
    if ndd is not None:
        line += f" ndd=[{','.join(map(str, ndd))}]"
    return (
        f"group: {' '.join(map(str, group.moduli))}\n"
        f"state: coset gens=[] shift=({','.join(['0'] * m)})\n{line}\n"
    )


# every modulus shares 2^30 with every other, so each B(e^i, e^j) can take
# at least 2^30 values and the pair exponents of a random endomorphism differ
WIDE = (2**40, 2**30 * 3**5, 2**32 * 5**3, 2**31 * 7**2, 2**35 * 3, 2**30 * 11)


def test_a_dense_line_with_every_pair_value_live_and_distinct():
    # m = 48: all 1,128 pair exponents are nonzero and distinct, and every
    # n_i is zero, so each pair slot is found by the search for live values
    rng = random.Random(48)
    group = AbelianGroup(tuple(rng.choice(WIDE) for _ in range(48)))
    endo = random_endo(rng, group, 1.0)
    cols = tuple(
        group.element([0 if k == i else r for k, r in enumerate(c.residues)])
        for i, c in enumerate(endo.columns)
    )
    xi = build_quadratic(group, "from_endo", endo=EndoMatrix(group, cols))
    assert len(set(xi.n_pair)) == len(xi.n_pair) == 1128 and all(xi.n_pair)
    assert not any(xi.n_diag)
    text = quad_text(group, xi.n_diag, xi.n_pair, xi.n_double)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        (gate,) = parse_circuit(text).gates
        times.append(time.perf_counter() - start)
    # 9-14 ms on a 2-core box, most of it int() of 1,128 values of some
    # 540 digits; a Python pass over all slots per live value adds about
    # 140 ms there (a list.index scan per value, about 25 ms, stays under)
    assert min(times) < 0.1
    dense = DenseQuadratic(group, xi.n_diag, xi.n_pair, xi.n_double)
    assert gate.encoding.terms == dense.terms == xi.terms
    assert len(xi.terms[1]) == 1128


def hot_rows_case():
    """Z_8 x Z_8 x Z_16 x Z_16 x Z_8 with n_1 and n_3 nonzero.

    Pair terms sit inside the row or column of factor 1 or 3 (the slots
    (0,1), (1,4), (2,3) and (1,3), where the two meet) and outside them,
    at (0,2), where b_02 = n_1: the token of n_1 then appears in ne, in
    its own row and column with b = 0, and as a live value elsewhere.
    """
    group = AbelianGroup((8, 8, 16, 16, 8))
    parts = [
        build_quadratic(group, "square", factor=1, a=3),
        build_quadratic(group, "character", factor=3, a=5),
        build_quadratic(group, "cross", i=0, j=1, c=3),
        build_quadratic(group, "cross", i=1, j=4, c=5),
        build_quadratic(group, "cross", i=2, j=3, c=2),
        build_quadratic(group, "cross", i=1, j=3, c=4),
        build_quadratic(group, "cross", i=0, j=2, c=6),
    ]
    xi = parts[0]
    for part in parts[1:]:
        xi = quad_product(xi, part)
    return group, xi


def test_live_pair_values_inside_and_outside_the_rows_of_nonzero_diagonals():
    group, xi = hot_rows_case()
    assert [i for i, n in enumerate(xi.n_diag) if n] == [1, 3]
    pairs = {(i, j): b for i, j, b in xi.terms[1]}
    assert set(pairs) == {(0, 1), (1, 4), (2, 3), (1, 3), (0, 2)}
    assert pairs[0, 2] == xi.n_diag[1]
    # slots (0,2) and (1,2), row-major 1 and 4, hold that token; b_12 = 0
    assert [k for k, v in enumerate(xi.n_pair) if v == xi.n_diag[1]] == [1, 4]
    assert_parses_back(group, xi)


@pytest.mark.parametrize(
    "squares, crosses",
    [
        ((2,), ((0, 4), (2, 5))),
        ((2, 3), ((0, 4), (2, 3))),
        ((0, 5), ((1, 2), (0, 5), (3, 4))),
        ((1, 2, 4), ()),
    ],
)
def test_one_live_value_inside_and_outside_the_rows_of_nonzero_diagonals(
    squares, crosses
):
    # over Z_2^6 every nonzero value is 64 = 2|G|/2: n_i for each square,
    # b_ij for each cross; a pair slot reads n_i + n_j + b_ij mod 128, so
    # the token "64" stands for b = 0 in the row of one square, for a term
    # outside those rows, and "0" for a term inside one
    group = AbelianGroup((2,) * 6)
    xi = build_quadratic(group, "square", factor=squares[0], a=1)
    for t in squares[1:]:
        xi = quad_product(xi, build_quadratic(group, "square", factor=t, a=1))
    for i, j in crosses:
        xi = quad_product(xi, build_quadratic(group, "cross", i=i, j=j, c=1))
    assert {*xi.n_diag, *xi.n_pair, *xi.n_double} <= {0, 64}
    assert [i for i, n in enumerate(xi.n_diag) if n] == sorted(squares)
    assert {(i, j) for i, j, _ in xi.terms[1]} == set(crosses)
    assert_parses_back(group, xi)


def assert_parses_back(group, xi):
    """The dense lists give xi's terms from text and from int lists, also
    with every other copy of a nonzero value written unreduced."""
    (gate,) = parse_circuit(quad_text(group, xi.n_diag, xi.n_pair, xi.n_double)).gates
    dense = DenseQuadratic(group, xi.n_diag, xi.n_pair, xi.n_double)
    assert gate.encoding.terms == dense.terms == xi.terms
    assert QuadraticEncoding(group, xi.n_diag, xi.n_pair, xi.n_double) == xi
    L = group.phase_modulus
    nee = [v + L if v and k % 2 else v for k, v in enumerate(xi.n_pair)]
    (gate,) = parse_circuit(quad_text(group, xi.n_diag, nee, xi.n_double)).gates
    assert gate.encoding == xi


@pytest.mark.parametrize("seed", range(8))
def test_omitted_ndd_matches_the_derived_doubles(seed):
    # the parser derives the doubled values, which then join the written
    # tokens in one value map; in the hot-row case ne tokens recur in nee
    rng = random.Random(seed)
    if seed == 0:
        group, xi = hot_rows_case()
    else:
        m = rng.choice((1, 2, 5, 17))
        group = AbelianGroup(tuple(rng.choice(MODULI) for _ in range(m)))
        xi = random_encoding(rng, group)
    ndd = derive_double_exponents(group, xi.n_diag)
    (gate,) = parse_circuit(quad_text(group, xi.n_diag, xi.n_pair)).gates
    want = DenseQuadratic(group, xi.n_diag, xi.n_pair, ndd).terms
    assert gate.encoding.terms == want
    assert gate.encoding.n_double == ndd
