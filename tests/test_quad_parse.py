"""Dense `quad` lines parse to the terms of a per-entry filter.

`QuadraticEncoding` finds the pair slots that can hold a term with
C-level passes and reads only those. `helpers.DenseQuadratic` derives
its terms entry by entry, as the package did before. On random
encodings over mixed moduli with nonzero diagonals, written with
unreduced, negative, zero-padded and space-padded values, both must
give the same terms, and bad `nee` tokens keep their errors.
"""

import random

import pytest

from helpers import DenseQuadratic, quad_product, random_endo
from normsim.circuits import CircuitParseError, parse_circuit
from normsim.groups import AbelianGroup
from normsim.quadratic import build_quadratic

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
