"""Bad element literals keep their error class, line and reason at every site.

A literal is read in five places in a circuit file (coset generators,
the coset shift, a Pauli gate's z and x parts, automorphism columns)
and on both sides of an affine-test table line. Each site reports a
syntax error, a wrong residue count, an out-of-range residue and a
residue past int()'s 4,300-digit limit in its own words; this table
pins those words.
"""

import pytest

from normsim.affine import parse_permutation_table
from normsim.circuits import (
    CircuitParseError,
    CircuitValidationError,
    parse_circuit,
)
from normsim.groups import AbelianGroup

HEAD = "group: 4 4\nstate: coset gens=[] shift=(0,0)\n"
SITES = {
    "gens": ("group: 4 4\nstate: coset gens=[(1,0),BAD] shift=(0,0)\n", 2),
    "shift": ("group: 4 4\nstate: coset gens=[] shift=BAD\n", 2),
    "pauli-z": (HEAD + "gate: pauli a=0 z=BAD x=(0,0)\n", 3),
    "pauli-x": (HEAD + "gate: pauli a=0 z=(0,0) x=BAD\n", 3),
    "auto-cols": (HEAD + "gate: auto cols=[(1,0),BAD]\n", 3),
    "table-source": ("(0,0) -> (0,0)\nBAD -> (1,1)\n", 2),
    "table-image": ("(0,0) -> (0,0)\n(1,0) -> BAD\n", 2),
}
LITERALS = {
    "empty": "()",
    "double-comma": "(1,,2)",
    "inner-space": "(1 2)",
    "plus": "(+1)",
    "trailing-comma": "(1,2,)",
    "out-of-range": "(1,4)",
    "past-digit-limit": "(1," + "1" * 4301 + ")",
}
COUNT = "residue count does not match group: 0 residues, 2 factors"
RANGE = "residue 4 out of range for modulus 4"
PARSE, VALID = CircuitParseError, CircuitValidationError


def syntax(site, literal):
    """The reason a site gives for a literal that is not -?[0-9]+ tokens."""
    if site in ("gens", "auto-cols"):
        return f"malformed element in {site.split('-')[-1]} list"
    if site.startswith("table"):
        side = " " + literal if site == "table-image" else literal + " "
        return f"malformed element literal {side!r}"
    what = {"shift": "coset shift", "pauli-z": "z part", "pauli-x": "x part"}
    return f"malformed {what[site]} literal"


def expected(site, case):
    literal = LITERALS[case]
    what = {
        "gens": "coset generator", "shift": "coset shift", "pauli-z": "z part",
        "pauli-x": "x part", "auto-cols": "matrix column",
        "table-source": "source", "table-image": "image",
    }[site]
    if case == "empty":
        return VALID, f"{what}: {COUNT}"
    if case == "out-of-range":
        return VALID, f"{what}: {RANGE}"
    if case == "past-digit-limit":
        if site in ("gens", "auto-cols"):
            return PARSE, f"bad integer in {site.split('-')[-1]} list"
        if site.startswith("table"):
            return PARSE, "bad integer in element literal"
    return PARSE, syntax(site, literal)


@pytest.mark.parametrize("case", list(LITERALS))
@pytest.mark.parametrize("site", list(SITES))
def test_bad_literal_error(site, case):
    template, line_no = SITES[site]
    text = template.replace("BAD", LITERALS[case])
    cls, reason = expected(site, case)
    with pytest.raises((CircuitParseError, CircuitValidationError)) as exc:
        if text.startswith("group:"):
            parse_circuit(text)
        else:
            parse_permutation_table(AbelianGroup((4, 4)), text)
    assert type(exc.value) is cls
    assert exc.value.line_no == line_no
    assert exc.value.reason == reason


def test_a_syntax_error_outranks_a_digit_limit_error_in_one_list():
    # the whole list is checked for syntax before any residue is converted
    huge = "1" * 4301
    for site in ("gens", "auto-cols"):
        template, line_no = SITES[site]
        text = template.replace("(1,0),BAD", f"({huge},0),(1,,2)")
        with pytest.raises(CircuitParseError) as exc:
            parse_circuit(text)
        assert exc.value.line_no == line_no
        assert exc.value.reason == syntax(site, "")
