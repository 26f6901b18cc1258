"""Wire-format parsing, serialization round trips, random instances."""

import random
from pathlib import Path

import pytest

from normsim.affine import parse_permutation_table
from normsim.circuits import (
    MAX_FACTORS,
    CircuitParseError,
    CircuitValidationError,
    parse_circuit,
    parse_column_list,
    parse_element_literal,
    random_instance,
    serialize_circuit,
)
from normsim.engine import (
    AutomorphismGate,
    FourierGate,
    PauliGate,
    QuadraticGate,
    simulate,
)
from normsim.groups import AbelianGroup, GroupElement
from normsim.oracle import compare_with_engine
from normsim.quadratic import quad_character

BELL = """\
# prepare then entangle
group: 2 2
state: coset gens=[] shift=(0,0)
gate: qft targets=[1]
gate: auto cols=[(1,1),(0,1)]
"""


def test_parse_bell_circuit():
    c = parse_circuit(BELL)
    assert c.group.moduli == (2, 2)
    assert c.coset.generators == ()
    assert c.coset.shift.is_zero
    assert len(c.gates) == 2
    assert isinstance(c.gates[0], FourierGate)
    assert c.gates[0].targets == (0,)  # 1-based in file
    assert isinstance(c.gates[1], AutomorphismGate)
    dist = simulate(c.coset, c.gates)
    assert dist.members() == {
        c.group.element((0, 0)),
        c.group.element((1, 1)),
    }


def test_parse_every_gate_kind():
    text = """
group: 2 4
state: coset gens=[(1,2)] shift=(0,3)
gate: qft targets=[1,2]
gate: iqft targets=[2]
gate: auto cols=[(1,2),(0,1)]
gate: quad ne=[0,4] nee=[12] ndd=[0,8]
gate: pauli a=3 z=(1,0) x=(0,2)
"""
    c = parse_circuit(text)
    kinds = [type(g).__name__ for g in c.gates]
    assert kinds == [
        "FourierGate",
        "FourierGate",
        "AutomorphismGate",
        "QuadraticGate",
        "PauliGate",
    ]
    assert c.gates[1].inverse
    assert compare_with_engine(c.coset, c.gates).passed


def test_quad_without_ndd_gets_derived():
    text = """
group: 2 2
state: coset gens=[] shift=(0,0)
gate: quad ne=[0,0] nee=[4]
"""
    c = parse_circuit(text)
    g = c.gates[0]
    assert isinstance(g, QuadraticGate)
    # serialization pins the derived doubles
    out = serialize_circuit(c)
    assert "ndd=" in out


def test_serialize_round_trip():
    rng = random.Random(0)
    for seed in range(25):
        text = random_instance(seed, max_order=48, n_gates=6)
        c = parse_circuit(text)
        again = parse_circuit(serialize_circuit(c))
        assert again.group == c.group
        assert again.coset == c.coset
        assert len(again.gates) == len(c.gates)
        for a, b in zip(again.gates, c.gates):
            assert type(a) is type(b)
            assert a == b


def test_random_instances_simulate():
    for seed in range(20):
        c = parse_circuit(random_instance(seed, max_order=32, n_gates=5))
        report = compare_with_engine(c.coset, c.gates)
        assert report.passed, f"seed {seed}: {report.summary()}"


def test_comments_and_blank_lines_ignored():
    text = "\n\n# hi\ngroup: 3  # inline comment\n\nstate: coset gens=[] shift=(1)\n"
    c = parse_circuit(text)
    assert c.group.moduli == (3,)
    assert c.coset.shift.residues == (1,)


def test_element_literals():
    assert parse_element_literal("(1, 2,3)") == (1, 2, 3)
    assert parse_element_literal("(0)") == (0,)
    with pytest.raises(ValueError):
        parse_element_literal("1,2")
    g = AbelianGroup((2, 4))
    assert str(g.element((1, 3))) == "(1,3)"
    assert parse_column_list("[(1,0), (0,1)]") == [(1, 0), (0, 1)]


def err_line(text):
    with pytest.raises((CircuitParseError, CircuitValidationError)) as exc:
        parse_circuit(text)
    return exc.value


def test_error_positions():
    e = err_line("gate: qft targets=[1]\n")
    assert "line 1" in str(e)
    e = err_line("group: 2\ngate: qft targets=[1]\n")
    assert "line 2" in str(e) and "state" in str(e)
    e = err_line("group: 2\nstate: coset gens=[] shift=(0)\nnonsense\n")
    assert "line 3" in str(e)
    # missing declarations are reported past the last line
    e = err_line("# only a comment\n")
    assert "line 2" in str(e)


# str.splitlines() also breaks at these; a circuit or table file breaks
# only at "\n", so that error lines agree with grep -n
SEPARATORS = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", SEPARATORS, ids=lambda c: f"U+{ord(c):04X}")
def test_only_a_newline_ends_a_line(sep):
    # a form feed (or another separator) ending the state line
    e = err_line(f"group: 2\nstate: coset gens=[] shift=(0){sep}\ngate: bogus\n")
    assert e.line_no == 3
    # the same character inside a line, and inside a comment
    e = err_line(f"group: 2\nstate: coset{sep}gens=[] shift=(0) # a{sep}b\ngate: bogus\n")
    assert e.line_no == 3
    # a missing declaration is reported on the line after the last one
    assert err_line(f"group: 2{sep}\n").line_no == 2
    assert err_line(f"group: 2\n# {sep}").line_no == 3
    table = f"(0) -> (1){sep}\n(1) -> (0) # {sep}\n(1) -> (1)\n"
    with pytest.raises(CircuitValidationError) as exc:
        parse_permutation_table(AbelianGroup((2,)), table)
    assert exc.value.line_no == 3

def test_rejects_bad_group_lines():
    assert "line 1" in str(err_line("group: 2 1\nstate: coset gens=[] shift=(0,0)\n"))
    assert "line 1" in str(err_line("group: 0\nstate: coset gens=[] shift=(0)\n"))
    assert "line 1" in str(err_line("group:\nstate: coset gens=[] shift=(0)\n"))
    wide = "group: " + " ".join(["2"] * (MAX_FACTORS + 1)) + "\n"
    e = err_line(wide + "state: coset gens=[] shift=(0)\n")
    assert isinstance(e, CircuitValidationError) and "line 1" in str(e)
    widest = "group: " + " ".join(["2"] * MAX_FACTORS) + "\n"
    shift = "(" + ",".join(["0"] * MAX_FACTORS) + ")"
    parsed = parse_circuit(widest + f"state: coset gens=[] shift={shift}\n")
    assert parsed.group.num_factors == MAX_FACTORS


def test_rejects_bad_targets():
    base = "group: 2 2\nstate: coset gens=[] shift=(0,0)\n"
    for targets in ("3", "0", "1,1", "2,2", ""):
        for kind in ("qft", "iqft"):
            e = err_line(base + f"gate: {kind} targets=[{targets}]\n")
            assert isinstance(e, CircuitValidationError) and e.line_no == 3
            assert "target" in e.reason


def test_rejects_bad_elements():
    # over Z_2 x Z_4: a residue too many, one equal to its modulus, a negative one
    head = "group: 2 4\nstate: coset gens=[] shift=(0,0)\n"
    circuit_sites = [
        ("group: 2 4\nstate: coset gens=[(1,0),BAD] shift=(0,0)\n", 2,
         "coset generator"),
        ("group: 2 4\nstate: coset gens=[] shift=BAD\n", 2, "coset shift"),
        (head + "gate: auto cols=[(1,0),BAD]\n", 3, "matrix column"),
        (head + "gate: pauli a=0 z=BAD x=(0,0)\n", 3, "z part"),
        (head + "gate: pauli a=0 z=(0,0) x=BAD\n", 3, "x part"),
    ]
    table_sites = [
        ("(0,0) -> (0,0)\nBAD -> (1,1)\n", 2, "source"),
        ("(0,0) -> BAD\n", 1, "image"),
    ]
    group = AbelianGroup((2, 4))
    for bad, reason in [
        ("(1,0,0)", "residue count does not match group: 3 residues, 2 factors"),
        ("(0,4)", "residue 4 out of range for modulus 4"),
        ("(0,-1)", "residue -1 out of range for modulus 4"),
    ]:
        for text, line_no, what in circuit_sites + table_sites:
            with pytest.raises(CircuitValidationError) as exc:
                if text.startswith("group:"):
                    parse_circuit(text.replace("BAD", bad))
                else:
                    parse_permutation_table(group, text.replace("BAD", bad))
            assert exc.value.line_no == line_no
            assert exc.value.reason == f"{what}: {reason}"


GOLDEN = Path(__file__).parent / "golden"
# k = 2 generators, a shift, an auto over m = 3 factors and a pauli line:
# k + 1 + m + 2 literals; the qft and quad lines carry none
EVERY_LITERAL_SITE = """\
group: 4 6 3
state: coset gens=[(1,0,0),(0,2,1)] shift=(3,1,2)
gate: qft targets=[1,2]
gate: auto cols=[(1,0,0),(2,1,0),(0,0,2)]
gate: quad ne=[36,0,0] nee=[36,36,0] ndd=[0,0,0]
gate: pauli a=5 z=(1,0,0) x=(0,3,1)
"""


@pytest.mark.parametrize(
    "text, literals",
    [(EVERY_LITERAL_SITE, 2 + 1 + 3 + 2)]
    + [
        # in these files every "(" outside a comment opens an element literal
        (t, "".join(line.split("#")[0] for line in t.splitlines()).count("("))
        for t in (p.read_text() for p in sorted(GOLDEN.glob("*.nc")))
    ],
    ids=["every-site"] + [p.stem for p in sorted(GOLDEN.glob("*.nc"))],
)
def test_each_literal_is_checked_once_and_simulate_checks_none(
    monkeypatch, text, literals
):
    checked = []
    post_init = GroupElement.__post_init__

    def counted(element):
        checked.append(element)
        post_init(element)

    monkeypatch.setattr(GroupElement, "__post_init__", counted)
    circuit = parse_circuit(text)
    assert len(checked) == literals
    checked.clear()
    simulate(circuit.coset, circuit.gates).canonical
    assert checked == []


def test_malformed_element_literals_are_parse_errors():
    base = "group: 2 2\nstate: coset gens=[] shift=(0,0)\n"
    bad = [
        ("group: 2 2\nstate: coset gens=[] shift=(1,,2)\n", 2),
        (base + "gate: pauli a=0 z=(1;0) x=(0,0)\n", 3),
        (base + "gate: pauli a=0 z=(1,0) x=(0 0)\n", 3),
    ]
    for text, line_no in bad:
        with pytest.raises(CircuitParseError) as exc:
            parse_circuit(text)
        assert exc.value.line_no == line_no


def test_integers_are_ascii_digits_with_an_optional_minus():
    base = "group: 4 4\nstate: coset gens=[] shift=(0,0)\n"
    bad = [
        ("group: 2_0\nstate: coset gens=[] shift=(0)\n", 1),
        ("group: +4\nstate: coset gens=[] shift=(0)\n", 1),
        ("group: \u0663\nstate: coset gens=[] shift=(0)\n", 1),
        (base + "gate: qft targets=[+1]\n", 3),
        (base + "gate: quad ne=[0,0] nee=[1_2]\n", 3),
        (base + "gate: quad ne=[0,0] nee=[0] ndd=[0,\u0664]\n", 3),
        ("group: 4 4\nstate: coset gens=[] shift=(\u0663,1)\n", 2),
        ("group: 4 4\nstate: coset gens=[(1,+1)] shift=(0,0)\n", 2),
        (base + "gate: auto cols=[(1,0),(0,1_1)]\n", 3),
        (base + "gate: pauli a=+1 z=(1,0) x=(0,0)\n", 3),
        (base + "gate: pauli a=1_0 z=(1,0) x=(0,0)\n", 3),
        (base + "gate: pauli a=0 z=(1,0) x=(0,\uff11)\n", 3),
    ]
    for text, line_no in bad:
        with pytest.raises(CircuitParseError) as exc:
            parse_circuit(text)
        assert exc.value.line_no == line_no
    # minus signs and spaces around tokens stay accepted
    c = parse_circuit(
        "group: 4  4\nstate: coset gens=[( 1 , 3 )] shift=(0,-0)\n"
        "gate: quad ne=[ -8 , 0 ] nee=[ -8 ]\n"
        "gate: pauli a=-3 z=(1,0) x=(0,1)\n"
    )
    assert c.gates[0].encoding == quad_character(c.group, 0, -1)
    assert c.gates[1].label.phase.value == c.group.phase_modulus - 3


def test_rejects_noninvertible_auto():
    base = "group: 2 4\nstate: coset gens=[] shift=(0,0)\n"
    # valid endomorphism, no inverse
    e = err_line(base + "gate: auto cols=[(0,0),(0,1)]\n")
    assert "line 3" in str(e)
    # not even an endomorphism
    e = err_line(base + "gate: auto cols=[(1,1),(0,1)]\n")
    assert "line 3" in str(e)


def test_rejects_inconsistent_quad():
    base = "group: 2 2\nstate: coset gens=[] shift=(0,0)\n"
    # nee must contain exactly one entry for m=2
    e = err_line(base + "gate: quad ne=[0,0] nee=[]\n")
    assert "line 3" in str(e)
    # corrupted cross exponent: 2*b violates the factor-order condition
    e = err_line(base + "gate: quad ne=[0,0] nee=[5] ndd=[0,0]\n")
    assert "line 3" in str(e)


def test_permutation_table_parsing():
    g = AbelianGroup((2,))
    spec = parse_permutation_table(g, "(0) -> (1)\n(1) -> (0)\n")
    assert spec.apply(g.element((0,))).residues == (1,)
    with pytest.raises(ValueError):
        parse_permutation_table(g, "(0) -> (1)\n")  # incomplete
    with pytest.raises(ValueError):
        parse_permutation_table(g, "(0) -> (1)\n(1) -> (1)\n")  # not a bijection


def test_permutation_table_integers_are_ascii_digits():
    g = AbelianGroup((2,))
    for table in ("(+1) -> (0)\n(0) -> (1)\n", "(\u0661) -> (0)\n(0) -> (1)\n"):
        with pytest.raises(CircuitParseError) as exc:
            parse_permutation_table(g, table)
        assert exc.value.line_no == 1


def test_random_instance_seed_stability():
    assert random_instance(4, max_order=64) == random_instance(4, max_order=64)
    assert random_instance(4, max_order=64) != random_instance(5, max_order=64)


ELEMENT_LIST_BODIES = [
    ("", []),
    ("  ", []),
    ("()", [()]),
    ("(1,2)", [(1, 2)]),
    (" ( 1 , 2 ) , (0,-1) ", [(1, 2), (0, -1)]),
    ("(1,2),", [(1, 2)]),
    ("(1,2) ,", [(1, 2)]),
    ("(1,2),(0,1),", [(1, 2), (0, 1)]),
    (",(1,2)", None),
    ("(1,2),,(0,1)", None),
    ("(1,2) (0,1)", None),
    ("(1,2),x", None),
    ("(+1,2)", None),
    (",", None),
    ("(1,2", None),
    ("(1,2)x", None),
]


@pytest.mark.parametrize("body,want", ELEMENT_LIST_BODIES, ids=repr)
def test_element_list_bodies(body, want):
    if want is not None:
        assert parse_column_list(f"[{body}]") == want
        return
    with pytest.raises(ValueError):
        parse_column_list(f"[{body}]")
    for text in (
        f"group: 4 4\nstate: coset gens=[{body}] shift=(0,0)\n",
        f"group: 4 4\nstate: coset gens=[] shift=(0,0)\ngate: auto cols=[{body}]\n",
    ):
        with pytest.raises(CircuitParseError) as exc:
            parse_circuit(text)
        assert exc.value.line_no == text.count("\n")
