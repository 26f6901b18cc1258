"""Wire-format parsing, serialization round trips, random instances."""

import random

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
from normsim.groups import AbelianGroup
from normsim.oracle import compare_with_engine

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
    assert "target" in str(err_line(base + "gate: qft targets=[3]\n"))
    assert "target" in str(err_line(base + "gate: qft targets=[0]\n"))
    assert "target" in str(err_line(base + "gate: qft targets=[1,1]\n"))


def test_rejects_bad_elements():
    base = "group: 2 2\nstate: coset gens=[] shift=(0,0)\n"
    e = err_line(base + "gate: pauli a=0 z=(1,0,0) x=(0,0)\n")
    assert "line 3" in str(e)
    e = err_line("group: 2 2\nstate: coset gens=[(1,2,3)] shift=(0,0)\n")
    assert "line 2" in str(e)


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


def test_random_instance_seed_stability():
    assert random_instance(4, max_order=64) == random_instance(4, max_order=64)
    assert random_instance(4, max_order=64) != random_instance(5, max_order=64)
