"""Golden CLI output for the circuits of test_golden.

Each circuit is stored under golden/ as the text `serialize_circuit`
writes, next to the exact stdout of `normsim simulate FILE --shots 50
--seed 7` and `normsim support FILE`. `support` prints the canonical
form of the output coset and `simulate` one draw per shot decoded over
it, so both are functions of the coset (and the seed) alone. Any
change to parsing, the coset an engine reads out, the sampler or
element printing that moves a byte fails here. Streams and `support`
output moved once, in 0.2.0, to this one-draw, canonical form.
"""

from pathlib import Path

import pytest

from normsim.circuits import ParsedCircuit, serialize_circuit
from normsim.cli import main
from normsim.engine import simulate
from normsim.homs import Subgroup, subgroup_contains
from test_golden import bell, clifford_z2_8, mixed_moduli

GOLDEN = Path(__file__).parent / "golden"
CIRCUITS = [bell, clifford_z2_8, mixed_moduli]
COMMANDS = {
    "simulate": ["--shots", "50", "--seed", "7"],
    "support": [],
}


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_golden_file_is_the_circuit(circuit):
    coset, gates = circuit()
    text = serialize_circuit(ParsedCircuit(coset.group, coset, tuple(gates)))
    assert (GOLDEN / f"{circuit.__name__}.nc").read_text() == text


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("circuit", CIRCUITS)
def test_cli_stdout_is_pinned(capsys, circuit, command):
    path = GOLDEN / f"{circuit.__name__}.nc"
    assert main([command, str(path), *COMMANDS[command]]) == 0
    expected = (GOLDEN / f"{circuit.__name__}.{command}.txt").read_text()
    assert capsys.readouterr().out == expected


def _element(group, text):
    return group.element([int(v) for v in text.strip().strip("()").split(",")])


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_pinned_cli_output_lies_in_the_output_coset(circuit):
    """The pinned support prints the engine's coset, and every pinned
    shot lies in it, so a re-pin moves draws and rows but no coset."""
    coset, gates = circuit()
    dist = simulate(coset, gates)
    g, support = dist.group, dist.support
    lines = (GOLDEN / f"{circuit.__name__}.support.txt").read_text().splitlines()
    assert lines[0].startswith("x0=")
    assert all(line.startswith("h=") for line in lines[1:])
    pinned = Subgroup(g, tuple(_element(g, line[2:]) for line in lines[1:]))
    assert all(subgroup_contains(support, h) for h in pinned.generators)
    assert all(subgroup_contains(pinned, h) for h in support.generators)
    assert subgroup_contains(support, _element(g, lines[0][3:]) - dist.offset)
    shots = (GOLDEN / f"{circuit.__name__}.simulate.txt").read_text().splitlines()
    assert len(shots) == 50
    assert all(subgroup_contains(support, _element(g, s) - dist.offset) for s in shots)
