"""Golden CLI output for the circuits of test_golden.

Each circuit is stored under golden/ as the text `serialize_circuit`
writes, next to the exact stdout of `normsim simulate FILE --shots 50
--seed 7` and `normsim support FILE`. Any change to parsing, conjugation,
readout, the sampler or element printing that moves a byte fails here.
"""

from pathlib import Path

import pytest

from normsim.circuits import ParsedCircuit, serialize_circuit
from normsim.cli import main
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
