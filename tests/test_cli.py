"""Command-line entry points and exit codes."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import normsim
from normsim.circuits import parse_circuit
from normsim.cli import _CHUNK, main
from normsim.engine import sample_stream, simulate

BELL = """\
group: 2 2
state: coset gens=[] shift=(0,0)
gate: qft targets=[1]
gate: auto cols=[(1,1),(0,1)]
"""


@pytest.fixture
def bell_file(tmp_path):
    p = tmp_path / "bell.nc"
    p.write_text(BELL)
    return str(p)


def test_simulate(bell_file, capsys):
    assert main(["simulate", bell_file, "--shots", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 8
    assert set(out) <= {"(0,0)", "(1,1)"}


def test_simulate_deterministic(bell_file, capsys):
    main(["simulate", bell_file, "--shots", "5", "--seed", "9"])
    first = capsys.readouterr().out
    main(["simulate", bell_file, "--shots", "5", "--seed", "9"])
    assert capsys.readouterr().out == first


def test_simulate_writes_every_shot_across_chunks(bell_file, capsys):
    circuit = parse_circuit(BELL)
    dist = simulate(circuit.coset, circuit.gates)
    for shots in (0, 1, _CHUNK, 2 * _CHUNK + 1):
        assert main(["simulate", bell_file, "--shots", str(shots), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out == "".join(f"{s}\n" for s in sample_stream(dist, shots, 3))


def test_simulate_into_a_closed_pipe_exits_141_quietly():
    # `normsim simulate ... | head -1`: the reader leaves after one line
    golden = Path(__file__).resolve().parent / "golden" / "clifford_z2_8.nc"
    src = str(Path(normsim.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.Popen(
        [sys.executable, "-m", "normsim.cli", "simulate", str(golden),
         "--shots", "200000", "--seed", "1"],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert first.startswith(b"(") and first.endswith(b")\n")


def test_support(bell_file, capsys):
    assert main(["support", bell_file]) == 0
    out = capsys.readouterr().out
    assert "(0,0)" in out and "(1,1)" in out


def test_verify_pass(bell_file, capsys):
    assert main(["verify", bell_file]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_verify_bound_exceeded(bell_file, capsys):
    assert main(["verify", bell_file, "--bound", "2"]) == 2


def test_verify_bound_cannot_lift_enum_ceiling(tmp_path, capsys):
    # a 2^30-element dense vector would take 16 GiB; the ceiling refuses it
    f = tmp_path / "big.nc"
    f.write_text(
        "group: 1073741824\nstate: coset gens=[] shift=(0)\n"
        "gate: qft targets=[1]\n"
    )
    assert main(["verify", str(f), "--bound", "1099511627776"]) == 2
    err = capsys.readouterr().err
    assert "exceeds bound 1048576" in err and "1099511627776" in err


def test_only_verify_loads_numpy(bell_file):
    script = textwrap.dedent(
        f"""
        import sys
        import normsim
        from normsim.cli import main
        assert main(["support", {bell_file!r}]) == 0
        assert main(["simulate", {bell_file!r}, "--shots", "3"]) == 0
        assert main(["affine-test", "--perm", "modexp:2,2,15"]) == 0
        assert "numpy" not in sys.modules, "numpy loaded before verify"
        assert main(["verify", {bell_file!r}]) == 0
        assert "numpy" in sys.modules
        """
    )
    src = str(Path(normsim.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_affine_test_modexp(capsys):
    # the verdict lives in the output text, not the exit status
    assert main(["affine-test", "--perm", "modexp:2,2,15"]) == 0
    out = capsys.readouterr().out
    assert "not_affine" in out and "witness" in out


def test_affine_test_table(tmp_path, capsys):
    table = tmp_path / "perm.txt"
    table.write_text("(0) -> (1)\n(1) -> (0)\n")
    assert main(["affine-test", "--group", "2", "--perm", str(table)]) == 0
    out = capsys.readouterr().out
    assert "affine" in out and "shift" in out


def test_affine_test_table_needs_group(tmp_path):
    table = tmp_path / "perm.txt"
    table.write_text("(0) -> (1)\n(1) -> (0)\n")
    assert main(["affine-test", "--perm", str(table)]) == 64


def test_random_circuit_pipes_into_verify(tmp_path, capsys):
    assert main(["random-circuit", "--seed", "3", "--max-order", "32"]) == 0
    text = capsys.readouterr().out
    f = tmp_path / "rand.nc"
    f.write_text(text)
    assert main(["verify", str(f)]) == 0


def test_quadgen_emits_valid_gate_line(tmp_path, capsys):
    assert (
        main(["quadgen", "--group", "2", "2", "--kind", "cross", "--i", "1", "--j", "2", "--c", "1"])
        == 0
    )
    line = capsys.readouterr().out.strip()
    assert line.startswith("gate: quad")
    f = tmp_path / "c.nc"
    f.write_text("group: 2 2\nstate: coset gens=[] shift=(0,0)\n" + line + "\n")
    assert main(["verify", str(f)]) == 0


def test_quadgen_from_endo_rejects_unreduced_columns(capsys):
    # the same literal as a circuit file's auto cols: a residue out of
    # range is an input error, not reduced away
    args = ["quadgen", "--group", "2", "2", "--kind", "from-endo"]
    assert main(args + ["--cols", "[(5,0),(0,-1)]"]) == 65
    assert "residue 5 out of range for modulus 2" in capsys.readouterr().err
    assert main(args + ["--cols", "[(1,0),(0,1)]"]) == 0
    assert capsys.readouterr().out.startswith("gate: quad")


def test_quadgen_character(capsys):
    assert main(["quadgen", "--group", "4", "--kind", "character", "--factor", "1", "--a", "3"]) == 0
    assert capsys.readouterr().out.startswith("gate: quad")


def test_usage_errors():
    assert main([]) == 64
    assert main(["bogus"]) == 64
    assert main(["simulate"]) == 64
    assert main(["quadgen", "--group", "2", "--kind", "cross"]) == 64


def test_missing_file(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.nc")]) == 65


HUGE = "1" + "0" * 5000


@pytest.mark.parametrize(
    "text",
    [
        "group: 2 2\nstate: coset gens=[] shift=(1,,2)\n",
        "group: 2 2\nstate: coset gens=[] shift=(0,0)\n"
        "gate: pauli a=0 z=(1;0) x=(0,0)\n",
        "group: 2 2\nstate: coset gens=[] shift=(0,2)\n",
        "group: 2 2\nstate: coset gens=[] shift=(0,0)\ngate: qft targets=[]\n",
        "group: 2 2\nstate: coset gens=[] shift=(0,0)\ngate: qft targets=[2,2]\n",
        # past int()'s 4,300-digit limit for str -> int conversion
        f"group: 2 2\nstate: coset gens=[] shift=(0,0)\n"
        f"gate: pauli a={HUGE} z=(0,0) x=(0,0)\n",
        f"group: 2 2\nstate: coset gens=[({HUGE},0)] shift=(0,0)\n",
        f"group: 2 2\nstate: coset gens=[] shift=(0,0)\n"
        f"gate: auto cols=[(1,0),(0,{HUGE})]\n",
        f"group: 2 2\nstate: coset gens=[] shift=({HUGE},0)\n",
    ],
    ids=[
        "shift", "pauli", "shift-range", "qft-empty", "qft-duplicate",
        "pauli-a-digits", "gens-digits", "cols-digits", "shift-digits",
    ],
)
def test_malformed_literal_exits_65_without_traceback(tmp_path, text):
    f = tmp_path / "bad.nc"
    f.write_text(text)
    src = str(Path(normsim.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "normsim.cli", "support", str(f)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 65, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "line" in proc.stderr


def test_invalid_circuit_file(tmp_path, capsys):
    f = tmp_path / "bad.nc"
    f.write_text("group: 2\ngate: qft targets=[1]\n")
    assert main(["simulate", str(f)]) == 65
    err = capsys.readouterr().err
    assert "line 2" in err


@pytest.mark.parametrize(
    "command",
    [["support"], ["affine-test", "--group", "2", "--perm"]],
    ids=["support", "affine-test-perm"],
)
def test_a_file_that_is_not_utf8_exits_65_naming_the_byte(tmp_path, capsys, command):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"# " + b"x" * 10000 + b"\n(0) -> (1)\xff\n")
    assert main(command + [str(f)]) == 65
    err = capsys.readouterr().err
    assert str(f) in err and "byte 10013" in err
    assert "Traceback" not in err


def test_crlf_lines_parse_and_a_lone_cr_ends_no_line(tmp_path, capsys):
    f = tmp_path / "crlf.nc"
    f.write_bytes(BELL.replace("\n", "\r\n").encode())
    assert main(["support", str(f)]) == 0
    capsys.readouterr()
    # grep -n sees two lines here, the second one malformed
    f.write_bytes(b"group: 2\r\nstate: coset gens=[] shift=(0)\rgate: bogus\n")
    assert main(["support", str(f)]) == 65
    assert "line 2: malformed state declaration" in capsys.readouterr().err
