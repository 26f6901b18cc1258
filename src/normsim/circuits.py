"""Circuit-file wire format: parsing, serialization, random instances.

One directive per line, '#' starts a comment, keywords are
case-sensitive, factor indices are 1-based in files and 0-based
internally. The full grammar:

    group: d1 d2 ... dm
    state: coset gens=[(..),(..)] shift=(..)
    gate: qft targets=[i,...]
    gate: iqft targets=[i,...]
    gate: auto cols=[(..),...]
    gate: quad ne=[..] nee=[..] ndd=[..]
    gate: pauli a=<int> z=(..) x=(..)

The group line comes first and the state line precedes all gates. Gate
lines are applied in file order. A group has at most MAX_FACTORS = 1024
factors: without coset generators the initial stabilizer holds all m
units, m^2 residues, so a longer line would exhaust memory instead of
failing validation. The quad directive stores a quadratic function by
its exponents at the generators (ne), at pairwise sums of generators
(nee, row-major i<j), and at doubled generators (ndd). The ndd list is
optional on input; when absent, the smallest consistent doubled values
are chosen, and serialization always writes them out.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Sequence

from .engine import (
    AutomorphismGate,
    CosetInput,
    FourierGate,
    Gate,
    NotInvertible,
    PauliGate,
    QuadraticGate,
)
from .groups import AbelianGroup, GroupElement, PhaseExponent
from .homs import EndoMatrix, InvalidEndomorphism
from .pauli import PauliLabel
from .quadratic import (
    InvalidQuadratic,
    QuadraticEncoding,
    derive_double_exponents,
    quad_character,
    quad_cross,
    quad_from_endo,
    quad_half,
    quad_square,
)


MAX_FACTORS = 1024


class CircuitError(ValueError):
    """Problem in a circuit file, positioned at a 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class CircuitParseError(CircuitError):
    """The line does not match the grammar."""


class CircuitValidationError(CircuitError):
    """The line parses but its content is inconsistent with the group."""


@dataclass(frozen=True)
class ParsedCircuit:
    group: AbelianGroup
    coset: CosetInput
    gates: tuple[Gate, ...]


_ELEMENT_RE = re.compile(r"\(\s*(-?\d+\s*(?:,\s*-?\d+\s*)*)?\)")


def parse_element_literal(text: str) -> tuple[int, ...]:
    """Residue tuple from a "(1,3)" literal; raises ValueError on junk."""
    m = _ELEMENT_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"malformed element literal {text!r}")
    body = m.group(1)
    if body is None:
        return ()
    return tuple(int(p) for p in body.split(","))


def parse_column_list(text: str) -> list[tuple[int, ...]]:
    """Residue tuples from a "[(1,2),(0,1)]" literal."""
    raw = text.strip()
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ValueError("column list must look like [(..),(..)]")
    try:
        return _split_element_list(raw[1:-1], 0, "cols")
    except CircuitError as err:
        raise ValueError(err.reason) from None


def _split_int_list(body: str, line_no: int, what: str) -> list[int]:
    body = body.strip()
    if not body:
        return []
    try:
        return [int(p) for p in body.split(",")]
    except ValueError:
        raise CircuitParseError(line_no, f"bad integer in {what} list") from None


def _split_element_list(body: str, line_no: int, what: str) -> list[tuple[int, ...]]:
    inner = body.strip()
    out = []
    pos, n = 0, len(inner)
    while pos < n:
        while pos < n and inner[pos].isspace():
            pos += 1
        if pos >= n:
            break
        m = _ELEMENT_RE.match(inner, pos)
        if not m:
            raise CircuitParseError(line_no, f"malformed element in {what} list")
        out.append(parse_element_literal(m.group(0)))
        pos = m.end()
        while pos < n and inner[pos].isspace():
            pos += 1
        if pos < n:
            if inner[pos] != ",":
                raise CircuitParseError(
                    line_no, f"junk between elements in {what} list"
                )
            pos += 1
    return out


def checked_element(
    group: AbelianGroup, residues: Sequence[int], line_no: int, what: str
) -> GroupElement:
    """The element with these residues, or a line-numbered validation error."""
    if len(residues) != group.num_factors:
        raise CircuitValidationError(
            line_no,
            f"{what} has {len(residues)} residues, group has "
            f"{group.num_factors} factors",
        )
    for r, d in zip(residues, group.moduli):
        if not 0 <= r < d:
            raise CircuitValidationError(
                line_no, f"{what} residue {r} out of range for modulus {d}"
            )
    return group.element(residues)


_GROUP_RE = re.compile(r"group:\s*(.+?)\s*$")
_STATE_RE = re.compile(
    r"state:\s*coset\s+gens\s*=\s*\[(?P<gens>[^\]]*)\]\s*"
    r"shift\s*=\s*(?P<shift>\([^)]*\))\s*$"
)
_QFT_RE = re.compile(r"gate:\s*(?P<kind>i?qft)\s+targets\s*=\s*\[(?P<t>[^\]]*)\]\s*$")
_AUTO_RE = re.compile(r"gate:\s*auto\s+cols\s*=\s*\[(?P<cols>[^\]]*)\]\s*$")
_QUAD_RE = re.compile(
    r"gate:\s*quad\s+ne\s*=\s*\[(?P<ne>[^\]]*)\]\s*"
    r"nee\s*=\s*\[(?P<nee>[^\]]*)\]"
    r"(?:\s*ndd\s*=\s*\[(?P<ndd>[^\]]*)\])?\s*$"
)
_PAULI_RE = re.compile(
    r"gate:\s*pauli\s+a\s*=\s*(?P<a>-?\d+)\s+"
    r"z\s*=\s*(?P<z>\([^)]*\))\s+x\s*=\s*(?P<x>\([^)]*\))\s*$"
)


def parse_circuit(text: str) -> ParsedCircuit:
    """Parse a circuit file; see the module docstring for the grammar."""
    group: AbelianGroup | None = None
    coset: CosetInput | None = None
    gates: list[Gate] = []
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("group:"):
            if group is not None:
                raise CircuitParseError(line_no, "duplicate group declaration")
            m = _GROUP_RE.fullmatch(line)
            if not m:
                raise CircuitParseError(line_no, "malformed group declaration")
            parts = m.group(1).split()
            if len(parts) > MAX_FACTORS:
                raise CircuitValidationError(
                    line_no,
                    f"group has {len(parts)} factors, at most {MAX_FACTORS} allowed",
                )
            try:
                moduli = [int(p) for p in parts]
            except ValueError:
                raise CircuitParseError(line_no, "bad modulus") from None
            if not moduli:
                raise CircuitParseError(line_no, "group needs at least one factor")
            if any(d < 2 for d in moduli):
                raise CircuitValidationError(line_no, "every modulus must be >= 2")
            group = AbelianGroup(tuple(moduli))
        elif line.startswith("state:"):
            if group is None:
                raise CircuitParseError(line_no, "state before group declaration")
            if coset is not None:
                raise CircuitParseError(line_no, "duplicate state declaration")
            m = _STATE_RE.fullmatch(line)
            if not m:
                raise CircuitParseError(line_no, "malformed state declaration")
            gens = [
                checked_element(group, res, line_no, "coset generator")
                for res in _split_element_list(m.group("gens"), line_no, "gens")
            ]
            shift = checked_element(
                group,
                parse_element_literal(m.group("shift")),
                line_no,
                "coset shift",
            )
            coset = CosetInput(group, tuple(gens), shift)
        elif line.startswith("gate:"):
            if group is None or coset is None:
                raise CircuitParseError(
                    line_no, "gate before group and state declarations"
                )
            gates.append(_parse_gate(group, line, line_no))
        else:
            raise CircuitParseError(line_no, f"unknown directive {line.split(':')[0]!r}")
    if group is None:
        raise CircuitParseError(last_line + 1, "missing group declaration")
    if coset is None:
        raise CircuitParseError(last_line + 1, "missing state declaration")
    return ParsedCircuit(group, coset, tuple(gates))


def _parse_gate(group: AbelianGroup, line: str, line_no: int) -> Gate:
    m = _QFT_RE.fullmatch(line)
    if m:
        targets = _split_int_list(m.group("t"), line_no, "targets")
        if not targets:
            raise CircuitValidationError(line_no, "transform needs targets")
        for t in targets:
            if not 1 <= t <= group.num_factors:
                raise CircuitValidationError(
                    line_no, f"target {t} out of range 1..{group.num_factors}"
                )
        if len(set(targets)) != len(targets):
            raise CircuitValidationError(line_no, "duplicate targets")
        return FourierGate(
            group, tuple(t - 1 for t in targets), inverse=m.group("kind") == "iqft"
        )
    m = _AUTO_RE.fullmatch(line)
    if m:
        cols = [
            checked_element(group, res, line_no, "matrix column")
            for res in _split_element_list(m.group("cols"), line_no, "cols")
        ]
        if len(cols) != group.num_factors:
            raise CircuitValidationError(
                line_no,
                f"need {group.num_factors} columns, got {len(cols)}",
            )
        try:
            matrix = EndoMatrix(group, tuple(cols))
        except InvalidEndomorphism as err:
            raise CircuitValidationError(
                line_no, f"column {err.column + 1} is not a homomorphism image"
            ) from None
        try:
            return AutomorphismGate(matrix)
        except NotInvertible:
            raise CircuitValidationError(line_no, "matrix is not invertible") from None
    m = _QUAD_RE.fullmatch(line)
    if m:
        ne = _split_int_list(m.group("ne"), line_no, "ne")
        nee = _split_int_list(m.group("nee"), line_no, "nee")
        mf = group.num_factors
        if len(ne) != mf:
            raise CircuitValidationError(line_no, f"ne needs {mf} entries")
        if len(nee) != mf * (mf - 1) // 2:
            raise CircuitValidationError(
                line_no, f"nee needs {mf * (mf - 1) // 2} entries"
            )
        try:
            if m.group("ndd") is None:
                ndd = derive_double_exponents(group, tuple(ne))
            else:
                raw = _split_int_list(m.group("ndd"), line_no, "ndd")
                if len(raw) != mf:
                    raise CircuitValidationError(line_no, f"ndd needs {mf} entries")
                ndd = tuple(raw)
            encoding = QuadraticEncoding(group, tuple(ne), tuple(nee), ndd)
        except InvalidQuadratic as err:
            raise CircuitValidationError(
                line_no, f"inconsistent quadratic exponents: {err}"
            ) from None
        return QuadraticGate(encoding)
    m = _PAULI_RE.fullmatch(line)
    if m:
        z = checked_element(
            group, parse_element_literal(m.group("z")), line_no, "z part"
        )
        x = checked_element(
            group, parse_element_literal(m.group("x")), line_no, "x part"
        )
        return PauliGate(
            PauliLabel(PhaseExponent(group, int(m.group("a"))), z, x)
        )
    raise CircuitParseError(line_no, "malformed gate directive")


def serialize_circuit(circuit: ParsedCircuit) -> str:
    lines = ["group: " + " ".join(str(d) for d in circuit.group.moduli)]
    gens = ",".join(str(g) for g in circuit.coset.generators)
    lines.append(f"state: coset gens=[{gens}] shift={circuit.coset.shift}")
    for gate in circuit.gates:
        lines.append(serialize_gate(gate))
    return "\n".join(lines) + "\n"


def serialize_gate(gate: Gate) -> str:
    if isinstance(gate, FourierGate):
        kind = "iqft" if gate.inverse else "qft"
        targets = ",".join(str(t + 1) for t in gate.targets)
        return f"gate: {kind} targets=[{targets}]"
    if isinstance(gate, AutomorphismGate):
        cols = ",".join(str(c) for c in gate.matrix.columns)
        return f"gate: auto cols=[{cols}]"
    if isinstance(gate, QuadraticGate):
        enc = gate.encoding
        ne = ",".join(str(v) for v in enc.n_diag)
        nee = ",".join(str(v) for v in enc.n_pair)
        ndd = ",".join(str(v) for v in enc.n_double)
        return f"gate: quad ne=[{ne}] nee=[{nee}] ndd=[{ndd}]"
    if isinstance(gate, PauliGate):
        lab = gate.label
        return f"gate: pauli a={lab.phase.value} z={lab.z_part} x={lab.x_part}"
    raise TypeError(f"unknown gate {gate!r}")


def _random_valid_endo(rng: random.Random, group: AbelianGroup) -> EndoMatrix:
    """Any endomorphism: entry (k, i) must be a multiple of d_k/gcd(d_i, d_k)."""
    d = group.moduli
    cols = []
    for i in range(group.num_factors):
        col = []
        for k in range(group.num_factors):
            g = math.gcd(d[i], d[k])
            col.append(rng.randrange(g) * (d[k] // g))
        cols.append(group.element(col))
    return EndoMatrix(group, tuple(cols))


def _random_automorphism(rng: random.Random, group: AbelianGroup) -> AutomorphismGate:
    """Compose multiplication and shear maps, which are always invertible."""
    d = group.moduli
    m = group.num_factors
    matrix = EndoMatrix.identity(group)
    for _ in range(rng.randint(1, 3)):
        if m >= 2 and rng.random() < 0.5:
            i, j = rng.sample(range(m), 2)
            g = math.gcd(d[i], d[j])
            c = rng.randrange(g) * (d[j] // g)
            cols = list(EndoMatrix.identity(group).columns)
            cols[i] = cols[i] + c * group.unit(j)
            step = EndoMatrix(group, tuple(cols))
        else:
            i = rng.randrange(m)
            units = [a for a in range(1, d[i]) if math.gcd(a, d[i]) == 1]
            a = rng.choice(units)
            cols = list(EndoMatrix.identity(group).columns)
            cols[i] = a * group.unit(i)
            step = EndoMatrix(group, tuple(cols))
        matrix = step.compose(matrix)
    return AutomorphismGate(matrix)


def _random_quadratic(rng: random.Random, group: AbelianGroup) -> QuadraticGate:
    d = group.moduli
    m = group.num_factors
    kinds = ["character", "square", "half", "from_endo"]
    if m >= 2:
        kinds.append("cross")
    kind = rng.choice(kinds)
    if kind == "cross":
        i, j = rng.sample(range(m), 2)
        g = math.gcd(d[i], d[j])
        enc = quad_cross(group, i, j, rng.randrange(g) * (d[j] // g))
    elif kind == "from_endo":
        enc = quad_from_endo(_random_valid_endo(rng, group))
    else:
        t = rng.randrange(m)
        builder = {
            "character": quad_character,
            "square": quad_square,
            "half": quad_half,
        }[kind]
        enc = builder(group, t, rng.randrange(2 * d[t]))
    return QuadraticGate(enc)


def random_instance(
    seed: int, max_order: int = 64, n_gates: int = 5
) -> str:
    """A deterministic random circuit file; always parses and validates."""
    if max_order < 2:
        raise ValueError("max_order must be at least 2")
    rng = random.Random(seed)
    while True:
        m = rng.randint(1, 3)
        moduli = tuple(rng.randint(2, 12) for _ in range(m))
        order = 1
        for dd in moduli:
            order *= dd
        if order <= max_order:
            break
    group = AbelianGroup(moduli)
    gens = tuple(
        group.element([rng.randrange(dd) for dd in moduli])
        for _ in range(rng.randint(0, 2))
    )
    shift = group.element([rng.randrange(dd) for dd in moduli])
    coset = CosetInput(group, gens, shift)
    gates: list[Gate] = []
    for _ in range(n_gates):
        kind = rng.choice(["qft", "iqft", "auto", "quad", "pauli"])
        if kind in ("qft", "iqft"):
            k = rng.randint(1, m)
            targets = tuple(sorted(rng.sample(range(m), k)))
            gates.append(FourierGate(group, targets, inverse=kind == "iqft"))
        elif kind == "auto":
            gates.append(_random_automorphism(rng, group))
        elif kind == "quad":
            gates.append(_random_quadratic(rng, group))
        else:
            label = PauliLabel(
                PhaseExponent(group, rng.randrange(group.phase_modulus)),
                group.element([rng.randrange(dd) for dd in moduli]),
                group.element([rng.randrange(dd) for dd in moduli]),
            )
            gates.append(PauliGate(label))
    return serialize_circuit(ParsedCircuit(group, coset, tuple(gates)))
