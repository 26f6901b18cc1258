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

Only "\n" ends a line, so error line numbers agree with grep -n. The
group line comes first and the state line precedes all gates. Gate
lines are applied in file order. Every integer (moduli, targets, list
entries, residues, the Pauli phase a) is written -?[0-9]+: ASCII digits
with an optional minus sign, no '+' and no '_' separators. A group has
at most MAX_FACTORS = 1024 factors: without coset generators the
initial stabilizer holds all m units, m^2 residues, so a longer line
would exhaust memory instead of failing validation. The quad directive
stores a quadratic function by its exponents at the generators (ne), at
pairwise sums of generators (nee, row-major i<j), and at doubled
generators (ndd). The ndd list is optional on input; when absent, the
smallest consistent doubled values are chosen, and serialization always
writes them out. A quad line's tokens are converted once per distinct
token, so a dense line costs about its split, and a gate line that
repeats an earlier one of the file costs a dict lookup.
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
    build_quadratic,
    derive_double_exponents,
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


# int() also takes '+', '_' and non-ASCII digits; on text made of these
# characters alone it accepts exactly the grammar's -?[0-9]+ tokens
_INT_LIST = r"[-0-9,\s]*"
_INT_TOKEN = re.compile(r"\s*-?[0-9]+\s*")
_INT_CHARS = re.compile(r"[-0-9\s]*")
_ELEMENT_RE = re.compile(rf"\(({_INT_LIST})\)")
# "(..), (..)," with an optional trailing comma, as in "gens=[...]"
_ELEMENT_LIST_RE = re.compile(
    rf"\s*(?:{_ELEMENT_RE.pattern}\s*(?:,\s*{_ELEMENT_RE.pattern}\s*)*(?:,\s*)?)?"
)


def _ints(tokens: list[str], line_no: int, reason: str) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:
        raise CircuitParseError(line_no, reason) from None


def _tokens(body: str | None) -> list[str]:
    return body.split(",") if body and not body.isspace() else []


def _elements(bodies, line_no: int, malformed: str, bad: str) -> list[tuple[int, ...]]:
    """Residue tuples of literal bodies that matched _ELEMENT_RE, "1,3"
    of "(1,3)"; int() takes each token unless it is empty, holds an inner
    space or an inner sign, or runs past int()'s digit limit."""
    try:
        return [tuple(map(int, _tokens(b))) for b in bodies]
    except ValueError:  # a malformed token outranks one past the digit limit
        tokens = [t for b in bodies for t in _tokens(b)]
        reason = bad if all(map(_INT_TOKEN.fullmatch, tokens)) else malformed
        raise CircuitParseError(line_no, reason) from None


def _literal(text: str, line_no: int, malformed: str, bad: str) -> tuple[int, ...]:
    m = _ELEMENT_RE.fullmatch(text.strip())
    if not m:
        raise CircuitParseError(line_no, malformed)
    return _elements(m.groups(), line_no, malformed, bad)[0]


def parse_element_literal(text: str) -> tuple[int, ...]:
    """Residue tuple from a "(1,3)" literal; raises ValueError on junk."""
    malformed = f"malformed element literal {text!r}"
    try:
        return _literal(text, 0, malformed, "bad integer in element literal")
    except CircuitError as err:
        raise ValueError(err.reason) from None


def parse_column_list(text: str) -> list[tuple[int, ...]]:
    """Residue tuples from a "[(1,2),(0,1)]" literal."""
    raw = text.strip()
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ValueError("column list must look like [(..),(..)]")
    try:
        return _split_element_list(raw[1:-1], 0, "cols")
    except CircuitError as err:
        raise ValueError(err.reason) from None


def _split_element_list(body: str, line_no: int, what: str) -> list[tuple[int, ...]]:
    malformed = f"malformed element in {what} list"
    if not _ELEMENT_LIST_RE.fullmatch(body):
        raise CircuitParseError(line_no, malformed)
    bad = f"bad integer in {what} list"
    return _elements(_ELEMENT_RE.findall(body), line_no, malformed, bad)


def _checked_literal(
    group: AbelianGroup, text: str, line_no: int, what: str
) -> GroupElement:
    """checked_element of a "(..)" literal; a malformed one is a parse error."""
    reason = f"malformed {what} literal"
    residues = _literal(text, line_no, reason, reason)
    return checked_element(group, residues, line_no, what)


def checked_element(
    group: AbelianGroup, residues: Sequence[int], line_no: int, what: str
) -> GroupElement:
    """The element with these residues, or a line-numbered validation error."""
    try:
        return GroupElement(group, tuple(residues))
    except ValueError as err:
        raise CircuitValidationError(line_no, f"{what}: {err}") from None


_GROUP_RE = re.compile(r"group:\s*([-0-9\s]+?)\s*$")
_STATE_RE = re.compile(
    r"state:\s*coset\s+gens\s*=\s*\[(?P<gens>[^\]]*)\]\s*"
    r"shift\s*=\s*(?P<shift>\([^)]*\))\s*$"
)
_QFT_RE = re.compile(
    rf"gate:\s*(?P<kind>i?qft)\s+targets\s*=\s*\[(?P<t>{_INT_LIST})\]\s*$"
)
_AUTO_RE = re.compile(r"gate:\s*auto\s+cols\s*=\s*\[(?P<cols>[^\]]*)\]\s*$")
_QUAD_RE = re.compile(
    r"gate:\s*quad\s+ne\s*=\s*\[(?P<ne>[^\]]*)\]\s*"
    r"nee\s*=\s*\[(?P<nee>[^\]]*)\]"
    r"(?:\s*ndd\s*=\s*\[(?P<ndd>[^\]]*)\])?\s*$"
)
_PAULI_RE = re.compile(
    r"gate:\s*pauli\s+a\s*=\s*(?P<a>-?[0-9]+)\s+"
    r"z\s*=\s*(?P<z>\([^)]*\))\s+x\s*=\s*(?P<x>\([^)]*\))\s*$"
)
# a gate line is matched only against the pattern of its keyword
_GATE_KIND = re.compile(r"gate:\s*([a-z]+)")
_GATE_RES = {
    "qft": _QFT_RE,
    "iqft": _QFT_RE,
    "auto": _AUTO_RE,
    "quad": _QUAD_RE,
    "pauli": _PAULI_RE,
}


def parse_circuit(text: str) -> ParsedCircuit:
    """Parse a circuit file; see the module docstring for the grammar."""
    group: AbelianGroup | None = None
    coset: CosetInput | None = None
    gates: list[Gate] = []
    # gates are frozen, so a repeated line shares the gate of its first
    # occurrence, which is where a bad line raises
    parsed: dict[str, Gate] = {}
    # only "\n" ends a line, as for grep -n; strip() drops a "\r" before it
    lines = text.split("\n")
    for line_no, raw in enumerate(lines, start=1):
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
            moduli = _ints(parts, line_no, "bad modulus")
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
            shift = _checked_literal(group, m.group("shift"), line_no, "coset shift")
            coset = CosetInput(group, tuple(gens), shift)
        elif line.startswith("gate:"):
            if group is None or coset is None:
                raise CircuitParseError(
                    line_no, "gate before group and state declarations"
                )
            gate = parsed.get(line)
            if gate is None:
                gate = parsed[line] = _parse_gate(group, line, line_no)
            gates.append(gate)
        else:
            raise CircuitParseError(line_no, f"unknown directive {line.split(':')[0]!r}")
    end = len(lines) + (lines[-1] != "")  # the line after the last one
    if group is None:
        raise CircuitParseError(end, "missing group declaration")
    if coset is None:
        raise CircuitParseError(end, "missing state declaration")
    return ParsedCircuit(group, coset, tuple(gates))


def _parse_gate(group: AbelianGroup, line: str, line_no: int) -> Gate:
    kind = _GATE_KIND.match(line)
    pattern = _GATE_RES.get(kind and kind.group(1))
    m = pattern.fullmatch(line) if pattern else None
    if m is None:
        raise CircuitParseError(line_no, "malformed gate directive")
    if pattern is _QFT_RE:
        targets = _ints(_tokens(m.group("t")), line_no, "bad integer in targets list")
        for t in targets:
            if not 1 <= t <= group.num_factors:
                raise CircuitValidationError(
                    line_no, f"target {t} out of range 1..{group.num_factors}"
                )
        inverse = m.group("kind") == "iqft"
        try:
            return FourierGate(group, tuple(t - 1 for t in targets), inverse)
        except ValueError as err:
            raise CircuitValidationError(line_no, str(err)) from None
    if pattern is _AUTO_RE:
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
    if pattern is _QUAD_RE:
        ne, nee, ndd = map(_tokens, m.group("ne", "nee", "ndd"))
        distinct = set(ne).union(nee, ndd)
        # the line pattern takes any list body; its tokens are checked here
        if not _INT_CHARS.fullmatch("".join(distinct)):
            raise CircuitParseError(line_no, "malformed gate directive")
        try:  # int() once per distinct token of the three lists
            value = dict(zip(distinct, map(int, distinct)))
        except ValueError:  # name the first list that holds a bad one
            _ints(ne, line_no, "bad integer in ne list")
            _ints(nee, line_no, "bad integer in nee list")
            value = None
        mf = group.num_factors
        if len(ne) != mf:
            raise CircuitValidationError(line_no, f"ne needs {mf} entries")
        if len(nee) != mf * (mf - 1) // 2:
            raise CircuitValidationError(
                line_no, f"nee needs {mf * (mf - 1) // 2} entries"
            )
        try:
            if m.group("ndd") is None:
                ndd = derive_double_exponents(group, tuple(map(value.get, ne)))
                value.update(zip(ndd, ndd))
            elif value is None:
                raise CircuitParseError(line_no, "bad integer in ndd list")
            elif len(ndd) != mf:
                raise CircuitValidationError(line_no, f"ndd needs {mf} entries")
            encoding = QuadraticEncoding(group, ne, nee, ndd, value)
        except InvalidQuadratic as err:
            raise CircuitValidationError(
                line_no, f"inconsistent quadratic exponents: {err}"
            ) from None
        return QuadraticGate(encoding)
    z = _checked_literal(group, m.group("z"), line_no, "z part")
    x = _checked_literal(group, m.group("x"), line_no, "x part")
    (a,) = _ints([m.group("a")], line_no, "bad integer in pauli a")
    return PauliGate(PauliLabel(PhaseExponent(group, a), z, x))


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
    cols = [
        group.element([rng.randrange(g := math.gcd(di, dk)) * (dk // g) for dk in d])
        for di in d
    ]
    return EndoMatrix(group, tuple(cols))


def _random_automorphism(rng: random.Random, group: AbelianGroup) -> AutomorphismGate:
    """Compose multiplication and shear maps, which are always invertible."""
    d = group.moduli
    m = group.num_factors
    matrix = EndoMatrix.identity(group)
    for _ in range(rng.randint(1, 3)):
        cols = list(EndoMatrix.identity(group).columns)
        if m >= 2 and rng.random() < 0.5:
            i, j = rng.sample(range(m), 2)
            g = math.gcd(d[i], d[j])
            cols[i] = cols[i] + rng.randrange(g) * (d[j] // g) * group.unit(j)
        else:
            i = rng.randrange(m)
            units = [a for a in range(1, d[i]) if math.gcd(a, d[i]) == 1]
            cols[i] = rng.choice(units) * group.unit(i)
        matrix = EndoMatrix(group, tuple(cols)).compose(matrix)
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
        enc = build_quadratic(group, kind, i=i, j=j, c=rng.randrange(g) * (d[j] // g))
    elif kind == "from_endo":
        enc = build_quadratic(group, kind, endo=_random_valid_endo(rng, group))
    else:
        t = rng.randrange(m)
        enc = build_quadratic(group, kind, factor=t, a=rng.randrange(2 * d[t]))
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
        if math.prod(moduli) <= max_order:
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
