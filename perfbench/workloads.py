"""Seeded circuit generators for the benchmark workloads.

Circuit number i of seed s is a pure function of (workload, s, i, size):
it is drawn from `random.Random(f"{name}:{size}:{s}:{i}")`, built with
normsim's public builders and written out in the `.nsim` text format.
The program under test only ever receives that text.

Automorphism lines are written from the EndoMatrix columns directly,
because constructing an AutomorphismGate would run `auto_inverse`, the
very cost the mixed-auto workload exists to measure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from normsim import (
    AbelianGroup,
    EndoMatrix,
    FourierGate,
    PauliGate,
    QuadraticGate,
    build_quadratic,
    pauli_label,
)
from normsim.circuits import serialize_gate


@dataclass(frozen=True)
class Workload:
    """One benchmark workload at one size.

    Attributes:
        make: draws one circuit text from a seeded RNG.
        shots: shots drawn from every solved circuit.
        batch: every run solves at least this many circuits, and the
            traced run solves exactly these, so its counts repeat.
        verify: run every circuit through the dense oracle.
        metamorphic: check C followed by C^-1 on the first circuit.
    """

    name: str
    make: Callable[[random.Random], str]
    shots: int
    batch: int
    verify: bool
    metamorphic: bool


def circuit_text(workload: Workload, size: str, seed: int, index: int) -> str:
    return workload.make(random.Random(f"{workload.name}:{size}:{seed}:{index}"))


def _element(rng: random.Random, group: AbelianGroup) -> tuple[int, ...]:
    return tuple(rng.randrange(d) for d in group.moduli)


def _header(rng: random.Random, group: AbelianGroup, n_gens: int) -> list[str]:
    gens = ",".join(
        str(group.element(_element(rng, group))) for _ in range(n_gens)
    )
    shift = group.element(_element(rng, group))
    return [
        "group: " + " ".join(str(d) for d in group.moduli),
        f"state: coset gens=[{gens}] shift={shift}",
    ]


def _auto_line(matrix: EndoMatrix) -> str:
    return "gate: auto cols=[" + ",".join(str(c) for c in matrix.columns) + "]"


def _quad_line(group: AbelianGroup, kind: str, **params) -> str:
    return serialize_gate(QuadraticGate(build_quadratic(group, kind, **params)))


def _unit(rng: random.Random, d: int) -> int:
    while True:
        a = rng.randrange(1, d)
        if math.gcd(a, d) == 1:
            return a


def _scaling(group: AbelianGroup, i: int, a: int) -> EndoMatrix:
    cols = list(group.units())
    cols[i] = a * cols[i]
    return EndoMatrix(group, tuple(cols))


def _shear(group: AbelianGroup, i: int, j: int, c: int) -> EndoMatrix:
    """e^i -> e^i + c e^j; a homomorphism when d_i * c = 0 mod d_j."""
    cols = list(group.units())
    cols[i] = cols[i] + c * group.unit(j)
    return EndoMatrix(group, tuple(cols))


def _random_shear(rng: random.Random, group: AbelianGroup, pairs) -> EndoMatrix:
    d = group.moduli
    i, j = rng.choice(pairs)
    g = math.gcd(d[i], d[j])
    return _shear(group, i, j, rng.randrange(1, g) * (d[j] // g))


def _random_pauli_line(rng: random.Random, group: AbelianGroup) -> str:
    label = pauli_label(
        group,
        rng.randrange(group.phase_modulus),
        _element(rng, group),
        _element(rng, group),
    )
    return serialize_gate(PauliGate(label))


def make_clifford_wide(m: int, per_kind: int) -> Callable[[random.Random], str]:
    """Z_2^m with per_kind each of qft, quad_cross, quad_square and pauli."""

    def make(rng: random.Random) -> str:
        group = AbelianGroup((2,) * m)
        lines = _header(rng, group, 4)
        kinds = ["qft", "cross", "square", "pauli"] * per_kind
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "qft":
                lines.append(serialize_gate(FourierGate(group, (rng.randrange(m),))))
            elif kind == "cross":
                i, j = rng.sample(range(m), 2)
                lines.append(_quad_line(group, "cross", i=i, j=j, c=1))
            elif kind == "square":
                lines.append(
                    _quad_line(group, "square", factor=rng.randrange(m), a=1)
                )
            else:
                lines.append(_random_pauli_line(rng, group))
        return "\n".join(lines) + "\n"

    return make


def make_mixed_auto(
    moduli: tuple[int, ...], autos: int, per_kind: int
) -> Callable[[random.Random], str]:
    """Shear automorphisms (3m shears and a unit multiply each) mixed with
    two-target qft and quad_square gates over mixed moduli."""

    def make(rng: random.Random) -> str:
        group = AbelianGroup(moduli)
        d = group.moduli
        m = len(d)
        # only pairs that admit a nonzero shear, so every shear does work
        pairs = [
            (i, j) for i in range(m) for j in range(m)
            if i != j and math.gcd(d[i], d[j]) > 1
        ]
        lines = _header(rng, group, 2)
        kinds = ["auto"] * autos + ["qft", "square"] * per_kind
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "auto":
                matrix = EndoMatrix.identity(group)
                for _ in range(3 * m):
                    matrix = _random_shear(rng, group, pairs).compose(matrix)
                i = rng.randrange(m)
                matrix = _scaling(group, i, _unit(rng, d[i])).compose(matrix)
                lines.append(_auto_line(matrix))
            elif kind == "qft":
                targets = tuple(sorted(rng.sample(range(m), 2)))
                lines.append(serialize_gate(FourierGate(group, targets)))
            else:
                t = rng.randrange(m)
                lines.append(
                    _quad_line(group, "square", factor=t, a=rng.randrange(1, d[t]))
                )
        return "\n".join(lines) + "\n"

    return make


def _random_endo(rng: random.Random, group: AbelianGroup) -> EndoMatrix:
    """Any endomorphism: entry (k, i) is a multiple of d_k / gcd(d_i, d_k)."""
    d = group.moduli
    cols = []
    for i in range(len(d)):
        col = []
        for k in range(len(d)):
            g = math.gcd(d[i], d[k])
            col.append(rng.randrange(g) * (d[k] // g))
        cols.append(group.element(col))
    return EndoMatrix(group, tuple(cols))


def _small_gate(rng: random.Random, group: AbelianGroup, kind: str) -> str:
    d = group.moduli
    m = len(d)
    if kind in ("qft", "iqft"):
        targets = tuple(sorted(rng.sample(range(m), rng.randint(1, m))))
        return serialize_gate(FourierGate(group, targets, inverse=kind == "iqft"))
    if kind == "auto":
        pairs = [
            (i, j) for i in range(m) for j in range(m)
            if i != j and math.gcd(d[i], d[j]) > 1
        ]
        matrix = EndoMatrix.identity(group)
        for _ in range(rng.randint(1, 3)):
            if pairs and rng.random() < 0.5:
                step = _random_shear(rng, group, pairs)
            else:
                i = rng.randrange(m)
                step = _scaling(group, i, _unit(rng, d[i]))
            matrix = step.compose(matrix)
        return _auto_line(matrix)
    if kind == "quad":
        families = ["character", "square", "half", "from_endo"]
        if m >= 2:
            families.append("cross")
        family = rng.choice(families)
        if family == "cross":
            i, j = rng.sample(range(m), 2)
            g = math.gcd(d[i], d[j])
            return _quad_line(group, "cross", i=i, j=j, c=rng.randrange(g) * (d[j] // g))
        if family == "from_endo":
            return _quad_line(group, "from_endo", endo=_random_endo(rng, group))
        t = rng.randrange(m)
        return _quad_line(group, family, factor=t, a=rng.randrange(2 * d[t]))
    return _random_pauli_line(rng, group)


def make_small_sample(max_factors: int, n_gates: int) -> Callable[[random.Random], str]:
    """m of 1..max_factors, moduli 2..12, |G| <= 4096, every gate kind."""
    five = ["qft", "iqft", "auto", "quad", "pauli"]

    def make(rng: random.Random) -> str:
        while True:
            moduli = tuple(
                rng.randint(2, 12) for _ in range(rng.randint(1, max_factors))
            )
            if math.prod(moduli) <= 4096:
                break
        group = AbelianGroup(moduli)
        lines = _header(rng, group, rng.randint(0, 2))
        kinds = five + [rng.choice(five) for _ in range(n_gates - len(five))]
        rng.shuffle(kinds)
        lines.extend(_small_gate(rng, group, kind) for kind in kinds)
        return "\n".join(lines) + "\n"

    return make


MIXED_MODULI = (4, 6, 3, 8, 2, 9, 16, 27, 5, 12, 2**40, 10**9 + 7)

# Sizes per mode; "toy" runs every workload in seconds for the self-test.
WORKLOADS = {
    "full": {
        "clifford-wide": Workload(
            "clifford-wide", make_clifford_wide(32, 80),
            shots=2000, batch=2, verify=False, metamorphic=True,
        ),
        "mixed-auto": Workload(
            "mixed-auto", make_mixed_auto(MIXED_MODULI, 1, 8),
            shots=2000, batch=2, verify=False, metamorphic=True,
        ),
        "small-sample": Workload(
            "small-sample", make_small_sample(4, 12),
            shots=1000, batch=200, verify=True, metamorphic=False,
        ),
    },
    "toy": {
        "clifford-wide": Workload(
            "clifford-wide", make_clifford_wide(6, 6),
            shots=50, batch=2, verify=False, metamorphic=True,
        ),
        "mixed-auto": Workload(
            "mixed-auto", make_mixed_auto((4, 6, 9, 2**40, 10**9 + 7), 1, 2),
            shots=20, batch=2, verify=False, metamorphic=True,
        ),
        "small-sample": Workload(
            "small-sample", make_small_sample(2, 6),
            shots=50, batch=100, verify=True, metamorphic=False,
        ),
    },
}
