"""The benchmark's correctness gate.

Nothing here is timed. The gate has its own canonical form for an
output coset x0 + H of G = Z_d1 x ... x Z_dm: the Hermite normal form of
the integer lattice spanned by the generators of H and the vectors
d_i e_i, plus x0 reduced modulo that lattice. Two generating sets of the
same coset give the same form, so a rewrite of the engine that returns
other generators still passes, while a wrong coset fails.
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

from normsim import (
    AutomorphismGate,
    FourierGate,
    PauliGate,
    QuadraticGate,
    QuadraticEncoding,
    Subgroup,
    auto_inverse,
    pauli_dagger,
)
from normsim.homs import subgroup_contains


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s*a + t*b = g, for a > 0."""
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hermite_basis(moduli: Sequence[int], gens: Sequence[Sequence[int]]) -> list[list[int]]:
    """Upper-triangular HNF rows of the lattice <gens> + sum_i d_i Z e_i.

    Every diagonal entry is positive and divides d_i; every entry above
    a diagonal is reduced into [0, diagonal).
    """
    m = len(moduli)
    basis = [[d if i == j else 0 for j in range(m)] for i, d in enumerate(moduli)]
    for gen in gens:
        v = list(gen)
        for i in range(m):
            if v[i] == 0:
                continue
            row = basis[i]
            g, s, t = _exgcd(row[i], v[i])
            p, q = row[i] // g, v[i] // g
            basis[i] = [s * x + t * y for x, y in zip(row, v)]
            v = [p * y - q * x for x, y in zip(row, v)]
        _reduce_rows(basis)
    return basis


def _reduce_rows(basis: list[list[int]]) -> None:
    # left to right: reducing column j by row j only touches columns > j
    for j, piv in enumerate(basis):
        for i in range(j):
            q = basis[i][j] // piv[j]
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], piv)]


def reduce_vector(basis: list[list[int]], x: Sequence[int]) -> tuple[int, ...]:
    """The canonical representative of x modulo the lattice."""
    v = list(x)
    for i, row in enumerate(basis):
        q = v[i] // row[i]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


class Coset:
    """Canonical form of offset + <generators> in a finite Abelian group."""

    def __init__(self, dist):
        self.moduli = dist.group.moduli
        self.basis = hermite_basis(
            self.moduli, [h.residues for h in dist.support.generators]
        )
        self.offset = reduce_vector(self.basis, dist.offset.residues)

    def contains(self, residues: Sequence[int]) -> bool:
        diff = [a - b for a, b in zip(residues, self.offset)]
        return not any(reduce_vector(self.basis, diff))

    def digest(self) -> str:
        body = json.dumps([self.moduli, self.basis, self.offset])
        return hashlib.sha256(body.encode()).hexdigest()[:16]


def combined_digest(digests: Sequence[str]) -> str:
    return hashlib.sha256(",".join(digests).encode()).hexdigest()[:16]


def inverse_gates(gates) -> list:
    """Gates of C^-1, in order, for the gate list of C."""
    out = []
    for gate in reversed(gates):
        if isinstance(gate, FourierGate):
            out.append(FourierGate(gate.group, gate.targets, inverse=not gate.inverse))
        elif isinstance(gate, AutomorphismGate):
            out.append(AutomorphismGate(auto_inverse(gate.matrix)))
        elif isinstance(gate, QuadraticGate):
            enc = gate.encoding
            out.append(
                QuadraticGate(
                    QuadraticEncoding(
                        enc.group,
                        tuple(-v for v in enc.n_diag),
                        tuple(-v for v in enc.n_pair),
                        tuple(-v for v in enc.n_double),
                    )
                )
            )
        elif isinstance(gate, PauliGate):
            out.append(PauliGate(pauli_dagger(gate.label)))
        else:
            raise TypeError(f"unknown gate {gate!r}")
    return out


def metamorphic_failure(circuit, simulate) -> str | None:
    """Simulate C then C^-1 and demand the input coset back.

    Returns a description of the mismatch, or None when the output
    support equals the input subgroup K (containment both ways) and the
    offset differs from the input shift by an element of K.
    """
    coset = circuit.coset
    dist = simulate(coset, list(circuit.gates) + inverse_gates(circuit.gates))
    K = Subgroup(coset.group, coset.generators)
    if not all(subgroup_contains(K, h) for h in dist.support.generators):
        return "C;C^-1 support is larger than the input subgroup"
    if not all(subgroup_contains(dist.support, k) for k in coset.generators):
        return "C;C^-1 support misses an input generator"
    if not subgroup_contains(K, dist.offset - coset.shift):
        return "C;C^-1 offset left the input coset"
    return None
