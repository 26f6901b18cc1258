"""Stabilizer-based simulation of normalizer circuits.

The input coset state is fixed by an explicit set of commuting Pauli
labels. Each gate conjugates every label in closed form, and at the end
the measurement statistics are read off the final labels: the support
is a coset offset + <x parts>, and the offset is pinned down by the
purely diagonal stabilizer elements. Sampling the uniform distribution
over the coset then needs no state vector at any point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .groups import (
    ENUM_BOUND,
    AbelianGroup,
    GroupElement,
    PhaseExponent,
    character_exponent,
)
from .homs import (
    EndoMatrix,
    Subgroup,
    auto_inverse,
    endo_dual,
    orthogonal_subgroup,
    solve_character_system,
    subgroup_members,
)
from .intlinalg import kernel_basis
# pauli_dagger has no caller here; perfbench's tracer wraps it in this namespace
from .pauli import PauliLabel, pauli_dagger, pauli_identity, pauli_mul, pauli_pow
from .quadratic import QuadraticEncoding, extract_endo, quad_eval


class EngineError(RuntimeError):
    """Internal inconsistency that valid inputs cannot trigger."""


class NotInvertible(ValueError):
    """Automorphism gate built from a non-invertible matrix."""


def _check_targets(group: AbelianGroup, targets: Sequence[int]) -> tuple[int, ...]:
    t = tuple(sorted(int(i) for i in targets))
    if not t:
        raise ValueError("transform needs at least one target factor")
    if len(set(t)) != len(t):
        raise ValueError("duplicate transform targets")
    for i in t:
        if not 0 <= i < group.num_factors:
            raise ValueError(f"target factor {i} out of range")
    return t


@dataclass(frozen=True)
class FourierGate:
    """Fourier transform on a subset of the cyclic factors (0-based).

    With inverse=False, labels map per targeted factor i by
    (g_i, h_i) -> (h_i, -g_i) plus a phase of (2*order/d_i)*g_i*h_i;
    the inverse transform swaps the other way with the same phase.
    """

    group: AbelianGroup
    targets: tuple[int, ...]
    inverse: bool = False

    def __post_init__(self):
        object.__setattr__(self, "targets", _check_targets(self.group, self.targets))

    def conjugate(self, label: PauliLabel) -> PauliLabel:
        group = self.group
        d = group.moduli
        two_g = group.phase_modulus
        g = list(label.z_part.residues)
        h = list(label.x_part.residues)
        a = label.phase.value
        for i in self.targets:
            a += (two_g // d[i]) * g[i] * h[i]
            if self.inverse:
                g[i], h[i] = (-h[i]) % d[i], g[i]
            else:
                g[i], h[i] = h[i], (-g[i]) % d[i]
        return PauliLabel(
            PhaseExponent(group, a),
            GroupElement(group, tuple(g)),
            GroupElement(group, tuple(h)),
        )


@dataclass(frozen=True)
class AutomorphismGate:
    """Basis permutation |g> -> |alpha(g)> for an automorphism alpha.

    X parts push through as alpha(h); Z parts become the dual of the
    inverse applied to g, so the matrix must be invertible.
    """

    matrix: EndoMatrix

    def __post_init__(self):
        inv = auto_inverse(self.matrix)
        if inv is None:
            raise NotInvertible("matrix has no inverse over the group")
        object.__setattr__(self, "_z_action", endo_dual(inv))

    @property
    def group(self) -> AbelianGroup:
        return self.matrix.group

    def conjugate(self, label: PauliLabel) -> PauliLabel:
        return PauliLabel(
            label.phase,
            self._z_action.apply(label.z_part),
            self.matrix.apply(label.x_part),
        )


@dataclass(frozen=True)
class QuadraticGate:
    """Diagonal gate |g> -> xi(g)|g> for a quadratic function xi."""

    encoding: QuadraticEncoding

    def __post_init__(self):
        object.__setattr__(self, "_endo", extract_endo(self.encoding))

    @property
    def group(self) -> AbelianGroup:
        return self.encoding.group

    def conjugate(self, label: PauliLabel) -> PauliLabel:
        # X(h) picks up xi(h) and a Z(w(h)) tail; pulling the new Z next
        # to the old one is free (diagonals commute), but expressing the
        # k-dependence chi_{w(k)}(h) as chi_{w(h)}(k) overshoots by
        # B(h,h) once, which the phase repays.
        h = label.x_part
        w_h = self._endo.apply(h)
        a = (
            label.phase.value
            + quad_eval(self.encoding, h).value
            - character_exponent(w_h, h)
        )
        return PauliLabel(
            PhaseExponent(self.group, a), label.z_part + w_h, label.x_part
        )


@dataclass(frozen=True)
class PauliGate:
    """A Pauli operator used as a circuit gate."""

    label: PauliLabel

    @property
    def group(self) -> AbelianGroup:
        return self.label.group

    def conjugate(self, label: PauliLabel) -> PauliLabel:
        # For P ~ Z(g) X(h): P Z(z) X(x) P^dagger = chi_g(x) chi_z(-h) Z(z) X(x),
        # so only the phase moves.
        a = (
            label.phase.value
            + character_exponent(self.label.z_part, label.x_part)
            - character_exponent(label.z_part, self.label.x_part)
        )
        return PauliLabel(PhaseExponent(self.group, a), label.z_part, label.x_part)


Gate = FourierGate | AutomorphismGate | QuadraticGate | PauliGate


@dataclass(frozen=True)
class CosetInput:
    """The state |K + x>: uniform superposition over a subgroup coset."""

    group: AbelianGroup
    generators: tuple[GroupElement, ...]
    shift: GroupElement

    def __post_init__(self):
        for g in self.generators:
            if g.group != self.group:
                raise ValueError("coset generator in a different group")
        if self.shift.group != self.group:
            raise ValueError("coset shift in a different group")

    @property
    def subgroup(self) -> Subgroup:
        return Subgroup(self.group, self.generators)


StabilizerSet = tuple[PauliLabel, ...]


def init_stabilizer(coset: CosetInput) -> StabilizerSet:
    """Commuting labels whose joint +1 eigenspace is exactly |K + x>.

    X(u) for generators u of K and chi_v(-x) Z(v) for generators v of
    the orthogonal complement; the shift enters by conjugating the
    unshifted stabilizer with X(x).
    """
    group = coset.group
    labels = [
        PauliLabel(PhaseExponent(group, 0), group.zero(), u)
        for u in coset.generators
    ]
    for v in orthogonal_subgroup(coset.subgroup).generators:
        a = character_exponent(v, -coset.shift)
        labels.append(PauliLabel(PhaseExponent(group, a), v, group.zero()))
    return tuple(labels)


def conjugate_circuit(labels: StabilizerSet, gates: Iterable[Gate]) -> StabilizerSet:
    out = list(labels)
    for gate in gates:
        out = [gate.conjugate(s) for s in out]
    return tuple(out)


@dataclass(frozen=True)
class OutputDistribution:
    """Uniform distribution over support + offset under full measurement."""

    group: AbelianGroup
    offset: GroupElement
    support: Subgroup

    def members(self, bound: int = ENUM_BOUND) -> frozenset[GroupElement]:
        return frozenset(
            self.offset + h for h in subgroup_members(self.support, bound)
        )

    def sample(self, rng: random.Random) -> GroupElement:
        # randrange is exact rejection sampling, unbiased for any order
        order = self.group.order
        acc = list(self.offset.residues)
        for h in self.support.generators:
            c = rng.randrange(order)
            for j, v in h.nonzero_residues:
                acc[j] += c * v
        return self.group.element(acc)


def output_distribution(labels: StabilizerSet) -> OutputDistribution:
    """Read measurement statistics off a conjugated stabilizer set.

    The support subgroup is generated by the X parts. The offset comes
    from the purely diagonal stabilizer elements: products
    prod_i s_i^{k_i} whose X part cancels are gamma^c Z(z), and fixing
    the state forces chi_z(x) = gamma^{-c} on every support point x.
    """
    if not labels:
        raise EngineError("empty stabilizer set")
    group = labels[0].group
    h_parts = [s.x_part for s in labels]
    support = Subgroup(
        group, tuple(h for h in h_parts if not h.is_zero)
    )
    # exponent tuples k with sum_i k_i h^i = 0 in G
    rows = [[h.residues[j] for h in h_parts] for j in range(group.num_factors)]
    diag_gens: list[GroupElement] = []
    diag_phases: list[int] = []
    for vec in kernel_basis(rows, num_cols=len(labels), moduli=group.moduli):
        prod = pauli_identity(group)
        for s, k in zip(labels, vec):
            if k:
                prod = pauli_mul(prod, pauli_pow(s, k))
        if not prod.x_part.is_zero:
            raise EngineError("diagonal combination kept an X part")
        c = prod.phase.value
        if c % 2:
            raise EngineError("diagonal stabilizer phase is an odd power")
        if prod.z_part.is_zero and c:
            # gamma^c * identity fixing the state forces c = 0
            raise EngineError("stabilizer contains a nontrivial scalar")
        diag_gens.append(prod.z_part)
        diag_phases.append((-(c // 2)) % group.order)
    offset = solve_character_system(group, diag_gens, diag_phases)
    if offset is None:
        raise EngineError("diagonal constraints are unsatisfiable")
    return OutputDistribution(group, offset, support)


def simulate(coset: CosetInput, gates: Sequence[Gate]) -> OutputDistribution:
    """Full pipeline: stabilizer init, conjugation, statistics."""
    for gate in gates:
        if gate.group != coset.group:
            raise ValueError("gate group does not match input group")
    return output_distribution(conjugate_circuit(init_stabilizer(coset), gates))


def sample_stream(
    dist: OutputDistribution, shots: int, seed: int | None
) -> Iterator[GroupElement]:
    """Deterministic per seed; one independent draw per shot."""
    rng = random.Random(seed)
    for _ in range(shots):
        yield dist.sample(rng)
