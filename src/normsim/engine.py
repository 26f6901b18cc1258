"""Stabilizer-based simulation of normalizer circuits.

The input coset state is fixed by an explicit set of commuting Pauli
labels. The labels are held as one column-major tableau, and each gate
rewrites, in closed form, only the columns of the factors it acts on.
At the end the measurement statistics are read off the final labels:
the support is a coset offset + <x parts>, and the offset is pinned
down by the purely diagonal stabilizer elements. Sampling the uniform
distribution over the coset then needs no state vector at any point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from operator import mod, mul
from typing import Callable, Iterable, Iterator, Sequence

from .groups import (
    ENUM_BOUND,
    AbelianGroup,
    GroupElement,
    GroupMismatchError,
    PhaseExponent,
    character_exponent,
    check_size,
)
from .homs import (
    EndoMatrix,
    HowellBasis,
    Subgroup,
    auto_inverse,
    endo_dual,
    orthogonal_subgroup,
    solve_character_system,
)
from .intlinalg import kernel_basis
# pauli_dagger, pauli_identity, pauli_mul, pauli_pow, extract_endo and
# quad_eval have no caller here; perfbench's tracer wraps them in this
# namespace, so they stay bound
from .pauli import PauliLabel, pauli_dagger, pauli_identity, pauli_mul, pauli_pow
from .quadratic import InvalidQuadratic, QuadraticEncoding, extract_endo, quad_eval


# consecutive Howell rows whose radices multiply to at most this share
# one precomputed table of their sums in the sampler
_TABLE_SIZE = 256


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


def _common_group(labels: Sequence[PauliLabel]) -> AbelianGroup:
    group = labels[0].group
    if any(s.group != group for s in labels):
        raise GroupMismatchError("stabilizer labels over different groups")
    return group


class Tableau:
    """Stabilizer labels by column (Aaronson-Gottesman, quant-ph/0406196).

    z[i] and x[i] list factor i's residues over the rows, and phase the
    rows' exponents mod 2|G|, as plain ints: a gate rewrites only the
    columns of the factors it touches and builds no group element.
    """

    def __init__(self, labels: Sequence[PauliLabel]):
        self.group = _common_group(labels)
        self.z = [list(col) for col in zip(*(s.z_part.residues for s in labels))]
        self.x = [list(col) for col in zip(*(s.x_part.residues for s in labels))]
        self.phase = [s.phase.value for s in labels]

    def labels(self) -> tuple[PauliLabel, ...]:
        # every gate keeps the columns reduced, so the rows need no check
        g, element = self.group, GroupElement._reduced
        rows = zip(self.phase, zip(*self.z), zip(*self.x))
        return tuple(
            PauliLabel(PhaseExponent(g, a), element(g, z), element(g, x))
            for a, z, x in rows
        )


def _axpy(acc: list[int], c: int, col: list[int], mod: int) -> list[int]:
    return [(a + c * v) % mod for a, v in zip(acc, col)]


def _push(A: EndoMatrix, cols: list[list[int]], rows: int) -> list[list[int]]:
    """The columns of A(v) for every row v, over the nonzero entries of A."""
    acc = [[0] * rows for _ in cols]
    for src, col in zip(cols, A.columns):
        for l, v in col.nonzero_residues:
            acc[l] = _axpy(acc[l], v, src, A.group.moduli[l])
    return acc


def _on_tableau(apply):
    """conjugate(target): apply to a Tableau in place, or to one label."""

    def conjugate(self, target: Tableau | PauliLabel) -> Tableau | PauliLabel:
        tab = target if isinstance(target, Tableau) else Tableau((target,))
        if tab.group != self.group:
            raise GroupMismatchError(
                f"gate over {self.group} applied to labels over {tab.group}"
            )
        apply(self, tab)
        return tab if tab is target else tab.labels()[0]

    return conjugate


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

    @_on_tableau
    def conjugate(self, tab: Tableau) -> None:
        d, L = self.group.moduli, self.group.phase_modulus
        ph = tab.phase
        for i in self.targets:
            g, h, u = tab.z[i], tab.x[i], L // d[i]
            ph = [a + u * gk * hk for a, gk, hk in zip(ph, g, h)]
            neg = [(-v) % d[i] for v in (h if self.inverse else g)]
            tab.z[i], tab.x[i] = (neg, g) if self.inverse else (h, neg)
        tab.phase = [a % L for a in ph]


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

    @_on_tableau
    def conjugate(self, tab: Tableau) -> None:
        tab.z = _push(self._z_action, tab.z, len(tab.phase))
        tab.x = _push(self.matrix, tab.x, len(tab.phase))


@dataclass(frozen=True)
class QuadraticGate:
    """Diagonal gate |g> -> xi(g)|g> for a quadratic function xi."""

    encoding: QuadraticEncoding

    def __post_init__(self):
        # conjugate adds b / (2|G|/d_l) times x to z_l for each slot l of
        # a term; validated encodings always divide exactly
        d, L = self.group.moduli, self.group.phase_modulus
        diag, pairs = self.encoding.terms
        for i, j, b in [(i, i, b) for i, _, b in diag] + list(pairs):
            if b % (L // d[i]) or b % (L // d[j]):
                raise InvalidQuadratic(
                    f"B(e^{i},e^{j}) exponent {b} is not a multiple of 2|G|/d"
                )

    @property
    def group(self) -> AbelianGroup:
        return self.encoding.group

    @_on_tableau
    def conjugate(self, tab: Tableau) -> None:
        # X(x) picks up xi(x) and a Z(w(x)) tail; moving chi_{w(k)}(x) onto
        # k overshoots by B(x,x) once, so each term's phase is xi's minus B's
        d, L = self.group.moduli, self.group.phase_modulus
        z, x, ph = tab.z, tab.x, tab.phase
        diag, pairs = self.encoding.terms
        for i, n, b in diag:
            ph = [a + v * n - b * (v * (v + 1) // 2) for a, v in zip(ph, x[i])]
            z[i] = _axpy(z[i], b // (L // d[i]), x[i], d[i])
        for i, j, b in pairs:
            ph = [a - b * vi * vj for a, vi, vj in zip(ph, x[i], x[j])]
            z[i] = _axpy(z[i], b // (L // d[i]), x[j], d[i])
            z[j] = _axpy(z[j], b // (L // d[j]), x[i], d[j])
        tab.phase = [a % L for a in ph]


@dataclass(frozen=True)
class PauliGate:
    """A Pauli operator used as a circuit gate."""

    label: PauliLabel

    @property
    def group(self) -> AbelianGroup:
        return self.label.group

    @_on_tableau
    def conjugate(self, tab: Tableau) -> None:
        # For P ~ Z(g) X(h): P Z(z) X(x) P^dagger = chi_g(x) chi_z(-h) Z(z) X(x),
        # so only the phase moves.
        p, d, L = self.label, self.group.moduli, self.group.phase_modulus
        terms = [((L // d[i]) * g, tab.x[i]) for i, g in p.z_part.nonzero_residues]
        terms += [(-(L // d[i]) * h, tab.z[i]) for i, h in p.x_part.nonzero_residues]
        if terms:
            coefs, cols = zip(*terms)
            rows = zip(tab.phase, zip(*cols))
            tab.phase = [(a + sum(map(mul, coefs, row))) % L for a, row in rows]


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
    """One tableau update per gate; GroupMismatchError on a foreign gate."""
    if not labels:
        return ()
    tab = Tableau(labels)
    for gate in gates:
        gate.conjugate(tab)
    return tab.labels()


@dataclass(frozen=True)
class OutputDistribution:
    """Uniform distribution over support + offset under full measurement.

    `offset` and `support` are kept as readout found them; sampling,
    `members` and `normsim support` go through `canonical`, so they
    depend on the coset alone.
    """

    group: AbelianGroup
    offset: GroupElement
    support: Subgroup

    def __post_init__(self):
        if not self.offset.group == self.support.group == self.group:
            raise GroupMismatchError(
                f"distribution over {self.group} with parts over "
                f"{self.offset.group} and {self.support.group}"
            )

    @cached_property
    def canonical(self) -> tuple[GroupElement, HowellBasis]:
        """(x0, B): the Howell basis B of the support and the offset
        reduced against it. Equal cosets give equal forms, whatever
        generators and offset they were read out with."""
        basis = self.support.howell
        return basis.reduce(self.offset), basis

    @cached_property
    def _packed(self) -> tuple[int, int, list, Callable[[int], tuple[int, ...]]]:
        """(|S|, x0, steps, split) with residue j packed in field j.

        A step (n, table, h) takes the next mixed-radix digit t < n and
        adds table[t], the precomputed sum over a run of consecutive rows
        with radix product n <= _TABLE_SIZE, or t*h for one wider row. A
        field holds x0_j + sum_i (n_i - 1) row_ij, so no shot's sum
        carries across fields; split reads the residues back out, byte
        by byte when every field fits in one, through one translate when
        the moduli are also equal.
        """
        x0, basis = self.canonical
        d = self.group.moduli
        rows, radices = [h.residues for h in basis.rows], basis.radices
        top = [o + sum((n - 1) * h[j] for n, h in zip(radices, rows))
               for j, o in enumerate(x0.residues)]
        w = max(8, max(top).bit_length())
        shifts = range(0, w * len(d), w)

        def pack(v):
            return sum(r << s for r, s in zip(v, shifts))

        if w == 8 and len(set(d)) == 1:
            def split(acc, table=bytes(b % d[0] for b in range(256))):
                return tuple(acc.to_bytes(len(d), "little").translate(table))
        elif w == 8:
            def split(acc):
                return tuple(map(mod, acc.to_bytes(len(d), "little"), d))
        else:
            def split(acc, mask=(1 << w) - 1):
                return tuple([(acc >> s & mask) % dj for s, dj in zip(shifts, d)])

        steps: list[tuple[int, list[int] | None, int]] = []
        for h, n in zip(map(pack, rows), radices):
            if steps and steps[-1][0] * n <= _TABLE_SIZE:
                # the run's index goes on as t + k*c, the first row lowest
                k, table, _ = steps.pop()
                steps.append((k * n, [v + c * h for c in range(n) for v in table], 0))
            elif n <= _TABLE_SIZE:
                steps.append((n, [c * h for c in range(n)], 0))
            else:
                steps.append((n, None, h))
        return basis.order, pack(x0.residues), steps, split

    def _decode(self, r: int) -> GroupElement:
        """x0 + sum_i c_i row_i for r = c_1 + n_1 (c_2 + n_2 (...)) < |S|."""
        _, acc, steps, split = self._packed
        for n, table, h in steps:
            r, t = divmod(r, n)
            acc += table[t] if table is not None else t * h
        return GroupElement._reduced(self.group, split(acc))

    def members(self, bound: int = ENUM_BOUND) -> frozenset[GroupElement]:
        """The coset, as the decode of every r < |S|; BoundExceeded above bound."""
        size = self._packed[0]
        check_size(size, bound, "support")
        return frozenset(map(self._decode, range(size)))

    def sample(self, rng: random.Random) -> GroupElement:
        # one randrange(|S|) per shot, exact rejection sampling in the
        # stdlib; the decode is a bijection onto the coset
        return self._decode(rng.randrange(self._packed[0]))


def output_distribution(labels: StabilizerSet) -> OutputDistribution:
    """Read measurement statistics off a conjugated stabilizer set.

    The support subgroup is generated by the X parts. The offset comes
    from the purely diagonal stabilizer elements: products
    prod_i s_i^{k_i} whose X part cancels are gamma^c Z(z), and fixing
    the state forces chi_z(x) = gamma^{-c} on every support point x.
    Each product is built on plain ints, label by label in index order
    (the rowsum of quant-ph/0406196): s^k adds k*a - k(k-1)/2 chi(z, x)
    and putting it right of Z(Z) X(X) costs chi(k z, X).
    """
    if not labels:
        raise EngineError("empty stabilizer set")
    group = _common_group(labels)
    d, L = group.moduli, group.phase_modulus
    h_parts = [s.x_part for s in labels]
    support = Subgroup(group, tuple(h for h in h_parts if not h.is_zero))
    # per label: a, chi(z, x), z, x and u with chi_z(y) = gamma^(u . y)
    terms = []
    for s in labels:
        z, x = s.z_part.residues, s.x_part.residues
        u = [L // dj * v for dj, v in zip(d, z)]
        terms.append((s.phase.value, sum(map(mul, u, x)), z, x, u))
    # exponent tuples k with sum_i k_i h^i = 0 in G
    rows = [[h.residues[j] for h in h_parts] for j in range(group.num_factors)]
    diag_gens: list[GroupElement] = []
    diag_phases: list[int] = []
    for vec in kernel_basis(rows, num_cols=len(labels), moduli=group.moduli):
        c, Z, X = 0, [0] * len(d), [0] * len(d)
        for k, (a, comm, z, x, u) in zip(vec, terms):
            if k:
                c += k * a - k * (k - 1) // 2 * comm - k * sum(map(mul, u, X))
                Z = [zj + k * v for zj, v in zip(Z, z)]
                X = [xj + k * v for xj, v in zip(X, x)]
        if any(xj % dj for xj, dj in zip(X, d)):
            raise EngineError("diagonal combination kept an X part")
        c %= L
        if c % 2:
            raise EngineError("diagonal stabilizer phase is an odd power")
        z_part = group.element(Z)
        if z_part.is_zero and c:
            # gamma^c * identity fixing the state forces c = 0
            raise EngineError("stabilizer contains a nontrivial scalar")
        diag_gens.append(z_part)
        diag_phases.append((-(c // 2)) % group.order)
    offset = solve_character_system(group, diag_gens, diag_phases)
    if offset is None:
        raise EngineError("diagonal constraints are unsatisfiable")
    return OutputDistribution(group, offset, support)


def simulate(coset: CosetInput, gates: Sequence[Gate]) -> OutputDistribution:
    """Full pipeline: stabilizer init, conjugation, statistics."""
    return output_distribution(conjugate_circuit(init_stabilizer(coset), gates))


def sample_stream(
    dist: OutputDistribution, shots: int, seed: int | None
) -> Iterator[GroupElement]:
    """Shots from random.Random(seed), one randrange(|S|) draw each.

    Each draw is decoded over the canonical form of the output coset, so
    the stream is a function of the coset and the seed alone: any
    generators and offset of the same coset give the same shots. Streams
    moved once, in 0.2.0, from one draw per support generator to this.
    """
    rng = random.Random(seed)
    for _ in range(shots):
        yield dist.sample(rng)
