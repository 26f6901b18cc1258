"""Stabilizer-based simulation of normalizer circuits.

The input coset state is fixed by an explicit set of commuting Pauli
labels. The labels are held as one column-major tableau, and each gate
rewrites, in closed form, only the columns of the factors it acts on.
Over Z_2^m, where the gates are the qubit Clifford gates, each column is
one int with a bit per label and a gate costs a few word operations;
other groups keep a list of residues per column.
Pauli gates only move phases, so they are folded into one frame row
that the other gates carry along, and its phases are applied once at
the end.
At the end the measurement statistics are read off the final labels
by one Howell elimination over them, every row operation a label
product: the support is a coset offset + <x parts>, whose Howell basis
the echelon rows give, and the offset is pinned down by the purely
diagonal stabilizer elements the other rows generate. The result is
already in the canonical form that sampling the uniform distribution
over the coset reads, and no state vector is needed at any point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import floordiv, mod, mul
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
# kernel_basis, pauli_dagger, pauli_identity, pauli_mul, pauli_pow,
# extract_endo and quad_eval have no caller here; perfbench's tracer
# wraps them in this namespace, so they stay bound
from .intlinalg import _DIGIT, _PARITY, howell_eliminate, howell_reduce, kernel_basis
from .pauli import PauliLabel, pauli_dagger, pauli_identity, pauli_mul, pauli_pow
from .quadratic import QuadraticEncoding, extract_endo, quad_eval


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
    columns of the factors it touches and builds no group element. Each
    gate's conjugate calls the update of its kind: fourier,
    automorphism, quadratic or pauli.

    The first Pauli gate appends one more row, the Pauli frame (as in
    Stim, arXiv:2103.02202): the product F of the Pauli gates so far, up
    to phase. Later gates conjugate it like any other row and a Pauli
    gate only adds its parts into it, so the circuit acts as F U' with U'
    its other gates. labels() applies F's commutation character to every
    row once and drops the frame; F's own phase never matters.

    Labels over Z_2^m (moduli of lcm 2) make a _Z2Tableau, which holds
    the same state in bits. Every phase a gate adds there is a multiple
    of U = |G|/2: qft adds |G| z_i x_i; the encoding's check, 2n + b = 0
    and 2b = 0 mod 2|G| for d_i = 2, makes each n a multiple of U and
    each b one of |G|; the frame adds |G| times a parity. So a row's
    phase is its input exponent plus U times an increment mod 4, and
    labels with odd phases stay exact.
    """

    def __new__(cls, labels: Sequence[PauliLabel]):
        if cls is Tableau and math.lcm(*labels[0].group.moduli) == 2:
            cls = _Z2Tableau
        return super().__new__(cls)

    def __init__(self, labels: Sequence[PauliLabel]):
        self.group = _common_group(labels)
        self.z = [list(col) for col in zip(*(s.z_part.residues for s in labels))]
        self.x = [list(col) for col in zip(*(s.x_part.residues for s in labels))]
        self.phase = [s.phase.value for s in labels]
        self.framed = False

    def fourier(self, gate: FourierGate) -> None:
        d, L = self.group.moduli, self.group.phase_modulus
        ph = self.phase
        for i in gate.targets:
            g, h, u = self.z[i], self.x[i], L // d[i]
            ph = [a + u * gk * hk for a, gk, hk in zip(ph, g, h)]
            neg = [(-v) % d[i] for v in (h if gate.inverse else g)]
            self.z[i], self.x[i] = (neg, g) if gate.inverse else (h, neg)
        self.phase = [a % L for a in ph]

    def automorphism(self, gate: AutomorphismGate) -> None:
        self.z = _push(gate._z_action, self.z, len(self.phase))
        self.x = _push(gate.matrix, self.x, len(self.phase))

    def quadratic(self, gate: QuadraticGate) -> None:
        # X(x) picks up xi(x) and a Z(w(x)) tail; moving chi_{w(k)}(x) onto
        # k overshoots by B(x,x) once, so each term's phase is xi's minus B's.
        # The encoding's check makes each b divide exactly by 2|G|/d_l.
        d, L = self.group.moduli, self.group.phase_modulus
        z, x, ph = self.z, self.x, self.phase
        diag, pairs = gate.encoding.terms
        for i, n, b in diag:
            ph = [a + v * n - b * (v * (v + 1) // 2) for a, v in zip(ph, x[i])]
            z[i] = _axpy(z[i], b // (L // d[i]), x[i], d[i])
        for i, j, b in pairs:
            ph = [a - b * vi * vj for a, vi, vj in zip(ph, x[i], x[j])]
            z[i] = _axpy(z[i], b // (L // d[i]), x[j], d[i])
            z[j] = _axpy(z[j], b // (L // d[j]), x[i], d[j])
        self.phase = [a % L for a in ph]

    def pauli(self, gate: PauliGate) -> None:
        if not self.framed:
            for col in (*self.z, *self.x, self.phase):
                col.append(0)
            self.framed = True
        d = self.group.moduli
        for cols, part in ((self.z, gate.label.z_part), (self.x, gate.label.x_part)):
            for i, v in part.nonzero_residues:
                cols[i][-1] = (cols[i][-1] + v) % d[i]

    def _flush_frame(self) -> None:
        # For F ~ Z(g) X(h): F Z(z) X(x) F^dagger = chi_g(x) chi_z(-h) Z(z) X(x),
        # so only the phase moves.
        d, L = self.group.moduli, self.group.phase_modulus
        g = [col.pop() for col in self.z]
        h = [col.pop() for col in self.x]
        self.phase.pop()
        self.framed = False
        terms = [((L // d[i]) * v, self.x[i]) for i, v in enumerate(g) if v]
        terms += [(-(L // d[i]) * v, self.z[i]) for i, v in enumerate(h) if v]
        if terms:
            coefs, cols = zip(*terms)
            rows = zip(self.phase, zip(*cols))
            self.phase = [(a + sum(map(mul, coefs, row))) % L for a, row in rows]

    def labels(self) -> tuple[PauliLabel, ...]:
        if self.framed:
            self._flush_frame()
        # every gate keeps the columns reduced, so the rows need no check
        g, element = self.group, GroupElement._reduced
        rows = zip(self.phase, zip(*self.z), zip(*self.x))
        return tuple(
            PauliLabel(PhaseExponent(g, a), element(g, z), element(g, x))
            for a, z, x in rows
        )


class _Z2Tableau(Tableau):
    """The Tableau over Z_2^m in bits: each column one int, as Stim's
    bit-packed rows (arXiv:2103.02202) are, with row r of R in bit R-1-r.

    `a` lists the input phases, and the increments mod 4, in units of
    |G|/2, are the bit-planes p0 + 2 p1. The Pauli frame is (fz, fx),
    factor i in bit i: zero until a Pauli gate, never a row.
    """

    def __init__(self, labels: Sequence[PauliLabel]):
        self.group = group = _common_group(labels)
        m = group.num_factors
        self.a = [s.phase.value for s in labels]
        self.z = _bit_columns([s.z_part.residues for s in labels], m)
        self.x = _bit_columns([s.x_part.residues for s in labels], m)
        self.p0 = self.p1 = self.fz = self.fx = 0

    def fourier(self, gate: FourierGate) -> None:
        # -v = v over Z_2, so either direction swaps z_i and x_i
        z, x = self.z, self.x
        for i in gate.targets:
            self.p1 ^= z[i] & x[i]
            z[i], x[i] = x[i], z[i]
            t = (self.fz ^ self.fx) & (1 << i)
            self.fz ^= t
            self.fx ^= t

    def automorphism(self, gate: AutomorphismGate) -> None:
        self.z, self.fz = _xor_push(gate._z_action, self.z, self.fz)
        self.x, self.fx = _xor_push(gate.matrix, self.x, self.fx)

    def quadratic(self, gate: QuadraticGate) -> None:
        # A diagonal term adds (n - b) x_i and a pair term -b x_i x_j; b is
        # 0 or |G|, never 0 in a pair term, and b = |G| adds x to z as w(x)
        # does.
        G = self.group.order
        z, x = self.z, self.x
        p0, p1, fz, fx = self.p0, self.p1, self.fz, self.fx
        diag, pairs = gate.encoding.terms
        for i, n, b in diag:
            c, col = (n - b) // (G // 2), x[i]
            if c & 1:
                p1 ^= p0 & col
                p0 ^= col
            if c & 2:
                p1 ^= col
            if b:
                z[i] ^= col
                fz ^= fx & (1 << i)
        for i, j, _ in pairs:
            p1 ^= x[i] & x[j]
            z[i] ^= x[j]
            z[j] ^= x[i]
            fz ^= (fx >> j & 1) << i | (fx >> i & 1) << j
        self.p0, self.p1, self.fz = p0, p1, fz

    def pauli(self, gate: PauliGate) -> None:
        # the label's parts as masks, factor i in bit i
        p = gate.label
        self.fz ^= int(bytes(p.z_part.residues[::-1]).translate(_PARITY), 2)
        self.fx ^= int(bytes(p.x_part.residues[::-1]).translate(_PARITY), 2)

    def labels(self) -> tuple[PauliLabel, ...]:
        # F ~ Z(g) X(h) moves each phase by chi_g(x) chi_z(-h), |G| (g.x + h.z)
        parity = 0
        for col in (*_at_bits(self.fz, self.x), *_at_bits(self.fx, self.z)):
            parity ^= col
        self.p1 ^= parity
        self.fz = self.fx = 0
        g, R, element = self.group, len(self.a), GroupElement._reduced
        U = g.order // 2
        rows = zip(self.a, _bit_rows((self.p0, self.p1), R),
                   _bit_rows(self.z, R), _bit_rows(self.x, R))
        return tuple(
            PauliLabel(
                PhaseExponent(g, a + U * (k[0] + 2 * k[1])),
                element(g, tuple(z)),
                element(g, tuple(x)),
            )
            for a, k, z, x in rows
        )


def _bit_columns(rows: list[tuple[int, ...]], m: int) -> list[int]:
    """Columns of 0/1 rows as ints, row r of R in bit R-1-r."""
    flat = b"".join(map(bytes, rows))
    return [int(flat[i::m].translate(_PARITY), 2) for i in range(m)]


def _bit_rows(cols: Sequence[int], R: int) -> list[bytes]:
    """The rows of _bit_columns back, each as bytes of 0/1."""
    flat = "".join(format(c, f"0{R}b") for c in cols).encode().translate(_DIGIT)
    return [flat[r::R] for r in range(R)]


def _at_bits(mask: int, cols: list[int]) -> Iterator[int]:
    """cols[i] for each bit i set in mask."""
    bits = format(mask, f"0{len(cols)}b")[::-1]
    return compress(cols, bits.encode().translate(_DIGIT))


def _axpy(acc: list[int], c: int, col: list[int], mod: int) -> list[int]:
    return [(a + c * v) % mod for a, v in zip(acc, col)]


def _push(A: EndoMatrix, cols: list[list[int]], rows: int) -> list[list[int]]:
    """The columns of A(v) for every row v, over the nonzero entries of A."""
    acc = [[0] * rows for _ in cols]
    for src, col in zip(cols, A.columns):
        for l, v in col.nonzero_residues:
            acc[l] = _axpy(acc[l], v, src, A.group.moduli[l])
    return acc


def _xor_push(A: EndoMatrix, cols: list[int], frame: int) -> tuple[list[int], int]:
    """_push over Z_2 on bit columns, and A applied to the frame's bits."""
    acc, out = [0] * len(cols), 0
    for k, (src, col) in enumerate(zip(cols, A.columns)):
        hit = frame >> k & 1
        for l, _ in col.nonzero_residues:
            acc[l] ^= src
            out ^= hit << l
    return acc, out


def _on_tableau(apply):
    """conjugate(target): apply to a Tableau in place, or to one label."""

    def conjugate(self, target: Tableau | PauliLabel) -> Tableau | PauliLabel:
        tab = target if isinstance(target, Tableau) else Tableau((target,))
        if tab.group is not self.group and tab.group != self.group:
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
        tab.fourier(self)


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
        tab.automorphism(self)


@dataclass(frozen=True)
class QuadraticGate:
    """Diagonal gate |g> -> xi(g)|g> for a quadratic function xi."""

    encoding: QuadraticEncoding

    @property
    def group(self) -> AbelianGroup:
        return self.encoding.group

    @_on_tableau
    def conjugate(self, tab: Tableau) -> None:
        tab.quadratic(self)


@dataclass(frozen=True)
class PauliGate:
    """A Pauli operator used as a circuit gate."""

    label: PauliLabel

    @property
    def group(self) -> AbelianGroup:
        return self.label.group

    @_on_tableau
    def conjugate(self, tab: Tableau) -> None:
        tab.pauli(self)


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
    group, zero, shift = coset.group, coset.group.zero(), -coset.shift
    labels = [PauliLabel(PhaseExponent(group, 0), zero, u) for u in coset.generators]
    for v in orthogonal_subgroup(coset.subgroup).generators:
        a = character_exponent(v, shift)
        labels.append(PauliLabel(PhaseExponent(group, a), v, zero))
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

    `output_distribution` returns the canonical form: the support's
    generators are its Howell basis and the offset is reduced against
    them, and `canonical` holds that pair from the start. A distribution
    built from any other generators and offset derives `canonical` on
    first use. Sampling, `members` and `normsim support` go through
    `canonical`, so they depend on the coset alone.
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

    @classmethod
    def from_canonical(cls, x0: GroupElement, basis: HowellBasis) -> OutputDistribution:
        """The distribution over x0 + <basis>, x0 already reduced against it."""
        support = Subgroup(basis.group, basis.rows)
        vars(support)["howell"] = basis
        dist = cls(basis.group, x0, support)
        vars(dist)["canonical"] = x0, basis
        return dist

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

    One Howell elimination runs over the labels as rows (x | z | a), x
    embedded in Z_N^m as Subgroup.howell does, and every row operation
    is a label product (see howell_eliminate). The echelon rows' X parts,
    reduced, are then the Howell basis of the support, generated by the X parts.
    The pool rows are the purely diagonal stabilizer elements gamma^c
    Z(z), and they generate all of them; fixing the state forces
    chi_z(x) = gamma^{-c} on every support point x, which pins down the
    offset. The distribution comes back in its canonical form.
    """
    if not labels:
        raise EngineError("empty stabilizer set")
    group = _common_group(labels)
    d, L, m = group.moduli, group.phase_modulus, group.num_factors
    N = math.lcm(*d)
    scale = [N // dj for dj in d]
    rows = [
        ([*map(mul, scale, s.x_part.residues), *s.z_part.residues], s.phase.value)
        for s in labels
    ]
    echelon, pool = howell_eliminate(rows, N, m, L)
    element = GroupElement._reduced
    diag_gens: list[GroupElement] = []
    diag_phases: list[int] = []
    for v, c in pool:
        if any(v[:m]):
            raise EngineError("diagonal combination kept an X part")
        if c % 2:
            raise EngineError("diagonal stabilizer phase is an odd power")
        z_part = element(group, tuple(map(mod, v[m:], d)))
        if z_part.is_zero and c:
            # gamma^c * identity fixing the state forces c = 0
            raise EngineError("stabilizer contains a nontrivial scalar")
        diag_gens.append(z_part)
        diag_phases.append((-(c // 2)) % group.order)
    offset = solve_character_system(group, diag_gens, diag_phases)
    if offset is None:
        raise EngineError("diagonal constraints are unsatisfiable")
    x_parts = howell_reduce(echelon, N, m)  # column j a multiple of N/d_j
    basis = HowellBasis(
        group,
        tuple(element(group, tuple(map(floordiv, v, scale))) for v in x_parts),
        tuple(c for c, _ in echelon),
    )
    return OutputDistribution.from_canonical(basis.reduce(offset), basis)


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
