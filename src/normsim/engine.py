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
At the end the measurement statistics are read off the tableau's rows
by one Howell elimination, every row operation a label product: the
support is a coset offset + <x parts>, whose Howell basis the echelon
rows give, and the offset solves the character system of the purely
diagonal stabilizer elements the other rows generate. The result is
already in the canonical form that sampling the uniform distribution
over the coset reads, and no label or state vector is built for it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, chain, compress, repeat
from operator import add, getitem, index, mod, mul, xor
from struct import Struct
from typing import Callable, Iterable, Iterator, Sequence

from .groups import (
    ENUM_BOUND,
    AbelianGroup,
    GroupElement,
    GroupMismatchError,
    check_size,
)
from .homs import (
    EndoMatrix,
    HowellBasis,
    Subgroup,
    auto_inverse,
    endo_dual,
    inverse_dual,
    orthogonal_subgroup,
    solve_character_system,
)
# auto_inverse, endo_dual, kernel_basis, pauli_dagger, pauli_identity,
# pauli_mul, pauli_pow, extract_endo and quad_eval have no caller here;
# perfbench's tracer wraps them in this namespace, so they stay bound
from .intlinalg import howell_eliminate, kernel_basis, mod_table
from .intlinalg import pack_bits, pack_bytes, transpose, unpack_bits, unpack_bytes
from .pauli import PauliLabel, pauli_dagger, pauli_identity, pauli_mul, pauli_pow
from .quadratic import QuadraticEncoding, extract_endo, quad_eval


_TABLE_SIZE = 256  # entries in one sampler table, and a coset held whole
_BLOCK = 4096  # shots drawn at once by sample_stream


class EngineError(RuntimeError):
    """Internal inconsistency that valid inputs cannot trigger."""


class NotInvertible(ValueError):
    """Automorphism gate built from a non-invertible matrix."""


def _check_targets(group: AbelianGroup, targets: Sequence[int]) -> tuple[int, ...]:
    t = tuple(sorted(map(index, targets)))
    if not t:
        raise ValueError("transform needs at least one target factor")
    if len(set(t)) != len(t):
        raise ValueError("duplicate transform targets")
    for i in t:
        if not 0 <= i < group.num_factors:
            raise ValueError(f"target factor {i} out of range")
    return t


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
    its other gates. rows() applies F's commutation character to every
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
        group = labels[0].group
        if any(s.group != group for s in labels):
            raise GroupMismatchError("stabilizer labels over different groups")
        if cls is Tableau and math.lcm(*group.moduli) == 2:
            cls = _Z2Tableau
        return super().__new__(cls)

    def __init__(self, labels: Sequence[PauliLabel]):
        self.group = labels[0].group
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

    def rows(self) -> Iterator[tuple[int, Sequence[int], Sequence[int]]]:
        """(a, z, x) per label: residue tuples here, bytes in _Z2Tableau."""
        if self.framed:
            self._flush_frame()
        return zip(self.phase, zip(*self.z), zip(*self.x))

    def labels(self) -> tuple[PauliLabel, ...]:
        # every gate keeps columns and phases reduced, so rows need no check
        g, element, label = self.group, GroupElement._reduced, PauliLabel._reduced
        return tuple(label(a, element(g, tuple(z)), element(g, tuple(x)))
                     for a, z, x in self.rows())


class _Z2Tableau(Tableau):
    """The Tableau over Z_2^m in bits: each column a bit row over the
    labels (intlinalg's packed rows), row r of R in bit R-1-r.

    `a` lists the input phases, and the increments mod 4, in units of
    |G|/2, are the bit-planes p0 + 2 p1. The Pauli frame is (fz, fx),
    factor i in bit i: zero until a Pauli gate, never a row.
    """

    def __init__(self, labels: Sequence[PauliLabel]):
        self.group = labels[0].group
        m = self.group.num_factors
        self.a = [s.phase.value for s in labels]
        self.z = list(map(pack_bits, transpose([s.z_part.residues for s in labels], m)))
        self.x = list(map(pack_bits, transpose([s.x_part.residues for s in labels], m)))
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
        self.fz ^= pack_bits(p.z_part.residues[::-1])
        self.fx ^= pack_bits(p.x_part.residues[::-1])

    def rows(self) -> Iterator[tuple[int, bytes, bytes]]:
        # F ~ Z(g) X(h) moves each phase by chi_g(x) chi_z(-h), |G| (g.x + h.z)
        m = len(self.z)
        for cols, frame in ((self.x, self.fz), (self.z, self.fx)):
            for col in compress(cols, unpack_bits(frame, m)[::-1]):
                self.p1 ^= col
        self.fz = self.fx = 0
        R, U, L = len(self.a), self.group.order // 2, self.group.phase_modulus
        k, z, x = (transpose([unpack_bits(c, R) for c in cols], R)
                   for cols in ((self.p0, self.p1), self.z, self.x))
        phases = [(a + U * (k0 + 2 * k1)) % L for a, (k0, k1) in zip(self.a, k)]
        return zip(phases, z, x)


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


def _on_tableau(update: str):
    """A gate's conjugate(target): the Tableau update of that name, on a
    Tableau in place or on one label."""

    def conjugate(self, target: Tableau | PauliLabel) -> Tableau | PauliLabel:
        tab = target if isinstance(target, Tableau) else Tableau((target,))
        if tab.group is not self.group and tab.group != self.group:
            raise GroupMismatchError(
                f"gate over {self.group} applied to labels over {tab.group}"
            )
        getattr(tab, update)(self)
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

    conjugate = _on_tableau("fourier")


@dataclass(frozen=True)
class AutomorphismGate:
    """Basis permutation |g> -> |alpha(g)> for an automorphism alpha.

    X parts push through as alpha(h); Z parts become the dual of the
    inverse applied to g, so the matrix must be invertible.
    """

    matrix: EndoMatrix

    def __post_init__(self):
        z_action = inverse_dual(self.matrix)
        if z_action is None:
            raise NotInvertible("matrix has no inverse over the group")
        object.__setattr__(self, "_z_action", z_action)

    @property
    def group(self) -> AbelianGroup:
        return self.matrix.group

    conjugate = _on_tableau("automorphism")


@dataclass(frozen=True)
class QuadraticGate:
    """Diagonal gate |g> -> xi(g)|g> for a quadratic function xi."""

    encoding: QuadraticEncoding

    @property
    def group(self) -> AbelianGroup:
        return self.encoding.group

    conjugate = _on_tableau("quadratic")


@dataclass(frozen=True)
class PauliGate:
    """A Pauli operator used as a circuit gate."""

    label: PauliLabel

    @property
    def group(self) -> AbelianGroup:
        return self.label.group

    conjugate = _on_tableau("pauli")


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
    unshifted stabilizer with X(x). chi_v(-x) = gamma^a with
    a = sum_i (2|G|/d_i) v_i (-x_i) mod 2|G|, whose weights
    (2|G|/d_i)(-x_i) are the same for every v.
    """
    group, label = coset.group, PauliLabel._reduced
    zero, L = group.zero(), group.phase_modulus
    weights = [L // d * s for d, s in zip(group.moduli, (-coset.shift).residues)]
    labels = [label(0, zero, u) for u in coset.generators]
    for v in orthogonal_subgroup(coset.subgroup).generators:
        labels.append(label(sum(map(mul, weights, v.residues)) % L, v, zero))
    return tuple(labels)


def conjugate_circuit(
    stabilizer: StabilizerSet | Tableau, gates: Iterable[Gate]
) -> StabilizerSet | Tableau:
    """One tableau update per gate; GroupMismatchError on a foreign gate.
    A Tableau is conjugated in place and returned, labels as labels."""
    if not stabilizer:  # a Tableau is never empty
        return ()
    tab = stabilizer if isinstance(stabilizer, Tableau) else Tableau(stabilizer)
    for gate in gates:
        gate.conjugate(tab)
    return tab if tab is stabilizer else tab.labels()


@dataclass(frozen=True)
class OutputDistribution:
    """Uniform distribution over support + offset under full measurement.

    `output_distribution` returns the canonical form: the support's
    generators are its Howell basis and the offset is reduced against
    them, and `canonical` holds that pair from the start; other
    generators and offsets derive it on first use. Sampling, `members`
    and `normsim support` go through it, so they depend on the coset
    alone, and the first two through one decode built once per coset.
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
    def _packed(self) -> tuple[int, Callable[[int], tuple], list[GroupElement] | None]:
        """(|S|, decode, shared), decode(r) = x0 + sum_i c_i row_i mod d as
        residues for r = c_1 + n_1 (c_2 + n_2 (...)) < |S|, n_i the radices.

        Over lcm 2 and m > 128, c is r's bits and rows are bit rows: byte k
        of r indexes the XORs of rows 8k..8k+7, as Stim packs rows
        (arXiv:2103.02202). Otherwise residue j is field j of an int, and
        each digit adds its step's entry. With one modulus d <= 128 these
        are byte rows of entries reduced mod d, the sum folded by one
        translate before `period` more could pass 255; else fields hold the
        unreduced sum, unpacked in one `struct` call up to 64 bits. A coset
        of at most 256 elements is also built whole, once: shared[r] is the
        element of decode(r), its `str` formatted ahead, and every shot and
        member of the coset is one of these; wider cosets have shared None.
        """
        x0, basis = self.canonical
        d, m, radices = self.group.moduli, self.group.num_factors, basis.radices
        rows = [x0.residues, *(h.residues for h in basis.rows)]
        if max(d) <= 2 and m > 128:
            tables = [t for _, t in _steps(list(map(pack_bits, rows)), radices, xor)]

            def decode(r, width=len(tables)):
                acc = reduce(xor, map(getitem, tables, r.to_bytes(width, "little")))
                return tuple(unpack_bits(acc, m))
        else:
            if len(set(d)) == 1 and d[0] <= 128:
                period = 255 // (d[0] - 1 or 1) - 1
                mod_d = mod_table(d[0])

                def split(acc):
                    return unpack_bytes(acc, m).translate(mod_d)

                steps = _byte_steps(list(map(bytes, rows)), radices, mod_d, d[0] - 1)
            else:
                top = max(sum((n - 1) * h[j] for n, h in zip((2, *radices), rows))
                          for j in range(m))
                w = max(16, 1 << (top.bit_length() - 1).bit_length())
                period = len(rows)
                unpack = w <= 64 and Struct(f"<{m}{'HIQ'[w.bit_length() - 5]}").unpack

                def split(acc, mask=(1 << w) - 1, shifts=range(0, w * m, w)):
                    if unpack:
                        return map(mod, unpack(acc.to_bytes(m * w // 8, "little")), d)
                    return [(acc >> s & mask) % dj for s, dj in zip(shifts, d)]

                packed = [int.from_bytes(b"".join(r.to_bytes(w // 8, "little") for r in v),
                                         "little") for v in rows]
                steps = _steps(packed, radices, add)
            chunks = [steps[i:i + period] for i in range(0, len(steps), period)]

            def decode(r):
                acc = 0
                for chunk in chunks:
                    if acc:  # only byte rows fold: wider fields take one chunk
                        acc = pack_bytes(split(acc))
                    for n, table in chunk:
                        r, t = divmod(r, n)
                        acc += table[t]
                return tuple(split(acc))
        shared = None
        if basis.order <= _TABLE_SIZE:
            element, group = GroupElement._formatted, repeat(self.group)
            shared = list(map(element, group, map(decode, range(basis.order))))
        return basis.order, decode, shared

    def members(self, bound: int = ENUM_BOUND) -> frozenset[GroupElement]:
        """The coset, as the decode of every r < |S|, and for a coset of at
        most 256 elements its shared elements; BoundExceeded above bound."""
        size, decode, shared = self._packed
        check_size(size, bound, "support")
        if shared is not None:
            return frozenset(shared)
        element, group = GroupElement._reduced, repeat(self.group)
        return frozenset(map(element, group, map(decode, range(size))))

    def sample(self, rng: random.Random) -> GroupElement:
        # one randrange(|S|) per shot, exact rejection sampling in the
        # stdlib; the decode is a bijection onto the coset
        size, decode, shared = self._packed
        r = rng.randrange(size)
        if shared is not None:
            return shared[r]
        return GroupElement._reduced(self.group, decode(r))


def _steps(rows: list[int], radices: Sequence[int], combine) -> list[tuple]:
    """[(n, table)] over packed rows, rows[0] the offset: a run of rows with
    radix product n <= 256 (the first from the offset) has table[t] = the
    combine of c_i row_i for its digit t; a wider row's table[t] = t*row."""
    steps: list[tuple] = [(1, [rows[0]])]
    for h, n in zip(rows[1:], radices):
        if n > _TABLE_SIZE:
            steps.append((n, range(0, n * h, h)))
            continue
        k, table = steps.pop() if steps[-1][0] * n <= _TABLE_SIZE else (1, [0])
        multiples = accumulate(repeat(h, n - 1), combine, initial=0)
        steps.append((k * n, [combine(v, c) for c in multiples for v in table]))
    return steps


def _byte_steps(
    rows: list[bytes], radices: Sequence[int], mod_d: bytes, top: int
) -> list[tuple]:
    """_steps over byte rows of one modulus d, fields at most top = d - 1,
    every table entry reduced by mod_d's translate. A run's table is one
    byte row of m-entry blocks: the block for digit c + 1 of its newest
    row is the block for c plus that row, added as one int across the
    block. A block is reduced, by one translate over its joined bytes,
    only once one more row could pass 255 in a field; a table is reduced
    once more at the end of its run if it holds unreduced sums, and split
    into entries there."""
    m = len(rows[0])
    runs = [(1, rows[0], top)]  # (entries, table, bound on its fields)
    for h, n in zip(rows[1:], radices):
        fits = runs[-1][0] * n <= _TABLE_SIZE
        k, table, bound = runs.pop() if fits else (1, bytes(m), 0)
        block, step = pack_bytes(table), pack_bytes(h * k)
        blocks, last = [table], bound
        for _ in range(n - 1):
            block, last = block + step, last + top
            fields = unpack_bytes(block, k * m)
            if last + top > 255:
                fields = fields.translate(mod_d)
                block, last = pack_bytes(fields), top
            blocks.append(fields)
            bound = max(bound, last)
        runs.append((k * n, b"".join(blocks), bound))
    steps = []
    for n, table, bound in runs:
        if bound > top:
            table = table.translate(mod_d)
        steps.append((n, [pack_bytes(table[i:i + m]) for i in range(0, n * m, m)]))
    return steps


def output_distribution(stabilizer: StabilizerSet | Tableau) -> OutputDistribution:
    """Read measurement statistics off a conjugated stabilizer set.

    One Howell elimination runs over a Tableau's rows (x | z | a), x
    embedded in Z_N^m as HowellBasis.from_echelon takes it, and every row
    operation is a label product (see howell_eliminate). The echelon rows'
    X parts, reduced, are then the Howell basis of the support. The pool
    rows are the purely diagonal stabilizer elements gamma^c Z(z), and
    they generate all of them; fixing the state forces chi_z(x) =
    gamma^{-c} on every support point x, a second system that pins down
    the offset. The distribution comes back in its canonical form.
    """
    if not stabilizer:  # a Tableau is never empty
        raise EngineError("empty stabilizer set")
    tab = stabilizer if isinstance(stabilizer, Tableau) else Tableau(stabilizer)
    group = tab.group
    d, L, m = group.moduli, group.phase_modulus, group.num_factors
    N = math.lcm(*d)
    scale = [N // dj for dj in d]  # N is 2 exactly on a _Z2Tableau's byte rows
    rows = [(x + z if N == 2 else [*map(mul, scale, x), *z], a)
            for a, z, x in tab.rows()]
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
    basis = HowellBasis.from_echelon(group, echelon)
    return OutputDistribution.from_canonical(basis.reduce(offset), basis)


def simulate(coset: CosetInput, gates: Sequence[Gate]) -> OutputDistribution:
    """Full pipeline: stabilizer init, conjugation, statistics."""
    tab = conjugate_circuit(Tableau(init_stabilizer(coset)), gates)
    return output_distribution(tab)


def _draw_blocks(rng: random.Random, n: int, shots: int) -> Iterator[Sequence[int]]:
    """The values of `shots` calls rng.randrange(n), in blocks of about
    _BLOCK; joined, exactly the values those calls return.

    It relies on CPython's random: randrange(n) is _randbelow(n), which
    draws k = n.bit_length() bits by getrandbits(k) until they fall below
    n; for k <= 32 getrandbits(k) is the top k bits of the generator's next
    32-bit MT19937 word, and getrandbits(32 b) is its next b words, the
    first least significant. So the draws are the words of one
    getrandbits(32 b) shifted right by 32 - k, those at n or above
    dropped. Up to k = 8 a draw is the word's top byte shifted, and one
    translate shifts and drops them all; up to k = 32 one `struct` unpack
    reads the words. Wider draws stay randrange calls. Words drawn past the
    last shot are never read, so rng should be the caller's own.
    """
    k = n.bit_length()
    if k <= 8:
        table = bytes(t >> 8 - k for t in range(256))
        rejected = bytes(range(n << 8 - k, 256))
    elif k <= 32:
        shift, limit = 32 - k, n << 32 - k
    while shots > 0:
        if k > 32:
            draws = list(map(rng.randrange, repeat(n, min(shots, _BLOCK))))
        else:
            # words for a block of shots at the acceptance rate n / 2^k,
            # and 32 more, so that a stream rarely needs one more block
            words = (min(shots, _BLOCK) << k) // n + 32
            block = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            if k <= 8:
                draws = block[3::4].translate(table, rejected)
            else:
                words = Struct(f"<{words}I").unpack(block)
                draws = [w >> shift for w in words if w < limit]
        yield draws[:shots]
        shots -= len(draws)


def sample_stream(
    dist: OutputDistribution, shots: int, seed: int | None
) -> Iterator[GroupElement]:
    """Shots from random.Random(seed): the draw of each is the value
    randrange(|S|) would give, taken from blocks of MT19937 words (see
    _draw_blocks), so the stream is that of one randrange call per shot.

    Each draw is decoded over the canonical form of the output coset, so
    the stream is a function of the coset and the seed alone: any
    generators and offset of the same coset give the same shots. Streams
    moved once, in 0.2.0, from one draw per support generator to this.
    A coset of at most 256 elements hands out its shared elements, built
    and formatted once, so a shot is one list lookup and its `str` a slot
    read; over a wider coset maps chain the draw, the decode and the
    element constructor.
    """
    shots = index(shots)  # here, not once the stream is first read
    if shots < 0:
        raise ValueError(f"shot count must be nonnegative, got {shots}")
    size, decode, shared = dist._packed
    draws = chain.from_iterable(_draw_blocks(random.Random(seed), size, shots))
    if shared is not None:
        return map(shared.__getitem__, draws)
    return map(GroupElement._reduced, repeat(dist.group), map(decode, draws))
