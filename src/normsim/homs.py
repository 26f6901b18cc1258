"""Endomorphisms of Z_d1 x ... x Z_dm as integer matrices, plus subgroup
machinery built on `solve_mod` and the Howell form.

A homomorphism is fixed by the images of the factor generators e^i; the
images form the columns of a matrix whose row k lives in Z_{d_k}. The
column list is a valid homomorphism exactly when d_i * column_i = 0 in
the group. Inverses, orthogonal subgroups and character constraints
each become one congruence system mod N = lcm(d) for
`intlinalg.solve_mod`; the inverse and the character system's offset
are checked exactly before they are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import floordiv, mod, mul
from typing import Sequence

from .groups import ENUM_BOUND, AbelianGroup, GroupElement, GroupMismatchError
from .groups import check_size
from .intlinalg import howell_eliminate, howell_reduce, solve_mod
# no caller here: perfbench's tracer wraps these two in this namespace,
# so they stay bound until it reads in-package stats (ROADMAP item 1)
from .intlinalg import kernel_basis, solve_diophantine


class InvalidEndomorphism(ValueError):
    """A column list that is not a homomorphism of the group."""

    def __init__(self, column: int, message: str):
        super().__init__(message)
        self.column = column


@dataclass(frozen=True)
class EndoMatrix:
    """Matrix representation of an endomorphism: column i = image of e^i."""

    group: AbelianGroup
    columns: tuple[GroupElement, ...]

    def __post_init__(self):
        d = self.group.moduli
        if len(self.columns) != len(d):
            raise ValueError(f"expected {len(d)} columns, got {len(self.columns)}")
        for i, col in enumerate(self.columns):
            if col.group is not self.group and col.group != self.group:
                raise ValueError("column element belongs to a different group")
            if any(d[i] * r % dk for r, dk in zip(col.residues, d)):
                raise InvalidEndomorphism(
                    i, f"column {i} image {col} has order not dividing {d[i]}"
                )

    @classmethod
    def identity(cls, group: AbelianGroup) -> EndoMatrix:
        return cls(group, tuple(group.units()))

    @classmethod
    def zero(cls, group: AbelianGroup) -> EndoMatrix:
        return cls(group, (group.zero(),) * group.num_factors)

    def entry(self, row: int, col: int) -> int:
        return self.columns[col].residues[row]

    def apply(self, g: GroupElement) -> GroupElement:
        if g.group is not self.group and g.group != self.group:
            raise GroupMismatchError(f"{g} of {g.group} given to a map of {self.group}")
        acc = [0] * self.group.num_factors
        for gi, col in zip(g.residues, self.columns):
            if gi:
                for row, v in col.nonzero_residues:
                    acc[row] += gi * v
        return self.group.element(acc)

    def compose(self, inner: EndoMatrix) -> EndoMatrix:
        """The map g -> self(inner(g))."""
        return EndoMatrix(self.group, tuple(self.apply(c) for c in inner.columns))


def endo_validate(group: AbelianGroup, columns: Sequence[Sequence[int]]) -> EndoMatrix:
    """Build an EndoMatrix from raw residue columns.

    Raises InvalidEndomorphism (carrying the offending column index)
    when d_i * column_i != 0, and ValueError for malformed input.
    """
    elems = tuple(group.element(c) for c in columns)
    return EndoMatrix(group, elems)


def endo_dual(A: EndoMatrix) -> EndoMatrix:
    """The unique endomorphism B with chi_g(A(x)) = chi_{B(g)}(x).

    Entrywise B_kl = (d_k * A_lk) / d_l mod d_k; the division is exact
    because d_k * A_lk = 0 mod d_l is A's own validity, checked when A
    was built.
    """
    group = A.group
    d = group.moduli
    m = group.num_factors
    cols = [
        group.element([d[k] * A.entry(l, k) // d[l] for k in range(m)])
        for l in range(m)
    ]
    return EndoMatrix(group, tuple(cols))


def inverse_dual(A: EndoMatrix) -> EndoMatrix | None:
    """endo_dual of A's inverse, which conjugation applies to Z parts, or
    None when A is not invertible.

    With N = lcm(d), s_j = N/d_j and S = diag(s), u (S A) for u in Z_N^m
    runs over Hom(G, Z_N) composed with A, a bijection exactly when A is
    one; the s_k e_k generate Hom(G, Z_N), so A is invertible exactly when
    one solve_mod solves u^(k) (S A) = s_k e_k mod N for every k. Column k
    of the dual D is u^(k) mod d, as d_l s_l = N; the exact check below
    is dual(A) D = I, and EndoMatrix checks that D is a homomorphism.
    """
    group = A.group
    d = group.moduli
    N = math.lcm(*d)
    s = [N // dj for dj in d]
    rows = [[sj * v for sj, v in zip(s, c.residues)] for c in A.columns]
    targets = [[sk * (i == k) for i in range(len(d))] for k, sk in enumerate(s)]
    us, _ = solve_mod(rows, targets, N)
    if None in us:
        return None  # composing with A misses s_k e_k, so it is no bijection
    u_cols = list(zip(*us))
    for i, col in enumerate(A.columns):
        acc = [-t for t in targets[i]]
        for j, v in col.nonzero_residues:
            acc = [a + s[j] * v * b for a, b in zip(acc, u_cols[j])]
        if any(a % N for a in acc):
            raise ArithmeticError(f"column {i} of U (S A) is not s_{i} e_{i}")
    return EndoMatrix(group, tuple(map(group.element, us)))


def auto_inverse(A: EndoMatrix) -> EndoMatrix | None:
    """Matrix of the inverse automorphism, or None when A is not invertible:
    the dual of inverse_dual(A), since endo_dual is an involution that
    reverses products, so dual(A) D = I gives dual(D) A = I."""
    dual = inverse_dual(A)
    return None if dual is None else endo_dual(dual)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by a (possibly redundant) generating set."""

    group: AbelianGroup
    generators: tuple[GroupElement, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.group != self.group:
                raise ValueError("generator belongs to a different group")

    @cached_property
    def howell(self) -> HowellBasis:
        """The Howell basis, built once from the generators embedded in
        Z_N^m as HowellBasis.from_echelon takes them."""
        N, rows = _character_rows(self.group, self.generators)
        echelon, _ = howell_eliminate([(v, 0) for v in rows], N, self.group.num_factors)
        return HowellBasis.from_echelon(self.group, echelon)


def _character_rows(group: AbelianGroup, gens: Sequence[GroupElement]):
    """(N, rows) with N = lcm(d) and one row per h, taken mod N, such that
    chi_h(g) = exp(2*pi*i * (row . g) / N)."""
    N = math.lcm(*group.moduli)
    return N, [[N // dj * hj for dj, hj in zip(group.moduli, h.residues)] for h in gens]


def orthogonal_subgroup(H: Subgroup) -> Subgroup:
    """Generators of {g : chi_g(h) = 1 for all h in H}.

    The condition on g is the congruence sum_j (N h_j / d_j) g_j = 0
    mod N = lcm(d) for each generator h; the kernel of that system,
    reduced mod the moduli, generates the orthogonal.
    """
    group = H.group
    gens = H.generators
    if not gens:
        return Subgroup(group, tuple(group.units()))
    N, rows = _character_rows(group, gens)
    _, kernel = solve_mod(rows, [], N, group.num_factors)
    d, element = group.moduli, GroupElement._reduced
    perp = (element(group, tuple(map(mod, vec, d))) for vec in kernel)
    return Subgroup(group, tuple(g for g in perp if not g.is_zero))


def solve_character_system(
    group: AbelianGroup,
    gens: Sequence[GroupElement],
    phases: Sequence[int],
) -> GroupElement | None:
    """Find g with chi_{h^k}(g) = exp(2*pi*i*s_k/order) for every k.

    `phases` holds the s_k as integers mod order. A character value is
    an N-th root of unity, N = lcm(d), so there is no solution unless
    order/N divides every s_k; the quotients are the right-hand side of
    the _character_rows system mod N, and solve_mod's offset is checked
    exactly against every row. Returns None when the constraints are
    unsatisfiable. With no constraints, returns 0.
    """
    if len(gens) != len(phases):
        raise ValueError("constraint count mismatch")
    if not gens:
        return group.zero()
    if any(h.group != group for h in gens):
        raise ValueError("constraint element belongs to a different group")
    N, rows = _character_rows(group, gens)
    q = group.order // N
    if any(int(s) % q for s in phases):
        return None
    rhs = [int(s) // q for s in phases]
    (x,), _ = solve_mod(rows, [rhs], N, group.num_factors)
    if x is None:
        return None
    for k, (row, r) in enumerate(zip(rows, rhs)):
        if (sum(map(mul, row, x)) - r) % N:
            raise ArithmeticError(f"offset fails character constraint {k}")
    return group.element(x)


@dataclass(frozen=True)
class HowellBasis:
    """The canonical generators of a subgroup H of G.

    Row i is nonzero from its pivot column c_i on, and its pivot residue
    p_i divides d_{c_i}; pivot columns strictly increase, and every
    earlier row's residue in column c_i lies in [0, p_i). Each h in H is
    sum_i c_i row_i for exactly one c with 0 <= c_i < d_{c_i} / p_i, the
    radix of row i, so |H| is the product of the radices. Equal
    subgroups have equal bases, whatever generators they came from.
    """

    group: AbelianGroup
    rows: tuple[GroupElement, ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_echelon(cls, group: AbelianGroup, echelon) -> HowellBasis:
        """The basis from howell_eliminate's echelon over rows that start
        with x in G embedded in Z_N^m, x_j -> (N/d_j) x_j, N = lcm(d): the
        reduced rows are multiples of N/d_j in column j and divide back."""
        N = math.lcm(*group.moduli)
        scale = [N // dj for dj in group.moduli]
        rows = howell_reduce(echelon, N, group.num_factors)
        element = GroupElement._reduced
        gens = tuple(element(group, tuple(map(floordiv, v, scale))) for v in rows)
        return cls(group, gens, tuple(c for c, _ in echelon))

    @property
    def radices(self) -> tuple[int, ...]:
        d = self.group.moduli
        return tuple(d[c] // h.residues[c] for c, h in zip(self.pivots, self.rows))

    @property
    def order(self) -> int:
        return math.prod(self.radices)

    def reduce(self, g: GroupElement) -> GroupElement:
        """The canonical representative of the coset g + H."""
        if g.group is not self.group and g.group != self.group:
            raise GroupMismatchError(f"{g} of {g.group} reduced in {self.group}")
        d = self.group.moduli
        x = g.residues
        for c, h in zip(self.pivots, self.rows):
            q = x[c] // h.residues[c]
            if q:
                x = [(a - q * b) % dj for a, b, dj in zip(x, h.residues, d)]
        return self.group.element(x)


def subgroup_members(
    H: Subgroup, bound: int = ENUM_BOUND
) -> frozenset[GroupElement]:
    """Every element of H once: its Howell basis in mixed radix (test utility)."""
    basis = H.howell
    check_size(basis.order, bound, "subgroup")
    members = [H.group.zero()]
    for h, n in zip(basis.rows, basis.radices):
        members = [g + c * h for c in range(n) for g in members]
    return frozenset(members)


def subgroup_contains(H: Subgroup, g: GroupElement) -> bool:
    """Membership: g reduces to zero against the Howell basis of H."""
    return H.howell.reduce(g).is_zero
