"""Endomorphisms of Z_d1 x ... x Z_dm as integer matrices, plus subgroup
machinery built on the Diophantine solver and the Howell form.

A homomorphism is fixed by the images of the factor generators e^i; the
images form the columns of a matrix whose row k lives in Z_{d_k}. The
column list is a valid homomorphism exactly when d_i * column_i = 0 in
the group, and everything else here (duals, inverses, orthogonal
subgroups, character-constraint solving) reduces to exact integer
linear algebra over that representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .groups import ENUM_BOUND, AbelianGroup, GroupElement, check_size
from .intlinalg import howell_form, kernel_basis, solve_diophantine, solve_mod


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
        m = self.group.num_factors
        if len(self.columns) != m:
            raise ValueError(f"expected {m} columns, got {len(self.columns)}")
        for i, col in enumerate(self.columns):
            if col.group != self.group:
                raise ValueError("column element belongs to a different group")
            if not (self.group.moduli[i] * col).is_zero:
                raise InvalidEndomorphism(
                    i,
                    f"column {i} image {col} has order not dividing "
                    f"{self.group.moduli[i]}",
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


def auto_inverse(A: EndoMatrix) -> EndoMatrix | None:
    """Matrix of the inverse automorphism, or None when A is not invertible.

    Row k of the inverse B lives in Z_{d_k}; scaled by s_k = N/d_k, with
    N = lcm(d), it becomes the unknown y = s_k B_k. of congruences mod N
    that no longer depend on k except through the right-hand side:

        sum_j y_j A_ji = s_k delta_ki  for each i  (B undoes A on e^i)
        d_j y_j = 0                    for each j  (B is a homomorphism)

    Over Z_N these say y M = (s_k e_k | 0) for the m x 2m matrix
    M = [A | diag(d)]. The y with d_j y_j = 0 are the homomorphisms
    G -> Z_N, and y -> y A is a bijection on them exactly when A is, so
    A is invertible exactly when y M = 0 forces y = 0. One solve_mod of
    M^T y = (s_k e_k | 0) answers all m rows and that question. The
    result is checked exactly against A before it is returned.
    """
    group = A.group
    d = group.moduli
    m = group.num_factors
    N = math.lcm(*d)
    rows = [list(c.residues) for c in A.columns]
    rows += [[dj * (i == j) for i in range(m)] for j, dj in enumerate(d)]
    targets = [[N // dk * (i == k) for i in range(2 * m)] for k, dk in enumerate(d)]
    ys, kernel = solve_mod(rows, targets, N)
    if kernel or None in ys:
        return None  # some y != 0 has y M = 0, or a row has no solution
    inv_rows = []
    for k, y in enumerate(ys):
        s = N // d[k]
        if any(x % s for x in y):
            raise ArithmeticError(f"row {k} of the inverse is not a multiple of {s}")
        inv_rows.append([x // s % d[k] for x in y])
    # exact check: B A = I row-wise mod d_k; EndoMatrix checks that B is
    # a homomorphism
    for k, row in enumerate(inv_rows):
        for i in range(m):
            acc = sum(row[j] * v for j, v in A.columns[i].nonzero_residues)
            if (acc - (i == k)) % d[k]:
                raise ArithmeticError(f"entry ({k}, {i}) of B A is not {int(i == k)}")
    return EndoMatrix(
        group, tuple(group.element([r[j] for r in inv_rows]) for j in range(m))
    )


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
        """The Howell basis, built once: x_i -> (N/d_i) x_i, N = lcm(d),
        embeds G in Z_N^m, so the Howell rows of the embedded generators
        are multiples of N/d_i in column i and divide back into G."""
        d = self.group.moduli
        N = math.lcm(*d)
        scale = [N // dj for dj in d]
        embedded = [[s * v for s, v in zip(scale, h.residues)] for h in self.generators]
        rows = [
            self.group.element([v // s for v, s in zip(row, scale)])
            for row in howell_form(embedded, N)
        ]
        pivots = tuple(h.nonzero_residues[0][0] for h in rows)
        return HowellBasis(self.group, tuple(rows), pivots)


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
    basis = kernel_basis(rows, moduli=[N] * len(gens))
    perp = (group.element(vec) for vec in basis)
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
    the _character_rows system mod N. Returns None when the constraints
    are unsatisfiable. With no constraints, returns 0.
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
    sol = solve_diophantine(rows, rhs, group.num_factors, [N] * len(gens))
    if sol is None:
        return None
    return group.element(sol.particular)


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

    @property
    def radices(self) -> tuple[int, ...]:
        d = self.group.moduli
        return tuple(d[c] // h.residues[c] for c, h in zip(self.pivots, self.rows))

    @property
    def order(self) -> int:
        return math.prod(self.radices)

    def reduce(self, g: GroupElement) -> GroupElement:
        """The canonical representative of the coset g + H."""
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
