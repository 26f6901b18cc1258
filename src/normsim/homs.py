"""Endomorphisms of Z_d1 x ... x Z_dm as integer matrices, plus subgroup
machinery built on the Diophantine solver.

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
from typing import Sequence

from .groups import ENUM_BOUND, AbelianGroup, GroupElement, check_bound
from .intlinalg import howell_form, kernel_basis, solve_diophantine


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
    because A is valid.
    """
    group = A.group
    d = group.moduli
    m = group.num_factors
    cols = []
    for l in range(m):
        col = []
        for k in range(m):
            num = d[k] * A.entry(l, k)
            if num % d[l] != 0:
                raise InvalidEndomorphism(k, "dual entry not integral")
            col.append((num // d[l]) % d[k])
        cols.append(group.element(col))
    return EndoMatrix(group, tuple(cols))


def auto_inverse(A: EndoMatrix) -> EndoMatrix | None:
    """Matrix of the inverse automorphism, or None when A is not invertible.

    Row k of the inverse B lives in Z_{d_k}; scaled by s_k = N/d_k, with
    N = lcm(d), it becomes the unknown y = s_k B_k. of congruences mod N
    that no longer depend on k except through the right-hand side:

        sum_j y_j A_ji = s_k delta_ki  for each i  (B undoes A on e^i)
        d_j y_j = 0                    for each j  (B is a homomorphism)

    Over Z_N these say y M = (s_k e_k | 0) for the m x 2m matrix
    M = [A | diag(d)], whose row j is (row j of A | d_j e_j). The y with
    d_j y_j = 0 are the homomorphisms G -> Z_N, and y -> y A is a
    bijection on them exactly when A is, so A is invertible exactly
    when y M = 0 forces y = 0. One Howell form of [M | I_m] answers all
    m rows: its rows that vanish on the M block span that kernel, and
    greedy reduction of (s_k e_k | 0 | 0) against the other rows leaves
    (0 | 0 | -y). The result is checked exactly against A before it is
    returned.
    """
    group = A.group
    d = group.moduli
    m = group.num_factors
    N = math.lcm(*d)
    width = 2 * m
    rows = []
    for j in range(m):
        row = [A.entry(j, i) for i in range(m)] + [0] * width
        row[m + j] = d[j]
        row[width + j] = 1
        rows.append(row)
    howell = [
        (next(c for c, v in enumerate(r) if v), r) for r in howell_form(rows, N)
    ]
    if any(c >= width for c, _ in howell):
        return None  # some y != 0 has y M = 0
    inv_rows = []
    for k in range(m):
        s = N // d[k]
        v = [0] * (3 * m)
        v[k] = s
        for c, r in howell:
            if v[c]:
                q, rem = divmod(v[c], r[c])
                if rem:
                    return None
                v = [(x - q * y) % N for x, y in zip(v, r)]
        if any(v[:width]):
            return None
        y = [-x % N for x in v[width:]]
        if any(x % s for x in y):
            raise ArithmeticError(f"row {k} of the inverse is not a multiple of {s}")
        inv_rows.append([x // s % d[k] for x in y])
    # exact check: B is a homomorphism and B A = I row-wise mod d_k
    for k, row in enumerate(inv_rows):
        if any(d[j] * b % d[k] for j, b in enumerate(row)):
            raise ArithmeticError(f"row {k} of the inverse is no homomorphism")
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


def _character_rows(group: AbelianGroup, gens: Sequence[GroupElement]):
    """One row per h, with chi_h(g) = exp(2*pi*i * (row . g) / order)."""
    d = group.moduli
    order = group.order
    return [[order // dj * hj for dj, hj in zip(d, h.residues)] for h in gens]


def orthogonal_subgroup(H: Subgroup) -> Subgroup:
    """Generators of {g : chi_g(h) = 1 for all h in H}.

    The condition on g is the congruence
    sum_j (order * h_j / d_j) g_j = 0 mod order for each generator h;
    the kernel of that system, reduced mod the moduli, generates the
    orthogonal.
    """
    group = H.group
    gens = H.generators
    if not gens:
        return Subgroup(group, tuple(group.units()))
    basis = kernel_basis(
        _character_rows(group, gens), moduli=[group.order] * len(gens)
    )
    out = []
    for vec in basis:
        g = group.element(vec)
        if not g.is_zero:
            out.append(g)
    return Subgroup(group, tuple(out))


def solve_character_system(
    group: AbelianGroup,
    gens: Sequence[GroupElement],
    phases: Sequence[int],
) -> GroupElement | None:
    """Find g with chi_{h^k}(g) = exp(2*pi*i*s_k/order) for every k.

    `phases` holds the s_k as integers mod order. Returns None when the
    constraints are unsatisfiable. With no constraints, returns 0.
    """
    if len(gens) != len(phases):
        raise ValueError("constraint count mismatch")
    if not gens:
        return group.zero()
    if any(h.group != group for h in gens):
        raise ValueError("constraint element belongs to a different group")
    sol = solve_diophantine(
        _character_rows(group, gens),
        [int(s) for s in phases],
        num_cols=group.num_factors,
        moduli=[group.order] * len(gens),
    )
    if sol is None:
        return None
    return group.element(sol.particular)


def subgroup_members(
    H: Subgroup, bound: int = ENUM_BOUND
) -> frozenset[GroupElement]:
    """Exhaustive closure of the generating set (test utility)."""
    group = H.group
    check_bound(group, bound)
    members = {group.zero()}
    frontier = [group.zero()]
    while frontier:
        cur = frontier.pop()
        for gen in H.generators:
            nxt = cur + gen
            if nxt not in members:
                members.add(nxt)
                frontier.append(nxt)
    return frozenset(members)


def subgroup_contains(H: Subgroup, g: GroupElement) -> bool:
    """Membership via solvability of sum_i c_i h^i = g mod the moduli."""
    gens = H.generators
    rows = [[h.residues[j] for h in gens] for j in range(H.group.num_factors)]
    sol = solve_diophantine(
        rows, list(g.residues), num_cols=len(gens), moduli=H.group.moduli
    )
    return sol is not None
