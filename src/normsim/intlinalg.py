"""Exact integer linear algebra: linear Diophantine and congruence systems.

Matrices are lists of rows of unbounded Python integers. A system is
A x = b, with row i taken either exactly or, when `moduli` are given,
mod d_i. The solver returns one particular solution plus a lattice basis
of the kernel, so the full solution set is particular + Z-span(kernel).
`howell_form` reduces a matrix over Z_N to its Howell form, with every
entry kept in [0, N).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

IntMatrix = Sequence[Sequence[int]]


@dataclass(frozen=True)
class DiophantineSolution:
    """All integer solutions of A x = b: particular + Z-span of kernel."""

    particular: tuple[int, ...]
    kernel: tuple[tuple[int, ...], ...]


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def howell_form(rows: IntMatrix, N: int) -> list[tuple[int, ...]]:
    """Howell form of the Z_N-module spanned by `rows`.

    Returns rows with entries in [0, N), in row-echelon form: each row's
    first nonzero entry (its pivot) divides N, pivots sit in strictly
    increasing columns, and entries above a pivot are reduced below it.
    The rows span the same submodule of Z_N^n as the input, and they
    have the Howell property: every vector of the span that is zero in
    its first k columns is a Z_N-combination of the rows whose pivot
    column is k or later. So greedy reduction against the rows decides
    membership, and the rows with zeros in a leading block span exactly
    the span vectors that vanish there.

    Column by column, the rows with a nonzero entry merge into one
    pivot row by unimodular 2x2 gcd steps; a gcd step against the
    zero row N*e_c makes the pivot gcd(a, N) and leaves the annihilator
    (N/g) * pivot row, which joins the rows still to be reduced
    (Storjohann & Mulders, "Fast algorithms for linear algebra modulo
    N", 1998).
    """
    if N < 1:
        raise ValueError("modulus must be a positive integer")
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("rows must all have the same length")
    pool = [[v % N for v in row] for row in rows]
    pool = [row for row in pool if any(row)]
    out: list[list[int]] = []
    for c in range(n):
        piv = None
        rest = []
        for row in pool:
            b = row[c]
            if b == 0:
                rest.append(row)
            elif piv is None:
                piv = row
            else:
                a = piv[c]
                g, s, t = _exgcd(a, b)
                p, q = a // g, b // g
                piv, row = (
                    [(s * x + t * y) % N for x, y in zip(piv, row)],
                    [(p * y - q * x) % N for x, y in zip(piv, row)],
                )
                if any(row):
                    rest.append(row)
        if piv is not None:
            g, s, _ = _exgcd(piv[c], N)
            annihilator = [(N // g) * x % N for x in piv]
            if any(annihilator):
                rest.append(annihilator)
            piv = [s * x % N for x in piv]
            for row in out:
                q = row[c] // g
                if q:
                    row[:] = [(x - q * y) % N for x, y in zip(row, piv)]
            out.append(piv)
        pool = rest
    return [tuple(row) for row in out]


def _column_echelon(A: IntMatrix, m: int):
    """Column-style Hermite reduction with unimodular column tracking.

    Returns (H, U, pivots) where H = A*U in column echelon form, U is
    unimodular m x m, and pivots lists (row, col) positions of the
    nonzero echelon corners. Columns of U beyond the last pivot column
    span the integer kernel of A.
    """
    n = len(A)
    H = [list(row) for row in A]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pivots: list[tuple[int, int]] = []
    col = 0
    for row in range(n):
        if col == m:
            break
        # move a nonzero into the working column, if any
        nz = next((j for j in range(col, m) if H[row][j] != 0), None)
        if nz is None:
            continue
        if nz != col:
            for M in (H, U):
                for i in range(len(M)):
                    M[i][col], M[i][nz] = M[i][nz], M[i][col]
        # fold the rest of the row into the pivot by unimodular 2x2 steps
        for j in range(col + 1, m):
            if H[row][j] == 0:
                continue
            g, s, t = _exgcd(H[row][col], H[row][j])
            p, q = H[row][col] // g, H[row][j] // g
            for M in (H, U):
                for i in range(len(M)):
                    x, y = M[i][col], M[i][j]
                    M[i][col] = s * x + t * y
                    M[i][j] = -q * x + p * y
        if H[row][col] < 0:
            for M in (H, U):
                for i in range(len(M)):
                    M[i][col] = -M[i][col]
        # keep earlier columns reduced against the new pivot (size control)
        piv = H[row][col]
        for j in range(col):
            q = H[row][j] // piv
            if q:
                for i in range(n):
                    H[i][j] -= q * H[i][col]
                for i in range(m):
                    U[i][j] -= q * U[i][col]
        pivots.append((row, col))
        col += 1
    return H, U, pivots


def kernel_basis(
    A: IntMatrix, num_cols: int | None = None, moduli: Sequence[int] | None = None
) -> list[tuple[int, ...]]:
    """A lattice basis of {x integer vector : A x = 0}, mod d_i row-wise
    when `moduli` are given (see solve_diophantine).

    Args:
        A: coefficient rows; may be empty.
        num_cols: required when A has no rows.
    """
    return list(solve_diophantine(A, [0] * len(A), num_cols, moduli).kernel)


def solve_diophantine(
    A: IntMatrix,
    b: Sequence[int],
    num_cols: int | None = None,
    moduli: Sequence[int] | None = None,
) -> DiophantineSolution | None:
    """Solve A x = b over the integers, or A x = b mod moduli[i] in row i.

    A congruence row gets a slack column d_i * e_i, so that the integer
    solutions of the augmented rows are the solutions for x with slack
    values appended; the particular solution and the kernel are returned
    projected onto x, and span the full congruence solution set.
    Returns None when no integer solution exists (a distinguished
    outcome, not an error). The particular solution and every kernel
    generator are re-verified against the original rows before
    returning.
    """
    n = len(A)
    if len(b) != n:
        raise ValueError("right-hand side length does not match row count")
    m = len(A[0]) if n else num_cols
    if m is None:
        raise ValueError("num_cols required for a matrix with no rows")
    rows, total = A, m
    if moduli is not None:
        if len(moduli) != n or any(d < 1 for d in moduli):
            raise ValueError("moduli must be one positive integer per row")
        rows = [
            list(row) + [d if s == i else 0 for s in range(n)]
            for i, (row, d) in enumerate(zip(A, moduli))
        ]
        total += n

    def satisfies(x, rhs) -> bool:
        for i, row in enumerate(A):
            r = sum(map(mul, row, x)) - rhs[i]
            if moduli is not None:
                r %= moduli[i]
            if r:
                return False
        return True

    H, U, pivots = _column_echelon(rows, total)
    y = [0] * total
    for row, col in pivots:
        rem = b[row] - sum(H[row][j] * y[j] for j in range(col))
        if rem % H[row][col] != 0:
            return None
        y[col] = rem // H[row][col]
    x = tuple(sum(U[i][j] * y[j] for j in range(total)) for i in range(m))
    # rows without a pivot may still be violated; verify the lot exactly
    if not satisfies(x, b):
        return None
    # the first m rows of U belong to x, the rest to the slack
    kernel = tuple(
        tuple(U[i][j] for i in range(m)) for j in range(len(pivots), total)
    )
    for k in kernel:
        if not satisfies(k, [0] * n):
            raise ArithmeticError(f"kernel vector {k} fails A k = 0")
    return DiophantineSolution(particular=x, kernel=kernel)
