"""Exact integer linear algebra: linear Diophantine and congruence systems.

Matrices are lists of rows of unbounded Python integers. Every
congruence system goes through one primitive, `solve_mod`: A x = b mod
N for any number of right-hand sides, by a Howell elimination over Z_N
that keeps every entry in [0, N). `solve_diophantine` takes a system
exactly over the integers, where the solution set is particular +
Z-span(kernel), or with row i mod d_i, which it scales into one system
mod N = lcm(d) whose solution set is particular + Z-span(kernel) +
N*Z^m. `howell_form` reduces a matrix over Z_N to its Howell form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

IntMatrix = Sequence[Sequence[int]]


@dataclass(frozen=True)
class DiophantineSolution:
    """All integer solutions of A x = b: particular + Z-span of kernel,
    plus N*Z^m for a congruence system mod N = lcm(moduli)."""

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
    """
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("rows must all have the same length")
    echelon, _ = _howell(rows, N, n)
    return [tuple(row) for _, row in echelon]


def _howell(rows: IntMatrix, N: int, stop: int):
    """Howell elimination over the first `stop` columns: (echelon, pool).

    Per column, the rows with a nonzero entry merge into one pivot row by
    unimodular 2x2 gcd steps; a gcd step against the zero row N*e_c makes
    the pivot g = gcd(a, N) and leaves the annihilator (N/g) * pivot row
    in the pool (Storjohann & Mulders, "Fast algorithms for linear
    algebra modulo N", 1998). So the pool's rows, all zero in the first
    `stop` columns, span every span vector that is; echelon lists
    (pivot column, row) for the pivots there.
    """
    if N < 1:
        raise ValueError("modulus must be a positive integer")
    pool = [[v % N for v in row] for row in rows]
    pool = [row for row in pool if any(row)]
    echelon: list[tuple[int, list[int]]] = []
    for c in range(stop):
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
            for _, row in echelon:
                q = row[c] // g
                if q:
                    row[:] = [(x - q * y) % N for x, y in zip(row, piv)]
            echelon.append((c, piv))
        pool = rest
    return echelon, pool


def solve_mod(
    A: IntMatrix,
    targets: Sequence[Sequence[int]],
    N: int,
    num_cols: int | None = None,
) -> tuple[list[tuple[int, ...] | None], list[tuple[int, ...]]]:
    """Solve A x = b mod N for each b in `targets`: (solutions, kernel).

    solutions holds one x per target, None where there is none, and the
    kernel generates {x : A x = 0 mod N}, so target b is solved by x +
    Z_N-span(kernel) + N*Z^m; every entry lies in [0, N). Row i of
    [A^T | I] is (column i of A | e_i), and y combines the rows to
    (A y | y). Howell elimination of the leading block alone leaves the
    kernel in the pool, and (b | 0) reduces against the echelon rows to
    (0 | -x) exactly when b = A x is reachable.
    """
    n = len(A)
    m = len(A[0]) if n else num_cols
    if m is None:
        raise ValueError("num_cols required for a matrix with no rows")
    if any(len(row) != m for row in A) or any(len(b) != n for b in targets):
        raise ValueError("rows and targets must match the matrix shape")
    rows = [[row[i] for row in A] + [int(i == j) for j in range(m)] for i in range(m)]
    echelon, pool = _howell(rows, N, n)
    solutions = []
    for b in targets:
        v = [x % N for x in b] + [0] * m
        for c, row in echelon:
            q = v[c] // row[c]
            if q:
                v = [(x - q * y) % N for x, y in zip(v, row)]
        solutions.append(None if any(v[:n]) else tuple(-x % N for x in v[n:]))
    return solutions, [tuple(row[n:]) for row in pool]


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
    """Generators of {x : A x = 0}: a lattice basis over the integers, or,
    when `moduli` are given, the mod-N kernel of solve_diophantine.

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

    Over the integers the solutions are particular + Z-span(kernel). With
    `moduli`, row i is scaled by N/d_i, N = lcm(moduli), into one system
    mod N for solve_mod: the solutions are particular + Z-span(kernel) +
    N*Z^m, with every returned entry in [0, N). Returns None when no
    solution exists (a distinguished outcome, not an error). The
    particular solution and every kernel generator are re-verified
    against the original rows before returning.
    """
    n = len(A)
    if len(b) != n:
        raise ValueError("right-hand side length does not match row count")
    m = len(A[0]) if n else num_cols
    if m is None:
        raise ValueError("num_cols required for a matrix with no rows")

    def satisfies(x, rhs) -> bool:
        residuals = (sum(map(mul, row, x)) - r for row, r in zip(A, rhs))
        return not any(r % d if d else r for r, d in zip(residuals, moduli or [0] * n))

    if moduli is not None:
        if len(moduli) != n or any(d < 1 for d in moduli):
            raise ValueError("moduli must be one positive integer per row")
        N = math.lcm(*moduli)
        scale = [N // d for d in moduli]
        rows = [[s * v for v in row] for s, row in zip(scale, A)]
        (x,), kernel = solve_mod(rows, [list(map(mul, scale, b))], N, m)
        if x is None:
            return None
    else:
        H, U, pivots = _column_echelon(A, m)
        y = [0] * m
        for row, col in pivots:
            rem = b[row] - sum(H[row][j] * y[j] for j in range(col))
            if rem % H[row][col] != 0:
                return None
            y[col] = rem // H[row][col]
        x = tuple(sum(U[i][j] * y[j] for j in range(m)) for i in range(m))
        kernel = [tuple(U[i][j] for i in range(m)) for j in range(len(pivots), m)]
    # rows without a pivot may still be violated; verify the lot exactly
    if not satisfies(x, b):
        return None
    for k in kernel:
        if not satisfies(k, [0] * n):
            raise ArithmeticError(f"kernel vector {k} fails A k = 0")
    return DiophantineSolution(particular=x, kernel=tuple(kernel))
