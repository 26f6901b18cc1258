"""Exact integer linear algebra: linear Diophantine and congruence systems.

Matrices are lists of rows of unbounded Python integers. Every
congruence system goes through one primitive, `solve_mod`: A x = b mod
N for any number of right-hand sides, by a Howell elimination over Z_N
that keeps every entry in [0, N). `solve_diophantine` takes a system
exactly over the integers, where the solution set is particular +
Z-span(kernel). `howell_form` reduces a matrix over Z_N to its Howell
form, and `howell_eliminate` runs the same elimination over Pauli
labels, every row operation a label product. Over Z_2 the elimination
holds each row as one int.
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
    """
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("rows must all have the same length")
    echelon, _ = howell_eliminate([(row, 0) for row in rows], N, n)
    return [tuple(row) for _, (row, _) in echelon]


Row = tuple[list[int], int]


def howell_eliminate(rows: Sequence[Row], N: int, stop: int, L: int = 0):
    """Howell elimination over the first `stop` columns: (echelon, pool).

    A row is a pair (v, a). With L = 0 it is the vector v over Z_N and a
    is 0. With L a multiple of N it is the Pauli label gamma^a Z(z) X(x),
    gamma^L = 1, with v = (x | z), `stop` entries each, chi_z(x) =
    gamma^(w z.x) for w = L/N, and a in [0, L). Per column, the rows with a nonzero entry
    merge into one pivot row by unimodular 2x2 gcd steps; a gcd step
    against the zero row N*e_c makes the pivot g = gcd(a, N) and leaves
    the annihilator (N/g) * pivot row in the pool (Storjohann & Mulders,
    "Fast algorithms for linear algebra modulo N", 1998). So the pool's
    rows, all zero in the first `stop` columns, span every span vector
    that is; echelon lists (pivot column, row) for the pivots there.

    On labels every step is a product of integer powers of rows, in
    closed form with the exact gcd exponents, so no phase relies on a
    row's N-th power being the identity: the pool then generates every
    element of the rows' group whose X part is zero. Over Z_2 each row is
    held as one int and XOR is the row operation; the steps, and so the
    results, are those of the list elimination.
    """
    if N < 1:
        raise ValueError("modulus must be a positive integer")
    return (_howell_bits if N == 2 else _howell_lists)(rows, N, stop, L)


def _howell_lists(rows: Sequence[Row], N: int, stop: int, L: int):
    w = L // N

    def combine(u: Row, s: int, v: Row, t: int) -> Row:
        """u^s v^t: the entries s u + t v, and for labels the phase of the
        product, pauli_pow's closed form per factor and then the rowsum
        (quant-ph/0406196): X(s x) passing Z(t z') costs chi_{z'}(x)^(st)."""
        (x, a), (y, b) = u, v
        row = [(s * p + t * q) % N for p, q in zip(x, y)]
        if not w:
            return row, 0
        xz, yz = x[stop:], y[stop:]
        pair = (
            s * (s - 1) // 2 * sum(map(mul, xz, x))
            + t * (t - 1) // 2 * sum(map(mul, yz, y))
            + s * t * sum(map(mul, yz, x))
        )
        return row, (s * a + t * b - w * pair) % L

    pool = [([v % N for v in x], a) for x, a in rows]
    pool = [row for row in pool if any(row[0]) or row[1]]
    echelon: list[tuple[int, Row]] = []
    for c in range(stop):
        piv = None
        rest = []
        for row in pool:
            b = row[0][c]
            if b == 0:
                rest.append(row)
            elif piv is None:
                piv = row
            else:
                a = piv[0][c]
                g, s, t = _exgcd(a, b)
                p, q = a // g, b // g
                piv, row = combine(piv, s, row, t), combine(row, p, piv, -q)
                if any(row[0]) or row[1]:
                    rest.append(row)
        if piv is not None:
            g, s, _ = _exgcd(piv[0][c], N)
            annihilator = combine(piv, N // g, piv, 0)
            if any(annihilator[0]) or annihilator[1]:
                rest.append(annihilator)
            piv = combine(piv, s, piv, 0)
            for i, (e, row) in enumerate(echelon):
                q = row[0][c] // g
                if q:
                    echelon[i] = e, combine(row, 1, piv, -q)
            echelon.append((c, piv))
        pool = rest
    return echelon, pool


# the binary digit of each byte's parity, and back
_PARITY = bytes(b"01"[i & 1] for i in range(256))
_DIGIT = bytes.maketrans(b"01", b"\x00\x01")


def _howell_bits(rows: Sequence[Row], N: int, stop: int, L: int):
    """_howell_lists over Z_2, each row's entries one int, entry 0 in the
    top bit: a label's X part is then its high half and Z its low half.

    For N = 2 every gcd step has s = 0 and t = p = q = 1: the new row
    becomes the pivot and leaves row * pivot^-1, which is XOR, and the
    annihilator is pivot^2. A label's phases need z.x mod 2 only, as
    w = L/2: the popcount of (z & x), as in Stim (arXiv:2103.02202).
    """
    w = L // 2
    n = len(rows[0][0]) if rows else stop

    def pack(x: list[int]) -> int:
        try:
            digits = bytes(x)
        except ValueError:  # an entry outside [0, 256)
            digits = bytes([v & 1 for v in x])
        return int(digits.translate(_PARITY) or b"0", 2)

    def over(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
        """u * v^-1; the entries of v^-1 are v's, its phase -b - chi_z(x)."""
        x = u[0] ^ v[0]
        if not w:
            return x, 0
        return x, (u[1] - v[1] + w * (v[0] & x >> stop).bit_count()) % L

    pool = [(pack(x), a) for x, a in rows]
    pool = [row for row in pool if row[0] or row[1]]
    echelon: list[tuple[int, tuple[int, int]]] = []
    for c in range(stop):
        bit = 1 << (n - 1 - c)
        piv = None
        rest = []
        for row in pool:
            if not row[0] & bit:
                rest.append(row)
            elif piv is None:
                piv = row
            else:
                piv, row = row, over(row, piv)
                if row[0] or row[1]:
                    rest.append(row)
        if piv is not None:
            if w:
                a = (2 * piv[1] - w * (piv[0] & piv[0] >> stop).bit_count()) % L
                if a:
                    rest.append((0, a))
            for i, (e, row) in enumerate(echelon):
                if row[0] & bit:
                    echelon[i] = e, over(row, piv)
            echelon.append((c, piv))
        pool = rest

    def unpack(row: tuple[int, int]) -> Row:
        return list(format(row[0], f"0{n}b")[:n].encode().translate(_DIGIT)), row[1]

    return [(c, unpack(row)) for c, row in echelon], list(map(unpack, pool))


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
    columns = zip(*A) if n else [()] * m
    rows = [([*c, *[0] * i, 1, *[0] * (m - 1 - i)], 0) for i, c in enumerate(columns)]
    echelon, pool = howell_eliminate(rows, N, n)
    solutions = []
    for b in targets:
        v = [x % N for x in b] + [0] * m
        for c, (row, _) in echelon:
            q = v[c] // row[c]
            if q:
                v = [(x - q * y) % N for x, y in zip(v, row)]
        solutions.append(None if any(v[:n]) else tuple(-x % N for x in v[n:]))
    return solutions, [tuple(row[n:]) for row, _ in pool]


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


def kernel_basis(A: IntMatrix, num_cols: int | None = None) -> list[tuple[int, ...]]:
    """A lattice basis of the integer kernel {x : A x = 0}.

    Args:
        A: coefficient rows; may be empty.
        num_cols: required when A has no rows.
    """
    return list(solve_diophantine(A, [0] * len(A), num_cols).kernel)


def solve_diophantine(
    A: IntMatrix, b: Sequence[int], num_cols: int | None = None
) -> DiophantineSolution | None:
    """Solve A x = b exactly over the integers: particular + Z-span(kernel).

    Returns None when no solution exists (a distinguished outcome, not
    an error). The particular solution and every kernel generator are
    re-verified against the original rows before returning.
    """
    n = len(A)
    if len(b) != n:
        raise ValueError("right-hand side length does not match row count")
    m = len(A[0]) if n else num_cols
    if m is None:
        raise ValueError("num_cols required for a matrix with no rows")

    def satisfies(x, rhs) -> bool:
        return all(sum(map(mul, row, x)) == r for row, r in zip(A, rhs))

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
