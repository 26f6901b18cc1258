"""Exact integer linear algebra: linear Diophantine and congruence systems.

Matrices are lists of rows of unbounded Python integers. Every
congruence system goes through one primitive, `solve_mod`: A x = b mod
N for any number of right-hand sides, by a Howell elimination over Z_N
that keeps every entry in [0, N). `solve_diophantine` takes a system
exactly over the integers, where the solution set is particular +
Z-span(kernel). `howell_eliminate` runs the elimination, over labels
too, and leaves its echelon unreduced: `solve_mod` needs no reduction,
and `howell_reduce` reduces it for `howell_form` and readout, the
callers that read the canonical form.

Packed rows are the formats the Z_2 elimination, the bit tableau and the
sampler share: a bit row holds n entries mod 2 in one int, entry 0 in the
top bit, as Stim's tables do (arXiv:2103.02202), a byte row entries in
[0, 256), entry j in byte j; `transpose` turns rows into columns and back.
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
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g; s is
    the extended Euclid's, and t follows from it."""
    old_r, r = a, b
    old_s, s = 1, 0
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    if old_r < 0:
        old_r, old_s = -old_r, -old_s
    return old_r, old_s, (old_r - old_s * a) // b if b else 0


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
    return howell_reduce(howell_eliminate([(row, 0) for row in rows], N, n)[0], N, n)


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
    that is; echelon lists (pivot column, row) for the pivots there, each
    a divisor of N, its row not reduced against later pivots.

    On labels every step is a product of integer powers of rows, in
    closed form with the exact gcd exponents, so no phase relies on a
    row's N-th power being the identity: the pool then generates every
    element of the rows' group whose X part is zero. Over Z_2 the same
    steps run on bit rows, XOR the row operation, with the same results.
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

    # phases are reduced on entry as combine reduces them, so a step
    # skipped as the identity stores what combine would have
    pool = [([v % N for v in x], a % L if L else 0) for x, a in rows]
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
                # (s, t) = (1, 0): the pivot divides b and stays as it is
                piv, row = (
                    piv if (s, t) == (1, 0) else combine(piv, s, row, t),
                    combine(row, p, piv, -q),
                )
                if any(row[0]) or row[1]:
                    rest.append(row)
        if piv is not None:
            g, s, _ = _exgcd(piv[0][c], N)
            annihilator = combine(piv, N // g, piv, 0)
            if any(annihilator[0]) or annihilator[1]:
                rest.append(annihilator)
            if s != 1:
                piv = combine(piv, s, piv, 0)
            echelon.append((c, piv))
        pool = rest
    return echelon, pool


_PARITY = bytes(b"01"[i & 1] for i in range(256))  # each byte's parity digit
_DIGIT = bytes.maketrans(b"01", b"\x00\x01")  # and back


def pack_bits(row: Sequence[int]) -> int:
    """The entries of row mod 2 as one bit row."""
    try:
        digits = bytes(row)
    except ValueError:  # an entry outside [0, 256)
        digits = bytes([v & 1 for v in row])
    return int(digits.translate(_PARITY) or b"0", 2)


def unpack_bits(packed: int, n: int) -> bytes:
    """The n >= 1 entries of a bit row, each 0 or 1."""
    return format(packed, f"0{n}b").encode().translate(_DIGIT)


def transpose(rows: Sequence[Sequence[int]], n: int) -> list[bytes]:
    """The n columns of rows of n entries in [0, 256), each as bytes."""
    flat = b"".join(map(bytes, rows))
    return [flat[j::n] for j in range(n)]


def pack_bytes(row: Sequence[int]) -> int:
    """Entries in [0, 256) as one byte row."""
    return int.from_bytes(row, "little")


def unpack_bytes(packed: int, n: int) -> bytes:
    """The n entries of a byte row."""
    return packed.to_bytes(n, "little")


def mod_table(d: int) -> bytes:
    """The bytes.translate table that takes each byte mod d."""
    return bytes(b % d for b in range(256))


def _howell_bits(rows: Sequence[Row], N: int, stop: int, L: int):
    """_howell_lists over Z_2 on bit rows: a label's X part is then the
    high half of its row and Z the low half.

    For N = 2 every gcd step has s = 0 and t = p = q = 1: the new row
    becomes the pivot and leaves row * pivot^-1, which is XOR, and the
    annihilator is pivot^2. A label's phases need z.x mod 2 only, as
    w = L/2: the popcount of (z & x), as in Stim (arXiv:2103.02202).
    """
    w = L // 2
    n = len(rows[0][0]) if rows else stop

    def over(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
        """u * v^-1; the entries of v^-1 are v's, its phase -b - chi_z(x)."""
        x = u[0] ^ v[0]
        if not w:
            return x, 0
        return x, (u[1] - v[1] + w * (v[0] & x >> stop).bit_count()) % L

    pool = [(pack_bits(x), a % L if L else 0) for x, a in rows]
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
            echelon.append((c, piv))
        pool = rest
    echelon = [(c, (list(unpack_bits(x, n)), a)) for c, (x, a) in echelon]
    return echelon, [(list(unpack_bits(x, n)), a) for x, a in pool]


def howell_reduce(echelon, N: int, stop: int) -> list[tuple[int, ...]]:
    """The leading `stop` entries of howell_eliminate's echelon rows, each
    reduced below the later pivots in one pass: the unique Howell form."""
    return (_reduce_bits if N == 2 else _reduce_lists)(echelon, N, stop)


def _reduce_lists(echelon, N: int, stop: int) -> list[tuple[int, ...]]:
    rows = [v[:stop] for _, (v, _) in echelon]
    for i, x in enumerate(rows):
        for (c, _), y in zip(echelon[i + 1 :], rows[i + 1 :]):
            q = x[c] // y[c]
            if q:
                x = [(a - q * b) % N for a, b in zip(x, y)]
        rows[i] = tuple(x)
    return rows


def _reduce_bits(echelon, N: int, stop: int) -> list[tuple[int, ...]]:
    bits = [1 << (stop - 1 - c) for c, _ in echelon]
    rows = [pack_bits(v[:stop]) for _, (v, _) in echelon]
    for i, x in enumerate(rows):
        for bit, y in zip(bits[i + 1 :], rows[i + 1 :]):
            if x & bit:
                x ^= y
        rows[i] = x
    return [tuple(unpack_bits(x, stop)) for x in rows]


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
    (0 | -x) exactly when b = A x is reachable: by the Howell property a
    span vector zero before column c has a multiple of pivot c there.
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
