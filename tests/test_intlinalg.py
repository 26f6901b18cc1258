"""Integer kernel bases, linear Diophantine systems and congruences mod N.

A congruence system with row moduli d_i is solved by solve_mod as one
system mod N = lcm(d), row i scaled by N/d_i: its solution set is
particular + Z-span(kernel) + N*Z^m, with every returned entry in
[0, N), so the brute-force checks test membership in the lattice
spanned by the kernel plus the N*e_j.
"""

import itertools
import math
import random
from fractions import Fraction
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import normsim.intlinalg as intlinalg
from normsim.intlinalg import (
    DiophantineSolution,
    kernel_basis,
    mod_table,
    pack_bits,
    pack_bytes,
    solve_diophantine,
    solve_mod,
    transpose,
    unpack_bits,
    unpack_bytes,
)


def howell_form(rows, N):
    """The Howell form of the Z_N-span of rows: howell_reduce of their
    echelon, as Subgroup.howell and readout take it."""
    n = len(rows[0]) if rows else 0
    echelon, _ = intlinalg.howell_eliminate([(row, 0) for row in rows], N, n)
    return intlinalg.howell_reduce(echelon, N, n)


def mat_vec(rows, x):
    return [sum(r * v for r, v in zip(row, x)) for row in rows]


def satisfies(rows, x, b, moduli=None):
    """A x = b exactly, or row i mod moduli[i]."""
    moduli = moduli or [0] * len(rows)
    return all(
        (v - bi) % d == 0 if d else v == bi
        for v, bi, d in zip(mat_vec(rows, x), b, moduli)
    )


def solve(rows, b, moduli=None, num_cols=None):
    """A x = b exactly by solve_diophantine, or with row i mod moduli[i]
    by solve_mod, row i scaled by N/d_i into one system mod
    N = lcm(moduli). None when unsolvable."""
    if moduli is None:
        return solve_diophantine(rows, b, num_cols)
    N = math.lcm(*moduli)
    scale = [N // d for d in moduli]
    scaled = [[s * v for v in row] for s, row in zip(scale, rows)]
    (x,), kernel = solve_mod(scaled, [list(map(mul, scale, b))], N, num_cols)
    return None if x is None else DiophantineSolution(x, tuple(kernel))


def random_moduli(rng, n):
    return [rng.randint(1, 9) for _ in range(n)]


def solution_lattice(kernel, m, moduli):
    """The kernel, plus N*e_j for each j when the system is mod N = lcm(moduli)."""
    if moduli is None:
        return list(kernel)
    N = math.lcm(*moduli)
    return list(kernel) + [tuple(N * (i == j) for i in range(m)) for j in range(m)]


def assert_reduced(sol, moduli):
    """Every entry of a congruence solution lies in [0, lcm(moduli))."""
    if moduli is not None:
        N = math.lcm(*moduli)
        assert all(0 <= v < N for vec in (sol.particular, *sol.kernel) for v in vec)


def test_single_equation():
    sol = solve_diophantine([[2, 4]], [6])
    assert sol is not None
    assert mat_vec([[2, 4]], sol.particular) == [6]
    # kernel of [2 4] is generated by (2, -1) up to sign
    assert len(sol.kernel) == 1
    k = sol.kernel[0]
    assert sorted(abs(v) for v in k) == [1, 2]
    assert 2 * k[0] + 4 * k[1] == 0


def test_infeasible_divisibility():
    assert solve_diophantine([[2]], [1]) is None
    assert solve_diophantine([[4, 6]], [3]) is None
    # 2x = 1 mod 4 has no solution; 2x = 2 mod 4 leaves x = 1 mod 2
    assert solve([[2]], [1], [4]) is None
    sol = solve([[2]], [2], [4])
    assert sol is not None
    assert sol.particular[0] % 2 == 1
    assert [abs(k[0]) for k in sol.kernel] == [2]


def test_infeasible_inconsistent_rows():
    # echelon pivots alone would accept this; the residual check must not
    assert solve_diophantine([[1], [1]], [1, 2]) is None
    assert solve_diophantine([[1, 0], [1, 0]], [1, 2]) is None


def test_zero_matrix():
    sol = solve_diophantine([[0, 0]], [0])
    assert sol is not None
    assert sol.particular == (0, 0)
    assert len(sol.kernel) == 2
    assert solve_diophantine([[0, 0]], [5]) is None


def test_wide_and_tall_systems():
    sol = solve_diophantine([[1, 2, 3]], [4])
    assert sol is not None
    assert mat_vec([[1, 2, 3]], sol.particular) == [4]
    assert len(sol.kernel) == 2

    rows = [[1, 0], [0, 2], [1, 2]]
    sol = solve_diophantine(rows, [3, 4, 7])
    assert sol is not None
    assert mat_vec(rows, sol.particular) == [3, 4, 7]
    assert sol.kernel == ()


def test_kernel_members_annihilate():
    for seed, congruence in ((3, False), (5, True)):
        rng = random.Random(seed)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
            moduli = random_moduli(rng, n) if congruence else None
            basis = solve(rows, [0] * n, moduli).kernel
            if congruence:
                N = math.lcm(*moduli)
                assert all(0 <= v < N for k in basis for v in k)
            for k in basis:
                assert len(k) == m
                assert satisfies(rows, k, [0] * n, moduli)


def test_modulus_one_row_is_no_constraint():
    rows = [[3, 5], [0, 2]]
    sol = solve(rows, [7, 1], [1, 6])
    assert sol is None  # 2y = 1 mod 6 is unsolvable whatever the first row
    sol = solve(rows, [7, 4], [1, 6])
    assert sol is not None
    assert satisfies(rows, sol.particular, [7, 4], [1, 6])
    # x is free and y is fixed mod 3
    for delta in [(1, 0), (0, 3)]:
        assert in_lattice(sol.kernel, delta)
    assert not in_lattice(sol.kernel, (0, 1))


def test_a_solution_failing_the_recheck_is_a_fault_not_none():
    """The elimination checks every row, so a particular solution or a
    kernel vector that fails the exact re-check is an internal fault."""
    with mock.patch.object(intlinalg, "_solve", lambda *args: ([(0,)], [])):
        with pytest.raises(ArithmeticError):
            solve_diophantine([[1]], [1])
    with mock.patch.object(intlinalg, "_solve", lambda *args: ([(1,)], [(1,)])):
        with pytest.raises(ArithmeticError):
            solve_diophantine([[1]], [1])


def test_right_hand_side_must_match_rows():
    with pytest.raises(ValueError):
        solve_diophantine([[1]], [0, 0])
    with pytest.raises(ValueError):
        kernel_basis([])


def test_unconstrained_kernel_spans_everything():
    for moduli in (None, []):
        sol = solve([], [], moduli, num_cols=3)
        assert sol is not None
        assert sol.particular == (0, 0, 0)
        # no rows: N = lcm() = 1, so N*e_j alone spans everything
        assert len(sol.kernel) == (3 if moduli is None else 0)
        for unit in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            assert in_lattice(solution_lattice(sol.kernel, 3, moduli), unit)
    assert tuple(kernel_basis([], num_cols=3)) == solve_diophantine([], [], 3).kernel
    with pytest.raises(ValueError):
        solve([], [], [])


def brute_solutions(rows, b, m, lo=-8, hi=8, moduli=None):
    out = set()
    for x in itertools.product(range(lo, hi + 1), repeat=m):
        if satisfies(rows, x, b, moduli):
            out.add(x)
    return out


def in_lattice(kernel, delta):
    if all(v == 0 for v in delta):
        return True
    if not kernel:
        return False
    rows = [[k[i] for k in kernel] for i in range(len(delta))]
    sol = solve_diophantine(rows, list(delta))
    if sol is None:
        return False
    # recheck by hand so a wrong coefficient vector cannot slip through
    got = [sum(k[i] * c for k, c in zip(kernel, sol.particular)) for i in range(len(delta))]
    return got == list(delta)


def test_solution_set_matches_brute_force():
    for seed, congruence in ((17, False), (19, True)):
        rng = random.Random(seed)
        for _ in range(60):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
            moduli = random_moduli(rng, n) if congruence else None
            x0 = [rng.randint(-2, 2) for _ in range(m)]
            b = mat_vec(rows, x0)  # feasible by construction
            sol = solve(rows, b, moduli)
            assert sol is not None
            assert satisfies(rows, sol.particular, b, moduli)
            assert_reduced(sol, moduli)
            lattice = solution_lattice(sol.kernel, m, moduli)
            for s in brute_solutions(rows, b, m, moduli=moduli):
                delta = [si - pi for si, pi in zip(s, sol.particular)]
                assert in_lattice(lattice, delta)


def test_none_means_no_solutions_in_box():
    # moduli stay below the box width, so a congruence box holds every
    # residue class and None must mean no solution at all
    for seed, congruence in ((29, False), (31, True)):
        rng = random.Random(seed)
        checked = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            m = rng.randint(1, 2)
            rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
            moduli = random_moduli(rng, n) if congruence else None
            b = [rng.randint(-6, 6) for _ in range(n)]
            sol = solve(rows, b, moduli)
            if sol is None:
                checked += 1
                assert not brute_solutions(rows, b, m, -12, 12, moduli)
            else:
                assert satisfies(rows, sol.particular, b, moduli)
        assert checked > 20


def span_mod(rows, N, n):
    """Every Z_N-combination of `rows`, as a set of n-tuples."""
    zero = (0,) * n
    span, frontier = {zero}, [zero]
    while frontier:
        cur = frontier.pop()
        for row in rows:
            nxt = tuple((a + b) % N for a, b in zip(cur, row))
            if nxt not in span:
                span.add(nxt)
                frontier.append(nxt)
    return span


def pivot(row):
    return next(c for c, v in enumerate(row) if v)


def test_howell_form_frozen():
    # 2 * (2, 1) = (0, 2) mod 4 is in the span but starts at column 1;
    # the Howell property needs it as a row of its own
    assert howell_form([[2, 1]], 4) == [(2, 1), (0, 2)]
    assert howell_form([[3, 5], [6, 7]], 1) == []
    assert howell_form([], 5) == []


def test_howell_form_matches_brute_force():
    rng = random.Random(43)
    for _ in range(300):
        N = rng.choice([2, 4, 6, 8, 9, 12])
        n = rng.randint(1, 4)
        rows = [
            [rng.randrange(-N, 2 * N) for _ in range(n)]
            for _ in range(rng.randint(1, 3))
        ]
        howell = howell_form(rows, N)
        span = span_mod(rows, N, n)
        assert span_mod(howell, N, n) == span
        pivots = [pivot(r) for r in howell]
        assert pivots == sorted(set(pivots))
        for i, (r, c) in enumerate(zip(howell, pivots)):
            assert all(0 <= v < N for v in r)
            assert N % r[c] == 0
            assert all(above[c] < r[c] for above in howell[:i])
        for k in range(n + 1):
            tail = [r for r, c in zip(howell, pivots) if c >= k]
            vanishing = {v for v in span if not any(v[:k])}
            assert span_mod(tail, N, n) == vanishing


def test_solve_mod_matches_brute_force():
    """Several targets per system, a third of them random and so often
    unsolvable: None exactly when no x in [0, N)^m solves A x = b, and
    otherwise the solutions are x + Z_N-span(kernel)."""
    rng = random.Random(47)
    unsolvable = 0
    for _ in range(150):
        N = rng.choice([1, 2, 4, 6, 8, 9, 12])
        n, m = rng.randint(0, 3), rng.randint(1, 3)
        A = [[rng.randrange(-N, 2 * N) for _ in range(m)] for _ in range(n)]
        targets = [
            [rng.randrange(N) for _ in range(n)]
            if rng.random() < 1 / 3
            else mat_vec(A, [rng.randrange(N) for _ in range(m)])
            for _ in range(rng.randint(1, 4))
        ]
        solutions, kernel = solve_mod(A, targets, N, m)
        assert len(solutions) == len(targets)
        assert all(0 <= v < N for vec in kernel for v in vec)
        span = span_mod(kernel, N, m)
        for b, x in zip(targets, solutions):
            brute = {
                v for v in itertools.product(range(N), repeat=m)
                if all((r - t) % N == 0 for r, t in zip(mat_vec(A, v), b))
            }
            if x is None:
                unsolvable += 1
                assert not brute
                continue
            assert all(0 <= v < N for v in x)
            assert {tuple((a + k) % N for a, k in zip(x, vec)) for vec in span} == brute
    assert unsolvable > 20


def test_solve_mod_checks_its_shapes():
    assert solve_mod([], [[]], 5, 2) == ([(0, 0)], [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        solve_mod([], [], 5)
    with pytest.raises(ValueError):
        solve_mod([[1]], [[0]], 0)
    with pytest.raises(ValueError):
        solve_mod([[1, 2]], [[0, 1]], 5)


@st.composite
def z2_systems(draw):
    """A matrix with 0 to 12 rows of 0 to 40 entries, the empty matrix and
    all-zero rows included; entries are 0/1, or, in one draw of four, any
    int in [-3, 300], which Z_2 reduces to its parity."""
    n, m = draw(st.integers(0, 12)), draw(st.integers(0, 40))
    entry = st.integers(-3, 300) if draw(st.integers(0, 3)) == 0 else st.integers(0, 1)
    row = st.one_of(st.just([0] * m), st.lists(entry, min_size=m, max_size=m))
    A = draw(st.lists(row, min_size=n, max_size=n))
    targets = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
    return A, targets, m


@settings(max_examples=200)
@given(st.data())
def test_bit_rows_unpack_to_their_entries_mod_2(data):
    """pack_bits then unpack_bits is the identity on 0/1 rows of every
    width from 1 to 1,100, entry 0 in the top bit; entries in [2, 256)
    and outside [0, 256), negative ones too, come back reduced mod 2."""
    n = data.draw(st.integers(1, 1100), label="width")
    bits = data.draw(st.integers(0, 2**n - 1), label="bits")
    row = [bits >> (n - 1 - j) & 1 for j in range(n)]
    anywhere = st.one_of(st.integers(2, 255), st.integers(-(2**70), 2**70))
    moves = st.lists(st.tuples(st.integers(0, n - 1), anywhere), max_size=4)
    for j, v in data.draw(moves, label="entries past 0/1"):
        row[j] = v
    packed = pack_bits(row)
    assert packed == sum((v % 2) << (n - 1 - j) for j, v in enumerate(row))
    assert list(unpack_bits(packed, n)) == [v % 2 for v in row]


@st.composite
def byte_matrices(draw):
    """(rows, n): R >= 0 rows of n >= 0 bytes each."""
    n = draw(st.integers(0, 40))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(bytes)
    row = st.binary(min_size=n, max_size=n) | bits
    return draw(st.lists(row, max_size=40)), n


@settings(max_examples=200)
@given(byte_matrices())
@example(([], 5))  # no rows
@example(([b"\x01", b"\x00", b"\x01"], 1))  # one column
@example(([], 1))
def test_transpose_twice_is_the_identity(case):
    """transpose gives column j as the bytes rows[r][j] over r, and back;
    over 0/1 entries its columns packed as bit rows, row 0 on top, unpack
    to the same columns, as the bit tableau's set-up and readout use them."""
    rows, n = case
    columns = transpose(rows, n)
    assert columns == [bytes(row[j] for row in rows) for j in range(n)]
    assert transpose(columns, len(rows)) == rows
    if rows and all(set(row) <= {0, 1} for row in rows):
        packed = list(map(pack_bits, columns))
        assert [unpack_bits(c, len(rows)) for c in packed] == columns


@settings(max_examples=50)
@given(st.data())
def test_byte_rows_and_mod_tables_are_exact(data):
    """pack_bytes then unpack_bytes is the identity on rows of widths 0 to
    1,100, entry j in byte j; packed rows add field by field while no
    field passes 255; and for every d in 2..128 the table mod_table(d)
    takes each byte mod d."""
    n = data.draw(st.integers(0, 1100), label="width")
    row = list(data.draw(st.binary(min_size=n, max_size=n), label="row"))
    packed = pack_bytes(row)
    assert packed == sum(v << 8 * j for j, v in enumerate(row))
    assert unpack_bytes(packed, n) == bytes(row)
    raw = data.draw(st.binary(min_size=n, max_size=n), label="other")
    other = [r % (256 - v) for r, v in zip(raw, row)]
    total = unpack_bytes(packed + pack_bytes(other), n)
    assert total == bytes(map(sum, zip(row, other)))
    for d in range(2, 129):
        table = mod_table(d)
        assert list(table) == [b % d for b in range(256)]
        assert unpack_bytes(packed, n).translate(table) == bytes(v % d for v in row)


def list_elimination():
    """Route howell_eliminate and howell_reduce to the list paths, whatever N."""
    return mock.patch.multiple(
        intlinalg,
        howell_eliminate=lambda rows, N, stop, L=0: intlinalg._howell_lists(
            rows, N, stop, L
        ),
        howell_reduce=intlinalg._reduce_lists,
    )


def assert_packed_is_list(rows, stop, L):
    """The packed elimination and reduction over Z_2 give exactly the list
    paths' echelon, pool and reduced rows."""
    echelon, pool = intlinalg._howell_lists(rows, 2, stop, L)
    assert intlinalg._howell_bits(rows, 2, stop, L) == (echelon, pool)
    reduced = intlinalg._reduce_lists(echelon, 2, stop)
    assert intlinalg._reduce_bits(echelon, 2, stop) == reduced


@settings(max_examples=200)
@given(z2_systems())
def test_packed_z2_elimination_is_the_list_elimination(case):
    """solve_mod and howell_form over Z_2 return exactly what the list
    elimination returns: the same solutions, kernel and Howell rows."""
    A, targets, m = case
    packed = solve_mod(A, targets, 2, m), howell_form(A, 2)
    with list_elimination():
        assert (solve_mod(A, targets, 2, m), howell_form(A, 2)) == packed
    # the elimination itself, over a leading block of the columns
    assert_packed_is_list([(row, 0) for row in A], len(A[0]) // 2 if A else 0, 0)


@settings(max_examples=200)
@given(st.data())
def test_packed_z2_label_elimination_is_the_list_elimination(data):
    """On label rows (x | z, a) the two paths take the same label
    products, so they agree on every row and phase, scalar rows included."""
    k = data.draw(st.integers(0, 20))
    L = 2 ** data.draw(st.integers(1, 30))
    bits = st.lists(st.integers(0, 1), min_size=2 * k, max_size=2 * k)
    rows = data.draw(st.lists(st.tuples(bits, st.integers(0, L - 1)), max_size=24))
    assert_packed_is_list(rows, k, L)


@settings(max_examples=200)
@given(st.data())
def test_reduced_label_block_is_the_howell_form_of_the_x_parts(data):
    """On label rows (x | z, a) over Z_N, the echelon is left unreduced;
    howell_reduce's leading block is the Howell form of the X parts."""
    N = data.draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12]))
    k = data.draw(st.integers(0, 6))
    L = N * data.draw(st.sampled_from([0, 1, 2, 4]))
    vec = st.lists(st.integers(0, N - 1), min_size=2 * k, max_size=2 * k)
    phase = st.integers(0, L - 1) if L else st.just(0)
    rows = data.draw(st.lists(st.tuples(vec, phase), max_size=10))
    echelon, _ = intlinalg.howell_eliminate(rows, N, k, L)
    x_parts = [v[:k] for v, _ in rows]
    assert intlinalg.howell_reduce(echelon, N, k) == howell_form(x_parts, N)


@settings(max_examples=200)
@given(st.data())
def test_solve_mod_solves_non_unique_systems_exactly(data):
    """With more unknowns than equations the kernel is not trivial, and
    each solution reduced against the unreduced echelon still satisfies
    its target exactly; the targets are images A x, so all are solvable."""
    N = data.draw(st.integers(2, 12))
    n = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(n + 1, 12))
    row = st.lists(st.integers(-N, 2 * N), min_size=m, max_size=m)
    A = data.draw(st.lists(row, min_size=n, max_size=n))
    targets = [mat_vec(A, x) for x in data.draw(st.lists(row, min_size=1, max_size=4))]
    solutions, kernel = solve_mod(A, targets, N)
    assert kernel
    for b, x in zip(targets, solutions):
        assert x is not None
        assert all((v - t) % N == 0 for v, t in zip(mat_vec(A, x), b))


def rank_over_q(rows, m):
    """The rank of rows of m entries over Q, by Fraction elimination."""
    rows = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for c in range(m):
        piv = next((r for r in rows if r[c]), None)
        if piv is None:
            continue
        rows.remove(piv)
        rows = [[a - r[c] / piv[c] * p for a, p in zip(r, piv)] for r in rows]
        rank += 1
    return rank


@st.composite
def integer_systems(draw):
    """(A, x0, stop): A with 1 to 8 rows of 1 to 8 entries in [-9, 9], a
    point x0 with entries in the same range, and a column count stop."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    row = st.lists(st.integers(-9, 9), min_size=m, max_size=m)
    A = draw(st.lists(row, min_size=n, max_size=n))
    return A, draw(row), draw(st.integers(0, m))


@settings(max_examples=200)
@given(integer_systems())
@example(([[0, 0], [0, 0]], [3, -4], 2))  # no pivot at all
@example(([[2, 4, -6], [-3, -6, 9]], [1, 1, 1], 3))  # rank 1, negative pivots
# dense 8 x 8 of rank 7
@example(([[(3 * i + 5 * j) % 19 - 9 for j in range(8)] for i in range(8)], [1] * 8, 5))
def test_diophantine_systems_up_to_8x8_are_solved_exactly(case):
    """For b = A x0 the particular solution and the kernel are exact, x0
    differs from the particular by a Z-combination of the kernel, and the
    kernel has m - rank(A) vectors, the rank over Q. The elimination over
    Z (N = 0) of A's rows over `stop` columns leaves positive pivots in
    increasing columns, each row zero before its pivot, a pool zero in
    those columns, and rows that span exactly the lattice of A's rows."""
    A, x0, stop = case
    m = len(x0)
    b = mat_vec(A, x0)
    sol = solve_diophantine(A, b)
    assert sol is not None
    assert mat_vec(A, sol.particular) == b
    assert all(not any(mat_vec(A, k)) for k in sol.kernel)
    assert len(sol.kernel) == m - rank_over_q(A, m)
    assert in_lattice(sol.kernel, [u - v for u, v in zip(x0, sol.particular)])

    echelon, pool = intlinalg.howell_eliminate([(row, 0) for row in A], 0, stop)
    columns = [c for c, _ in echelon]
    assert columns == sorted(set(columns))
    for c, (row, _) in echelon:
        assert row[c] > 0 and not any(row[:c])
    assert all(not any(row[:stop]) for row, _ in pool)
    rows = [tuple(row) for _, (row, _) in echelon] + [tuple(row) for row, _ in pool]
    assert all(in_lattice(rows, row) for row in A)
    assert all(in_lattice(A, row) for row in rows)
