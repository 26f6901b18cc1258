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
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normsim.intlinalg as intlinalg
from normsim.intlinalg import (
    DiophantineSolution,
    howell_form,
    kernel_basis,
    solve_diophantine,
    solve_mod,
)


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
    with pytest.raises(ValueError):
        howell_form([[1]], 0)
    with pytest.raises(ValueError):
        howell_form([[1, 2], [3]], 5)


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


def list_elimination():
    """Route howell_eliminate to the list path, whatever N."""
    return mock.patch.object(
        intlinalg, "howell_eliminate",
        lambda rows, N, stop, L=0: intlinalg._howell_lists(rows, N, stop, L),
    )


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
    rows = [(row, 0) for row in A]
    stop = len(A[0]) // 2 if A else 0
    expected = intlinalg._howell_lists(rows, 2, stop, 0)
    assert intlinalg._howell_bits(rows, 2, stop, 0) == expected


@settings(max_examples=200)
@given(st.data())
def test_packed_z2_label_elimination_is_the_list_elimination(data):
    """On label rows (x | z, a) the two paths take the same label
    products, so they agree on every row and phase, scalar rows included."""
    k = data.draw(st.integers(0, 20))
    L = 2 ** data.draw(st.integers(1, 30))
    bits = st.lists(st.integers(0, 1), min_size=2 * k, max_size=2 * k)
    rows = data.draw(st.lists(st.tuples(bits, st.integers(0, L - 1)), max_size=24))
    expected = intlinalg._howell_lists(rows, 2, k, L)
    assert intlinalg._howell_bits(rows, 2, k, L) == expected
