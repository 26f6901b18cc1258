"""End-to-end acceptance checks for the exact simulator.

Each test is one acceptance gate. Run with -v to get one pass/fail
line per gate. Comparison tolerance for probabilities and matrix
entries is 1e-9; norm checks use 1e-12; label arithmetic is exact.
"""

import itertools
import math
import random
import time
from collections import Counter

import numpy as np

from helpers import (
    element_at,
    quad_product,
    quad_trivial,
    quad_validate_exhaustive,
    to_complex,
)
from normsim.affine import PermutationSpec, affine_test, modexp_permutation
from normsim.circuits import parse_circuit, random_instance
from normsim.engine import (
    AutomorphismGate,
    CosetInput,
    FourierGate,
    PauliGate,
    QuadraticGate,
    sample_stream,
    simulate,
)
from normsim.groups import AbelianGroup, character_exponent
from normsim.homs import (
    Subgroup,
    auto_inverse,
    endo_validate,
    orthogonal_subgroup,
    subgroup_members,
)
from normsim.intlinalg import solve_diophantine
from normsim.oracle import (
    apply_circuit,
    coset_state,
    compare_with_engine,
    eigenvector_check,
    gate_matrix,
)
from normsim.pauli import (
    pauli_dagger,
    pauli_identity,
    pauli_label,
    pauli_mul,
    pauli_pow,
)
from normsim.quadratic import (
    QuadraticEncoding,
    extract_endo,
    quad_character,
    quad_cross,
    quad_eval,
    quad_from_endo,
    quad_half,
    quad_square,
    triangle,
)

TOL = 1e-9
NORM_TOL = 1e-12

SMALL_GROUPS = [
    AbelianGroup(m)
    for m in [
        (2,),
        (3,),
        (4,),
        (2, 2),
        (5,),
        (6,),
        (8,),
        (2, 4),
        (3, 3),
        (2, 2, 2),
        (12,),
        (2, 3, 4),
        (4, 4),
        (2, 16),
        (6, 6),
        (64,),
    ]
]


def rand_element(group, rng):
    return group.element(tuple(rng.randrange(d) for d in group.moduli))


def rand_pauli(group, rng):
    return pauli_label(
        group,
        rng.randrange(group.phase_modulus),
        [rng.randrange(d) for d in group.moduli],
        [rng.randrange(d) for d in group.moduli],
    )


# ---------------------------------------------------------------- gate 1


def test_01_random_circuits_match_dense_oracle():
    """200 seeded random circuits, group order up to 512, 12 gates max."""
    t0 = time.time()
    for seed in range(200):
        text = random_instance(seed, max_order=512, n_gates=1 + seed % 12)
        circ = parse_circuit(text)
        report = compare_with_engine(circ.coset, circ.gates, tol=TOL)
        assert report.passed, f"seed {seed}: {report.summary()}"
    assert time.time() - t0 < 60.0


# ---------------------------------------------------------------- gate 2


def qubit_circuit(n, seed):
    """Random H/CNOT/CZ/phase circuit on n qubit factors."""
    rng = random.Random(seed)
    g = AbelianGroup((2,) * n)
    half = g.order // 2
    gens = tuple(rand_element(g, rng) for _ in range(rng.randint(0, 2)))
    coset = CosetInput(g, gens, rand_element(g, rng))
    gates = []
    for _ in range(4 + rng.randrange(5)):
        kind = rng.choice(["h", "cnot", "cz", "s"])
        if n == 1 and kind in ("cnot", "cz"):
            kind = "h"
        if kind == "h":
            gates.append(FourierGate(g, (rng.randrange(n),)))
        elif kind == "cnot":
            c, t = rng.sample(range(n), 2)
            cols = [[1 if r == j else 0 for r in range(n)] for j in range(n)]
            cols[c][t] = 1
            gates.append(AutomorphismGate(endo_validate(g, cols)))
        elif kind == "cz":
            i, j = sorted(rng.sample(range(n), 2))
            gates.append(QuadraticGate(quad_cross(g, i, j, 1)))
        else:
            t = rng.randrange(n)
            n_diag = tuple(half if k == t else 0 for k in range(n))
            n_pair = tuple(
                n_diag[i] + n_diag[j]
                for i in range(n)
                for j in range(i + 1, n)
            )
            enc = QuadraticEncoding(g, n_diag, n_pair, (0,) * n)
            gates.append(QuadraticGate(enc))
    return coset, gates


def test_02_qubit_clifford_circuits_match_dense_oracle():
    """100 random circuits from {H, CNOT, CZ, diag(1,i)} on 1..6 qubits."""
    for seed in range(100):
        n = 1 + seed % 6
        coset, gates = qubit_circuit(n, seed)
        report = compare_with_engine(coset, gates, tol=TOL)
        assert report.passed, f"seed {seed}: {report.summary()}"


# ---------------------------------------------------------------- gate 3


def test_03_pauli_label_arithmetic_matches_dense():
    """500 random label pairs: mul, pow, dagger against dense matrices."""
    rng = random.Random(2024)
    groups = [g for g in SMALL_GROUPS if g.order <= 64]
    pairs_done = 0
    while pairs_done < 500:
        g = groups[pairs_done % len(groups)]
        s, t = rand_pauli(g, rng), rand_pauli(g, rng)
        ms, mt = gate_matrix(PauliGate(s)), gate_matrix(PauliGate(t))
        assert np.max(np.abs(gate_matrix(PauliGate(pauli_mul(s, t))) - ms @ mt)) < TOL
        n = rng.randrange(-3, 6)
        dense_pow = np.linalg.matrix_power(ms, n)
        assert np.max(np.abs(gate_matrix(PauliGate(pauli_pow(s, n))) - dense_pow)) < TOL
        assert np.max(np.abs(gate_matrix(PauliGate(pauli_dagger(s))) - ms.conj().T)) < TOL
        # label-level identities hold exactly
        assert pauli_dagger(s) == pauli_pow(s, g.phase_modulus - 1)
        assert pauli_mul(s, pauli_dagger(s)) == pauli_identity(g)
        acc = pauli_identity(g)
        for k in range(4):
            assert acc == pauli_pow(s, k)
            acc = pauli_mul(acc, s)
        pairs_done += 1


# ---------------------------------------------------------------- gate 4


def gate_variants(group, rng):
    m = group.num_factors
    out = [FourierGate(group, tuple(range(m)))]
    out.append(FourierGate(group, tuple(range(m)), inverse=True))
    for i in range(m):
        out.append(FourierGate(group, (i,)))
    out.append(FourierGate(group, (0,), inverse=True))
    if m >= 2:
        out.append(FourierGate(group, (0, m - 1)))
    # automorphisms: unit multiplications, shears, and their mixes
    for i, d in enumerate(group.moduli):
        a = d - 1  # always a unit
        cols = [
            [(a if r == j == i else (1 if r == j else 0)) for r in range(m)]
            for j in range(m)
        ]
        out.append(AutomorphismGate(endo_validate(group, cols)))
    if m >= 2:
        i, j = 0, 1
        c = group.moduli[i] // math.gcd(group.moduli[j], group.moduli[i])
        cols = [[1 if r == k else 0 for r in range(m)] for k in range(m)]
        cols[j][i] = c % group.moduli[i]
        out.append(AutomorphismGate(endo_validate(group, cols)))
    # quadratic gates from every builder family
    for i, d in enumerate(group.moduli):
        out.append(QuadraticGate(quad_character(group, i, 1)))
        out.append(QuadraticGate(quad_square(group, i, 1)))
        out.append(QuadraticGate(quad_half(group, i, d - 1)))
    for i in range(m):
        for j in range(i + 1, m):
            step = group.moduli[j] // math.gcd(group.moduli[i], group.moduli[j])
            out.append(QuadraticGate(quad_cross(group, i, j, step)))
    cols = []
    for i, d in enumerate(group.moduli):
        col = []
        for k, dk in enumerate(group.moduli):
            step = dk // math.gcd(d, dk)
            col.append(step * rng.randrange(dk // step))
        cols.append(col)
    out.append(QuadraticGate(quad_from_endo(endo_validate(group, cols))))
    for _ in range(2):
        out.append(PauliGate(rand_pauli(group, rng)))
    return out


def test_04_gate_conjugation_matches_dense():
    """U sigma U* equals the predicted label for every gate variant,
    exhaustively over single-generator X and Z labels."""
    rng = random.Random(4096)
    for group in SMALL_GROUPS:
        if group.order > 64:
            continue
        m = group.num_factors
        sigmas = []
        for i in range(m):
            unit = [1 if k == i else 0 for k in range(m)]
            zero = [0] * m
            sigmas.append(pauli_label(group, 0, zero, unit))  # X(e^i)
            sigmas.append(pauli_label(group, 0, unit, zero))  # Z(e^i)
        for gate in gate_variants(group, rng):
            u = gate_matrix(gate)
            for s in sigmas:
                lhs = u @ gate_matrix(PauliGate(s)) @ u.conj().T
                rhs = gate_matrix(PauliGate(gate.conjugate(s)))
                assert np.max(np.abs(lhs - rhs)) < TOL, (
                    f"{group}: {type(gate).__name__} on {s}"
                )


# ---------------------------------------------------------------- gate 5


def test_05_orthogonal_subgroup_duality():
    """|H| * |H-perp| = group order and double-perp returns H,
    for 100 random subgroups of groups with order up to 1024."""
    rng = random.Random(77)
    for _ in range(100):
        while True:
            mods = tuple(
                rng.choice([2, 3, 4, 5, 6, 8, 9, 12, 16])
                for _ in range(rng.randint(1, 4))
            )
            if math.prod(mods) <= 1024:
                break
        g = AbelianGroup(mods)
        gens = tuple(rand_element(g, rng) for _ in range(rng.randint(0, 3)))
        h = Subgroup(g, gens)
        perp = orthogonal_subgroup(h)
        mh = subgroup_members(h)
        mperp = subgroup_members(perp)
        assert len(mh) * len(mperp) == g.order
        for a in itertools.islice(mh, 16):
            for b in itertools.islice(mperp, 16):
                assert character_exponent(a, b) == 0
        assert subgroup_members(orthogonal_subgroup(perp)) == mh


# ---------------------------------------------------------------- gate 6

BOX = 20


def column_echelon_local(cols, m):
    """Test-local integer column reduction, kept independent of the
    library: returns echelon columns spanning the same lattice."""
    work = [list(c) for c in cols]
    placed = []
    row = 0
    while row < m and work:
        live = [c for c in work if any(c[row:])]
        work = live
        if not work:
            break
        # euclid on the entries of the current row
        while sum(1 for c in work if c[row]) > 1:
            work.sort(key=lambda c: (c[row] == 0, abs(c[row])))
            lead = work[0]
            for c in work[1:]:
                if c[row]:
                    q = c[row] // lead[row]
                    for r in range(m):
                        c[r] -= q * lead[r]
        work.sort(key=lambda c: (c[row] == 0, abs(c[row])))
        if work[0][row]:
            col = work.pop(0)
            if col[row] < 0:
                col = [-v for v in col]
            placed.append((row, col))
        row += 1
    return placed


def lattice_members(placed, deltas):
    """For each column of deltas (m x P), whether it lies in the lattice
    of the placed columns: the reduction of column_echelon_local's
    echelon, run on every column at once. Entries stay below 10^4 here;
    the check keeps int64 from wrapping unseen."""
    rem = deltas.copy()
    member = np.ones(rem.shape[1], dtype=bool)
    for row, col in placed:
        member &= rem[row] % col[row] == 0
        rem -= np.outer(col, rem[row] // col[row])
        assert np.abs(rem).max(initial=0) < 2**31
    return member & ~rem.any(axis=0)


def box_solutions(rows, b, heads):
    """Every x in [-BOX, BOX]^m with A x = b, as an m x P array. Only the
    first m - 1 coordinates are enumerated (heads[m - 1]); the last one
    is solved for from the first row that has it, and checked on all."""
    a = np.array(rows, dtype=np.int64)
    head = heads[a.shape[1] - 1]
    rest = np.array(b, dtype=np.int64)[:, None] - a[:, :-1] @ head
    last = a[:, -1]
    if not last.any():  # the last coordinate is free in the box
        fit = head[:, ~rest.any(axis=0)]
        free = np.arange(-BOX, BOX + 1)
        return np.vstack(
            [np.repeat(fit, free.size, axis=1), np.tile(free, fit.shape[1])]
        )
    k = np.flatnonzero(last)[0]
    x, r = np.divmod(rest[k], last[k])
    fit = (r == 0) & (np.abs(x) <= BOX) & np.all(rest == np.outer(last, x), axis=0)
    return np.vstack([head[:, fit], x[fit]])


def test_06_diophantine_solutions_match_brute_force():
    """500 random integer systems: exact solutions, and the solution
    set inside the [-20, 20] box agrees with exhaustive search."""
    rng = random.Random(606)
    axes = np.arange(-BOX, BOX + 1, dtype=np.int64)
    heads = {
        k: np.stack([g.ravel() for g in np.meshgrid(*([axes] * k), indexing="ij")])
        if k else np.zeros((0, 1), dtype=np.int64)
        for k in range(4)
    }
    for trial in range(500):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        if trial % 2:
            x0 = [rng.randint(-3, 3) for _ in range(m)]
            b = [sum(r * v for r, v in zip(row, x0)) for row in rows]
        else:
            b = [rng.randint(-8, 8) for _ in range(n)]
        brute = box_solutions(rows, b, heads)
        sol = solve_diophantine(rows, b)
        if sol is None:
            missed = brute.T[:3].tolist()
            assert not brute.size, f"trial {trial}: solver missed {missed}"
            continue
        # exactness of the claimed solutions
        assert [
            sum(r * v for r, v in zip(row, sol.particular)) for row in rows
        ] == b
        for k in sol.kernel:
            assert all(
                sum(r * v for r, v in zip(row, k)) == 0 for row in rows
            )
        # every box solution is particular + lattice member; the claimed
        # set can hold nothing else since all its points solve exactly
        placed = column_echelon_local(sol.kernel, m)
        if len(placed) == m and all(c[r] == 1 for r, c in placed):
            continue  # full lattice, every point is a member
        deltas = brute - np.array(sol.particular, dtype=np.int64)[:, None]
        member = lattice_members(placed, deltas)
        assert member.all(), f"trial {trial}: {brute[:, ~member][:, 0].tolist()}"


# ---------------------------------------------------------------- gate 7


def random_quadratic(group, rng):
    parts = [quad_trivial(group)]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5 if group.num_factors >= 2 else 4)
        i = rng.randrange(group.num_factors)
        if kind == 0:
            parts.append(quad_character(group, i, rng.randrange(group.moduli[i])))
        elif kind == 1:
            parts.append(quad_square(group, i, rng.randrange(group.moduli[i])))
        elif kind == 2:
            parts.append(quad_half(group, i, rng.randrange(group.moduli[i])))
        elif kind == 3:
            cols = []
            for a, d in enumerate(group.moduli):
                col = []
                for k, dk in enumerate(group.moduli):
                    step = dk // math.gcd(d, dk)
                    col.append(step * rng.randrange(dk // step))
                cols.append(col)
            parts.append(quad_from_endo(endo_validate(group, cols)))
        else:
            i, j = sorted(rng.sample(range(group.num_factors), 2))
            step = group.moduli[j] // math.gcd(group.moduli[i], group.moduli[j])
            c = step * rng.randrange(max(1, group.moduli[j] // step))
            parts.append(quad_cross(group, i, j, c))
    out = parts[0]
    for p in parts[1:]:
        out = quad_product(out, p)
    return out


def test_07_quadratic_function_laws():
    """Builder families validate exhaustively; values are roots of
    unity of the doubled order; the repeated-argument law holds for
    1000 random (function, element, power) triples."""
    for g in SMALL_GROUPS:
        if g.order > 64:
            continue
        m = g.num_factors
        for i in range(m):
            d = g.moduli[i]
            for a in {0, 1, d - 1}:
                assert quad_validate_exhaustive(quad_character(g, i, a))
                assert quad_validate_exhaustive(quad_square(g, i, a))
                assert quad_validate_exhaustive(quad_half(g, i, a))
        for i in range(m):
            for j in range(i + 1, m):
                step = g.moduli[j] // math.gcd(g.moduli[i], g.moduli[j])
                assert quad_validate_exhaustive(quad_cross(g, i, j, step))

    rng = random.Random(707)
    groups = [g for g in SMALL_GROUPS if g.order <= 64]
    for trial in range(1000):
        g = groups[trial % len(groups)]
        xi = random_quadratic(g, rng)
        a = rand_element(g, rng)
        n = rng.randrange(-8, 16)
        w = extract_endo(xi)
        mod = g.phase_modulus
        lhs = quad_eval(xi, n * a).value
        rhs = (n * quad_eval(xi, a).value + triangle(n) * character_exponent(w.apply(a), a)) % mod
        assert lhs == rhs
        # numeric value really is a 2*order-th root of unity
        val = to_complex(quad_eval(xi, a))
        assert abs(val ** mod - 1) < TOL
        b = rand_element(g, rng)
        assert quad_eval(xi, a + b).value == (
            quad_eval(xi, a).value + quad_eval(xi, b).value + character_exponent(w.apply(a), b)
        ) % mod


# ---------------------------------------------------------------- gate 8


def composed_automorphism(group, rng):
    """Columns of an invertible map built from unit multiplications
    and shears, assembled without the library's random generator."""
    m = group.num_factors
    d = group.moduli
    cols = [[1 if r == j else 0 for r in range(m)] for j in range(m)]

    def apply_op(vec):
        kind = rng.randrange(2) if m >= 2 else 0
        if kind == 0:
            i = rng.randrange(m)
            units = [a for a in range(1, d[i]) if math.gcd(a, d[i]) == 1]
            a = rng.choice(units)
            vec[i] = (vec[i] * a) % d[i]
        else:
            i, j = rng.sample(range(m), 2)
            step = d[i] // math.gcd(d[j], d[i])
            c = step * rng.randrange(max(1, d[i] // step))
            vec[i] = (vec[i] + c * vec[j]) % d[i]

    for _ in range(rng.randint(1, 4)):
        op_rng_state = rng.getstate()
        for col in cols:
            rng.setstate(op_rng_state)
            apply_op(col)
    return endo_validate(group, cols)


def test_08_affine_test_classifies_permutations():
    """Modular exponentiation is flagged with a witness; 50 honest
    affine permutations are reconstructed exactly."""
    res = affine_test(modexp_permutation(2, 2, 15))
    assert not res.is_affine
    assert res.witness is not None

    rng = random.Random(808)
    for trial in range(50):
        while True:
            mods = tuple(
                rng.choice([2, 3, 4, 5, 8, 9]) for _ in range(rng.randint(1, 3))
            )
            if math.prod(mods) <= 512:
                break
        g = AbelianGroup(mods)
        alpha = composed_automorphism(g, rng)
        assert auto_inverse(alpha) is not None
        t = rand_element(g, rng)
        spec = PermutationSpec.from_callable(g, lambda x: alpha.apply(x) + t)
        res = affine_test(spec)
        assert res.is_affine, f"trial {trial}: {res}"
        assert res.shift == t
        assert res.matrix.columns == alpha.columns


# ---------------------------------------------------------------- gate 9


def test_09_output_states_are_uniform_coset_supported():
    """Dense outputs of the gate-1 circuits: equal-modulus amplitudes,
    support is a coset, and the conjugated generators fix the state."""
    rng = random.Random(909)
    for seed in range(200):
        text = random_instance(seed, max_order=512, n_gates=1 + seed % 12)
        circ = parse_circuit(text)
        state = apply_circuit(coset_state(circ.coset), circ.gates)
        amps = state.vector
        mags = np.abs(amps)
        support = np.flatnonzero(mags > NORM_TOL)
        assert len(support) > 0
        assert mags[support].max() - mags[support].min() < TOL
        members = {element_at(circ.group, int(i)) for i in support}
        # subtracting one member gives a set closed under subtraction
        base = next(iter(members))
        diffs = {x - base for x in members}
        pool = list(diffs)
        if len(pool) <= 64:
            for a in pool:
                for b in pool:
                    assert a - b in diffs
        else:
            for _ in range(500):
                assert rng.choice(pool) - rng.choice(pool) in diffs
        dist = simulate(circ.coset, circ.gates)
        assert members == dist.members()
        assert eigenvector_check(circ.coset, circ.gates, tol=TOL)


# ---------------------------------------------------------------- gate 10


def test_10_sampling_statistics_and_determinism():
    """20 instances at 100k shots stay within five standard deviations
    of uniform on every outcome; equal seeds give identical streams."""
    shots = 100_000
    for seed in range(20):
        circ = parse_circuit(random_instance(seed, max_order=64, n_gates=5))
        dist = simulate(circ.coset, circ.gates)
        members = dist.members()
        size = len(members)
        counts = Counter(sample_stream(dist, shots, seed=1000 + seed))
        assert set(counts) <= members
        p = 1.0 / size
        sigma = math.sqrt(shots * p * (1 - p))
        for x in members:
            assert abs(counts[x] - shots * p) <= 5 * sigma, (
                f"seed {seed}, outcome {x}: {counts[x]} vs {shots * p:.1f}"
            )
        rep_a = "\n".join(str(s) for s in sample_stream(dist, 5000, seed=42))
        rep_b = "\n".join(str(s) for s in sample_stream(dist, 5000, seed=42))
        assert rep_a.encode() == rep_b.encode()
