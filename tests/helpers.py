"""Test-only helpers shared by several test modules.

The package keeps none of these: they enumerate groups, build
quadratic functions by hand, turn exact phases into floats, conjugate
one label at a time as the reference for the engine's tableau, read
out through PauliLabel arithmetic and a slack-column congruence solver
of their own as the reference for the engine's plain-int readout and
its mod-N solves, decode a draw with GroupElement arithmetic as the
reference for the packed sampler, enumerate a span by search, or store
quadratic functions by their dense exponent lists as the reference for
the package's terms-only encoding.
"""

import cmath
import math
import operator
from dataclasses import InitVar, dataclass
from functools import cached_property

from normsim.engine import (
    AutomorphismGate,
    EngineError,
    FourierGate,
    OutputDistribution,
    PauliGate,
    QuadraticGate,
)
from normsim.groups import (
    DENSE_BOUND,
    AbelianGroup,
    GroupElement,
    PhaseExponent,
    character_exponent,
    check_bound,
)
from normsim.homs import EndoMatrix, Subgroup
from normsim.pauli import PauliLabel, pauli_identity, pauli_mul, pauli_pow
from normsim.quadratic import (
    InvalidQuadratic,
    QuadraticEncoding,
    Term,
    extract_endo,
    quad_eval,
    triangle,
)


def element_at(group: AbelianGroup, index: int) -> GroupElement:
    """Inverse of group.index_of: the element of that mixed-radix rank."""
    res = []
    for d in reversed(group.moduli):
        res.append(index % d)
        index //= d
    return GroupElement(group, tuple(reversed(res)))


def to_complex(phase: PhaseExponent) -> complex:
    """The complex number gamma^value with gamma = exp(i*pi/order)."""
    return cmath.exp(1j * cmath.pi * phase.value / phase.group.order)


def random_endo(rng, group: AbelianGroup, density: float) -> EndoMatrix:
    """Entry (k, i) a multiple of d_k / gcd(d_i, d_k), nonzero w.p. density."""
    d = group.moduli
    cols = []
    for di in d:
        col = []
        for dk in d:
            step = dk // math.gcd(di, dk)
            nonzero = rng.random() < density
            col.append(step * rng.randrange(dk // step) if nonzero else 0)
        cols.append(group.element(col))
    return EndoMatrix(group, tuple(cols))


def quad_product(a: QuadraticEncoding, b: QuadraticEncoding) -> QuadraticEncoding:
    """Pointwise product; quadratic functions are closed under it."""
    if a.group != b.group:
        raise ValueError("encodings over different groups")
    return QuadraticEncoding(
        a.group,
        tuple(x + y for x, y in zip(a.n_diag, b.n_diag)),
        tuple(x + y for x, y in zip(a.n_pair, b.n_pair)),
        tuple(x + y for x, y in zip(a.n_double, b.n_double)),
    )


def quad_trivial(group: AbelianGroup) -> QuadraticEncoding:
    m = group.num_factors
    return QuadraticEncoding(group, (0,) * m, (0,) * (m * (m - 1) // 2), (0,) * m)


def quad_validate_exhaustive(xi: QuadraticEncoding, bound: int = DENSE_BOUND) -> bool:
    """Check xi(g+h) = xi(g) xi(h) B(g,h) over all pairs.

    xi may be a DenseQuadratic built with validate=False. Returns False
    when its exponents do not even determine a bilinear endomorphism:
    some B(e^i, e^j) exponent is not a multiple of both 2|G|/d_i and
    2|G|/d_j, so extract_endo's division would not be exact.
    """
    group = xi.group
    check_bound(group, bound)
    d, L = group.moduli, group.phase_modulus
    diag, pairs = xi.terms
    for i, j, b in [(i, i, b) for i, _, b in diag] + list(pairs):
        if b % (L // d[i]) or b % (L // d[j]):
            return False
    endo = extract_endo(xi)
    elems = list(group.elements())
    values = {g: quad_eval(xi, g).value for g in elems}
    for g in elems:
        for h in elems:
            lhs = values[g + h]
            rhs = (
                values[g] + values[h] + character_exponent(endo.apply(g), h)
            ) % L
            if lhs != rhs:
                return False
    return True


def _fourier_reference(gate: FourierGate, label: PauliLabel) -> PauliLabel:
    group = gate.group
    d = group.moduli
    two_g = group.phase_modulus
    g = list(label.z_part.residues)
    h = list(label.x_part.residues)
    a = label.phase.value
    for i in gate.targets:
        a += (two_g // d[i]) * g[i] * h[i]
        if gate.inverse:
            g[i], h[i] = (-h[i]) % d[i], g[i]
        else:
            g[i], h[i] = h[i], (-g[i]) % d[i]
    return PauliLabel(
        PhaseExponent(group, a),
        GroupElement(group, tuple(g)),
        GroupElement(group, tuple(h)),
    )


def _automorphism_reference(gate: AutomorphismGate, label: PauliLabel) -> PauliLabel:
    return PauliLabel(
        label.phase,
        gate._z_action.apply(label.z_part),
        gate.matrix.apply(label.x_part),
    )


def _quadratic_reference(gate: QuadraticGate, label: PauliLabel) -> PauliLabel:
    # X(h) picks up xi(h) and a Z(w(h)) tail; pulling the new Z next
    # to the old one is free (diagonals commute), but expressing the
    # k-dependence chi_{w(k)}(h) as chi_{w(h)}(k) overshoots by
    # B(h,h) once, which the phase repays.
    h = label.x_part
    w_h = extract_endo(gate.encoding).apply(h)
    a = (
        label.phase.value
        + quad_eval(gate.encoding, h).value
        - character_exponent(w_h, h)
    )
    return PauliLabel(
        PhaseExponent(gate.group, a), label.z_part + w_h, label.x_part
    )


def _pauli_reference(gate: PauliGate, label: PauliLabel) -> PauliLabel:
    # For P ~ Z(g) X(h): P Z(z) X(x) P^dagger = chi_g(x) chi_z(-h) Z(z) X(x),
    # so only the phase moves.
    a = (
        label.phase.value
        + character_exponent(gate.label.z_part, label.x_part)
        - character_exponent(label.z_part, gate.label.x_part)
    )
    return PauliLabel(PhaseExponent(gate.group, a), label.z_part, label.x_part)


_REFERENCES = {
    FourierGate: _fourier_reference,
    AutomorphismGate: _automorphism_reference,
    QuadraticGate: _quadratic_reference,
    PauliGate: _pauli_reference,
}


def reference_conjugate(gate, label: PauliLabel) -> PauliLabel:
    """U s U^dagger for one gate and one label, built from group elements."""
    return _REFERENCES[type(gate)](gate, label)


def reference_circuit(labels, gates) -> tuple[PauliLabel, ...]:
    """Every label through every gate, one label at a time."""
    out = list(labels)
    for gate in gates:
        out = [reference_conjugate(gate, s) for s in out]
    return tuple(out)


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, s, t = _exgcd(b, a % b)
    return g, t, s - (a // b) * t


def slack_congruence_solve(rows, b, num_cols, moduli):
    """(particular, kernel) of rows . x = b mod moduli[i] in row i, or None.

    Each row i gets a slack column d_i e_i; a column Hermite reduction
    with unimodular tracking U of the augmented integer system gives a
    particular solution and a kernel whose Z-span is the full solution
    lattice, both projected onto x. Entries are never reduced mod d_i.
    """
    n, m = len(rows), num_cols
    total = m + n
    H = [
        list(row) + [d * (s == i) for s in range(n)]
        for i, (row, d) in enumerate(zip(rows, moduli))
    ]
    U = [[int(i == j) for j in range(total)] for i in range(total)]
    pivots, col = [], 0
    for r in range(n):
        nz = next((j for j in range(col, total) if H[r][j]), None)
        if nz is None:
            continue
        for M in (H, U):
            for line in M:
                line[col], line[nz] = line[nz], line[col]
        for j in range(col + 1, total):
            if H[r][j]:
                g, s, t = _exgcd(H[r][col], H[r][j])
                p, q = H[r][col] // g, H[r][j] // g
                for M in (H, U):
                    for line in M:
                        x, y = line[col], line[j]
                        line[col], line[j] = s * x + t * y, p * y - q * x
        if H[r][col] < 0:
            for M in (H, U):
                for line in M:
                    line[col] = -line[col]
        # keep earlier columns reduced against the new pivot
        for j in range(col):
            q = H[r][j] // H[r][col]
            if q:
                for M in (H, U):
                    for line in M:
                        line[j] -= q * line[col]
        pivots.append((r, col))
        col += 1
    y = [0] * total
    for r, c in pivots:
        rem = b[r] - sum(H[r][j] * y[j] for j in range(c))
        if rem % H[r][c]:
            return None
        y[c] = rem // H[r][c]
    x = [sum(U[i][j] * y[j] for j in range(total)) for i in range(m)]
    residuals = (sum(map(operator.mul, row, x)) - bi for row, bi in zip(rows, b))
    if any(r % d for r, d in zip(residuals, moduli)):
        return None
    kernel = [[U[i][j] for i in range(m)] for j in range(len(pivots), total)]
    return x, kernel


def reference_output_distribution(labels) -> OutputDistribution:
    """Readout with one pauli_mul/pauli_pow product per kernel vector,
    and congruences mod |G| by slack_congruence_solve."""
    if not labels:
        raise EngineError("empty stabilizer set")
    group = labels[0].group
    d, order = group.moduli, group.order
    h_parts = [s.x_part for s in labels]
    support = Subgroup(group, tuple(h for h in h_parts if not h.is_zero))
    # exponent tuples k with sum_i k_i h^i = 0 in G
    rows = [[h.residues[j] for h in h_parts] for j in range(group.num_factors)]
    diag_rows: list[list[int]] = []
    diag_phases: list[int] = []
    _, kernel = slack_congruence_solve(rows, [0] * len(rows), len(labels), d)
    for vec in kernel:
        prod = pauli_identity(group)
        for s, k in zip(labels, vec):
            if k:
                prod = pauli_mul(prod, pauli_pow(s, k))
        if not prod.x_part.is_zero:
            raise EngineError("diagonal combination kept an X part")
        c = prod.phase.value
        if c % 2:
            raise EngineError("diagonal stabilizer phase is an odd power")
        if prod.z_part.is_zero and c:
            raise EngineError("stabilizer contains a nontrivial scalar")
        # chi_z(g) = exp(2 pi i (row . g) / |G|)
        diag_rows.append([order // dj * z for dj, z in zip(d, prod.z_part.residues)])
        diag_phases.append((-(c // 2)) % order)
    sol = slack_congruence_solve(
        diag_rows, diag_phases, len(d), [order] * len(diag_rows)
    )
    if sol is None:
        raise EngineError("diagonal constraints are unsatisfiable")
    return OutputDistribution(group, group.element(sol[0]), support)


def reference_sample(dist: OutputDistribution, rng) -> GroupElement:
    """One shot: one randrange(|S|), split into mixed-radix digits c_i,
    the first row lowest, and x0 + sum_i c_i row_i summed over the
    canonical rows with GroupElement arithmetic."""
    offset, basis = dist.canonical
    r = rng.randrange(basis.order)
    for h, n in zip(basis.rows, basis.radices):
        r, c = divmod(r, n)
        offset = offset + c * h
    return offset


def span_closure(moduli, gens) -> set[tuple[int, ...]]:
    """Every residue tuple of <gens> in Z_d1 x ... x Z_dm, by search."""
    zero = (0,) * len(moduli)
    seen, frontier = {zero}, [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % d for a, b, d in zip(cur, g, moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _pair_index(m: int, i: int, j: int) -> int:
    # row-major upper triangle, i < j
    return i * (2 * m - i - 1) // 2 + (j - i - 1)


def bilinear_exponent(xi, i: int, j: int) -> int:
    """Exponent of B(e^i, e^j), read off the dense exponent lists."""
    L = xi.group.phase_modulus
    if i == j:
        return (xi.n_double[i] - 2 * xi.n_diag[i]) % L
    if i > j:
        i, j = j, i
    k = _pair_index(xi.group.num_factors, i, j)
    return (xi.n_pair[k] - xi.n_diag[i] - xi.n_diag[j]) % L


@dataclass(frozen=True)
class DenseQuadratic:
    """A quadratic function stored by all m(m+3)/2 of its exponents.

    n_diag[i] is the exponent of xi(e^i), n_pair the exponents of
    xi(e^i + e^j) for i < j, row-major, and n_double[i] that of
    xi(2 e^i); the terms are derived from them.
    """

    group: AbelianGroup
    n_diag: tuple[int, ...]
    n_pair: tuple[int, ...]
    n_double: tuple[int, ...]
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        m = self.group.num_factors
        L = self.group.phase_modulus
        if len(self.n_diag) != m or len(self.n_double) != m:
            raise ValueError("diagonal exponent count does not match group")
        if len(self.n_pair) != m * (m - 1) // 2:
            raise ValueError("pair exponent count does not match group")
        object.__setattr__(self, "n_diag", tuple(int(v) % L for v in self.n_diag))
        object.__setattr__(self, "n_pair", tuple(int(v) % L for v in self.n_pair))
        object.__setattr__(self, "n_double", tuple(int(v) % L for v in self.n_double))
        if validate:
            self._check()

    @cached_property
    def terms(self) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
        L = self.group.phase_modulus
        m = self.group.num_factors
        n1, n2 = self.n_diag, self.n_double
        diag = tuple(
            (i, n1[i], (n2[i] - 2 * n1[i]) % L)
            for i in range(m)
            if n1[i] or n2[i]
        )
        pairs = []
        k = 0
        for i in range(m):
            for j in range(i + 1, m):
                b = (self.n_pair[k] - n1[i] - n1[j]) % L
                if b:
                    pairs.append((i, j, b))
                k += 1
        return diag, tuple(pairs)

    def _check(self):
        d = self.group.moduli
        L = self.group.phase_modulus
        diag, pairs = self.terms
        for i, n, b in diag:
            if (d[i] * b) % L:
                raise InvalidQuadratic(
                    f"cross term ({i},{i}) exponent {b} survives factor order"
                )
            if (d[i] * n + triangle(d[i]) * b) % L:
                raise InvalidQuadratic(f"value at {d[i]}*e^{i} is not 1")
        for i, j, b in pairs:
            if (d[i] * b) % L or (d[j] * b) % L:
                raise InvalidQuadratic(
                    f"cross term ({i},{j}) exponent {b} survives factor order"
                )


def _dense_single(group: AbelianGroup, factor: int, n1: int, n2: int) -> DenseQuadratic:
    m = group.num_factors
    n_diag = [0] * m
    n_double = [0] * m
    n_diag[factor] = n1
    n_double[factor] = n2
    n_pair = [
        n_diag[i] + n_diag[j] for i in range(m) for j in range(i + 1, m)
    ]
    return DenseQuadratic(group, tuple(n_diag), tuple(n_pair), tuple(n_double))


def dense_character(group: AbelianGroup, factor: int, a: int) -> DenseQuadratic:
    u = group.phase_modulus // group.moduli[factor]
    return _dense_single(group, factor, u * a, 2 * u * a)


def dense_square(group: AbelianGroup, factor: int, a: int) -> DenseQuadratic:
    u = group.phase_modulus // group.moduli[factor]
    return _dense_single(group, factor, u * a, 4 * u * a)


def dense_half(group: AbelianGroup, factor: int, a: int) -> DenseQuadratic:
    d = group.moduli[factor]
    v = group.order // d
    return _dense_single(group, factor, v * a * (1 + d), v * a * 2 * (2 + d))


def dense_cross(group: AbelianGroup, i: int, j: int, c: int) -> DenseQuadratic:
    if i == j:
        raise ValueError("cross term needs two distinct factors")
    d = group.moduli
    if (d[i] * c) % d[j]:
        raise InvalidQuadratic(
            f"cross coefficient {c} violates d_{i}*c = 0 mod d_{j}"
        )
    m = group.num_factors
    u = group.phase_modulus // d[j]
    n_pair = [0] * (m * (m - 1) // 2)
    n_pair[_pair_index(m, min(i, j), max(i, j))] = u * c
    return DenseQuadratic(group, (0,) * m, tuple(n_pair), (0,) * m)


def dense_from_endo(endo: EndoMatrix) -> DenseQuadratic:
    """g -> chi_g(w(g)), evaluated at every generator, pair and double."""
    group = endo.group
    m = group.num_factors

    def val(g: GroupElement) -> int:
        return character_exponent(g, endo.apply(g))

    units = group.units()
    n_diag = tuple(val(units[i]) for i in range(m))
    n_double = tuple(val(units[i] + units[i]) for i in range(m))
    n_pair = tuple(
        val(units[i] + units[j]) for i in range(m) for j in range(i + 1, m)
    )
    return DenseQuadratic(group, n_diag, n_pair, n_double)
