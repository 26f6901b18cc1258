"""Quadratic functions on a finite Abelian group and their encodings.

A quadratic function xi satisfies xi(g+h) = xi(g) xi(h) B(g,h) for a
symmetric bilinear B. All its values are powers of gamma =
exp(i*pi/order), so xi is stored as integer exponents:

    n_diag[i]   = exponent of xi(e^i)
    n_pair[..]  = exponent of xi(e^i + e^j) for i < j, row-major
    n_double[i] = exponent of xi(2 e^i)

The pair values fix the off-diagonal of B and the doubled values fix
its diagonal; diag and pair values alone underdetermine B(e^i, e^i), so
the doubled generator values are part of the encoding. From these,
xi(g) is reconstructed for every g via

    n(g) = sum_i [g_i n(e^i) + f(g_i) b_ii] + sum_{i<j} g_i g_j b_ij

with f(n) = n(n-1)/2 and b_ij the exponent of B(e^i, e^j).

Encodings are checked at construction: every b_ij must die when
multiplied by d_i or d_j (B takes d_i-th-root values in slot i) and
xi(d_i e^i) must equal 1. These conditions are also sufficient for the
reconstruction above to satisfy the quadratic identity, so a
constructed encoding always denotes an actual quadratic function.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from math import gcd

from .groups import AbelianGroup, GroupElement, PhaseExponent, character_exponent
from .homs import EndoMatrix


class InvalidQuadratic(ValueError):
    """Exponent data that does not describe a quadratic function."""


def triangle(n: int) -> int:
    """f(n) = n(n-1)/2, exact for any integer n."""
    return n * (n - 1) // 2


def _pair_index(m: int, i: int, j: int) -> int:
    # row-major upper triangle, i < j
    return i * (2 * m - i - 1) // 2 + (j - i - 1)


Term = tuple[int, int, int]


@dataclass(frozen=True)
class QuadraticEncoding:
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
        """The nonzero terms of n(g), as (diagonal, pairs).

        Diagonal terms are (i, n_i, b_ii) for each factor with n_i or
        b_ii nonzero; pair terms are (i, j, b_ij) for i < j with
        b_ij nonzero. Validation, evaluation and bilinear extraction
        read the encoding only through this table, so their cost
        scales with the terms present.
        """
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

    def bilinear_exponent(self, i: int, j: int) -> int:
        """Exponent of B(e^i, e^j), from the stored generator values."""
        L = self.group.phase_modulus
        if i == j:
            return (self.n_double[i] - 2 * self.n_diag[i]) % L
        if i > j:
            i, j = j, i
        k = _pair_index(self.group.num_factors, i, j)
        return (self.n_pair[k] - self.n_diag[i] - self.n_diag[j]) % L


def quad_eval(xi: QuadraticEncoding, g: GroupElement) -> PhaseExponent:
    """Exact phase exponent of xi(g)."""
    if g.group != xi.group:
        raise ValueError("element belongs to a different group")
    res = g.residues
    diag, pairs = xi.terms
    total = 0
    for i, n, b in diag:
        gi = res[i]
        if gi:
            total += gi * n + triangle(gi) * b
    for i, j, b in pairs:
        total += res[i] * res[j] * b
    return PhaseExponent(xi.group, total)


def extract_endo(xi: QuadraticEncoding) -> EndoMatrix:
    """The unique endomorphism w with B(g,h) = chi_{w(g)}(h).

    Column k row l: b_kl = (2*order/d_l) * A_lk, so A_lk is recovered by
    exact division. Raises InvalidQuadratic when a stored exponent is
    not a d_l-th-root value (only reachable on unvalidated encodings).
    """
    group = xi.group
    d = group.moduli
    L = group.phase_modulus
    cols = [[0] * group.num_factors for _ in d]
    diag, pairs = xi.terms
    entries = [(i, i, b) for i, _, b in diag]
    entries += [e for i, j, b in pairs for e in ((i, j, b), (j, i, b))]
    for k, l, b in entries:
        u = L // d[l]
        if b % u:
            raise InvalidQuadratic(
                f"B(e^{k},e^{l}) exponent {b} is not a multiple of {u}"
            )
        cols[k][l] = b // u
    return EndoMatrix(group, tuple(group.element(c) for c in cols))


def _embed_single(group: AbelianGroup, factor: int, n1: int, n2: int) -> QuadraticEncoding:
    """Encoding of a single-factor function: n1 = n(e^t), n2 = n(2 e^t).

    Untouched factors do not interact, so every pair value is the plain
    sum of the two generator values (zero cross term).
    """
    m = group.num_factors
    n_diag = [0] * m
    n_double = [0] * m
    n_diag[factor] = n1
    n_double[factor] = n2
    n_pair = [
        n_diag[i] + n_diag[j] for i in range(m) for j in range(i + 1, m)
    ]
    return QuadraticEncoding(group, tuple(n_diag), tuple(n_pair), tuple(n_double))


def quad_character(group: AbelianGroup, factor: int, a: int) -> QuadraticEncoding:
    """x -> exp(2*pi*i*a*x/d) on one factor; a linear character."""
    u = group.phase_modulus // group.moduli[factor]
    return _embed_single(group, factor, u * a, 2 * u * a)


def quad_square(group: AbelianGroup, factor: int, a: int) -> QuadraticEncoding:
    """x -> exp(2*pi*i*a*x^2/d) on one factor."""
    u = group.phase_modulus // group.moduli[factor]
    return _embed_single(group, factor, u * a, 4 * u * a)


def quad_half(group: AbelianGroup, factor: int, a: int) -> QuadraticEncoding:
    """x -> exp(i*pi*a*x*(x+d)/d) on one factor.

    Takes genuine 2d-th-root values on odd arguments, unlike anything of
    the form chi_g(w(g)); the (x+d) offset keeps it well defined mod d.
    """
    d = group.moduli[factor]
    v = group.order // d  # exponents are in gamma units: i*pi/order
    return _embed_single(group, factor, v * a * (1 + d), v * a * 2 * (2 + d))


def quad_cross(
    group: AbelianGroup, i: int, j: int, c: int
) -> QuadraticEncoding:
    """(x_i, x_j) -> exp(2*pi*i*c*x_i*x_j/d_j); needs d_j | d_i*c."""
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
    return QuadraticEncoding(group, (0,) * m, tuple(n_pair), (0,) * m)


def quad_from_endo(endo: EndoMatrix) -> QuadraticEncoding:
    """The function g -> chi_g(w(g)) for an endomorphism w."""
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
    return QuadraticEncoding(group, n_diag, n_pair, n_double)


def build_quadratic(group: AbelianGroup, kind: str, **params) -> QuadraticEncoding:
    """Dispatch to the named builder family."""
    builders = {
        "character": lambda: quad_character(group, params["factor"], params["a"]),
        "square": lambda: quad_square(group, params["factor"], params["a"]),
        "half": lambda: quad_half(group, params["factor"], params["a"]),
        "cross": lambda: quad_cross(group, params["i"], params["j"], params["c"]),
        "from_endo": lambda: quad_from_endo(params["endo"]),
    }
    if kind not in builders:
        raise ValueError(f"unknown quadratic family {kind!r}")
    return builders[kind]()


def derive_double_exponents(
    group: AbelianGroup, n_diag: tuple[int, ...]
) -> tuple[int, ...]:
    """Canonical n(2 e^i) values for an encoding given without them.

    For each factor, picks the smallest diagonal coefficient A_ii
    solving the doubled-generator consistency congruence; fails when no
    bilinear diagonal is compatible with n_diag at all.
    """
    d = group.moduli
    L = group.phase_modulus
    out = []
    for i, n1 in enumerate(n_diag):
        u = L // d[i]
        # need f(d_i) * u * A + d_i * n1 = 0 mod L with integer A
        t = (triangle(d[i]) * u) % L
        c = (-d[i] * n1) % L
        g = gcd(t, L)
        if c % g:
            raise InvalidQuadratic(
                f"diagonal exponent {n1} admits no consistent doubled value"
            )
        if t == 0:
            a_min = 0
        else:
            a_min = (c // g) * pow(t // g, -1, L // g) % (L // g)
        out.append((2 * n1 + u * a_min) % L)
    return tuple(out)
