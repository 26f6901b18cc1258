"""Quadratic functions on a finite Abelian group and their encodings.

A quadratic function xi satisfies xi(g+h) = xi(g) xi(h) B(g,h) for a
symmetric bilinear B. All its values are powers of gamma =
exp(i*pi/order), so xi is given by integer exponents

    n(g) = sum_i [g_i n_i + f(g_i) b_ii] + sum_{i<j} g_i g_j b_ij

with f(n) = n(n-1)/2, n_i the exponent of xi(e^i) and b_ij that of
B(e^i, e^j). An encoding stores only the nonzero terms of this sum,
reduced mod 2*order, so everything that reads it costs what its terms
cost. The file format instead carries the exponents at the generators
(n_diag = n_i), at pairwise sums (n_pair = n_i + n_j + b_ij, row-major
i<j) and at doubled generators (n_double = 2 n_i + b_ii). The
constructor takes these dense lists, as ints or as the parser's
decimal tokens, and spends Python work only on their distinct values
and on the slots that can hold a term; the attributes of those names
are views that give the lists back.

Encodings are checked at construction: every b_ij must die when
multiplied by d_i or d_j (B takes d_i-th-root values in slot i) and
xi(d_i e^i) must equal 1. These conditions are also sufficient for the
sum above to satisfy the quadratic identity, so a constructed encoding
always denotes an actual quadratic function.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, compress
from math import gcd
from operator import add, or_

from .groups import AbelianGroup, GroupElement, PhaseExponent
from .homs import EndoMatrix


class InvalidQuadratic(ValueError):
    """Exponent data that does not describe a quadratic function."""


def triangle(n: int) -> int:
    """f(n) = n(n-1)/2, exact for any integer n."""
    return n * (n - 1) // 2


Term = tuple[int, int, int]


@dataclass(frozen=True, init=False)
class QuadraticEncoding:
    """`terms` is (diagonal, pairs): (i, n_i, b_ii) in factor order and
    (i, j, b_ij) for i < j in row-major order, none of them zero."""

    group: AbelianGroup
    terms: tuple[tuple[Term, ...], tuple[Term, ...]]

    def __init__(self, group, n_diag, n_pair, n_double, value=None):
        """Terms from dense lists of ints or of the parser's decimal tokens;
        `value` maps each distinct entry to its integer (int() when None).
        Python work goes to those values, to the slots whose value is
        nonzero mod 2|G| and to the rows and columns of nonzero n_i, since
        b_ij = n_pair_ij - n_i - n_j is zero everywhere else."""
        m, L = group.num_factors, group.phase_modulus
        if len(n_diag) != m or len(n_double) != m:
            raise ValueError("diagonal exponent count does not match group")
        if len(n_pair) != m * (m - 1) // 2:
            raise ValueError("pair exponent count does not match group")
        if value is None:
            value = {v: int(v) for v in {*n_diag, *n_pair, *n_double}}
        r = {t: v % L for t, v in value.items()}  # each entry's value mod 2|G|
        live = [t for t, v in r.items() if v]
        n1 = list(map(r.__getitem__, n_diag))
        nonzero = compress(range(m), map(or_, n1, map(r.__getitem__, n_double)))
        diag = [(i, n1[i], (r[n_double[i]] - 2 * n1[i]) % L) for i in nonzero]
        hot = list(compress(range(m), n1))
        start = _row_starts(m)
        cand, n = [], len(n_pair)
        if len(live) > 2:  # one pass then costs less than a scan per value
            cand, live = list(compress(range(n), map(r.__getitem__, n_pair))), []
        # in the row and column of a nonzero n_i, the slots whose value is
        # not n_i and those meeting a second such row; the scans below run
        # on a copy with these slots blanked and each live value appended
        work = [*n_pair, *live]
        for i in hot:
            for s in (*map(add, start[:i], range(i - 1, -1, -1)),
                      *range(start[i], start[i] + m - 1 - i)):
                if r[n_pair[s]] != n1[i]:
                    cand.append(s)
                work[s] = None
            cand += [start[i] + j - i - 1 for j in hot if j > i]
        for t in live:
            s = -1
            while (s := work.index(t, s + 1)) < n:
                cand.append(s)
        pairs = []
        for s in sorted(set(cand)):
            i = bisect_right(start, s) - 1
            j = s - start[i] + i + 1
            if v := (r[n_pair[s]] - n1[i] - n1[j]) % L:
                pairs.append((i, j, v))
        self._store(group, tuple(diag), tuple(pairs))

    def _store(self, group, diag, pairs) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "terms", (diag, pairs))
        self._check()

    @cached_property
    def n_diag(self) -> tuple[int, ...]:
        out = [0] * self.group.num_factors
        for i, n, _ in self.terms[0]:
            out[i] = n
        return tuple(out)

    @cached_property
    def n_double(self) -> tuple[int, ...]:
        out = [0] * self.group.num_factors
        for i, n, b in self.terms[0]:
            out[i] = (2 * n + b) % self.group.phase_modulus
        return tuple(out)

    @cached_property
    def n_pair(self) -> tuple[int, ...]:
        m, n1 = self.group.num_factors, self.n_diag
        b = {(i, j): v for i, j, v in self.terms[1]}
        return tuple(
            (n1[i] + n1[j] + b.get((i, j), 0)) % self.group.phase_modulus
            for i in range(m)
            for j in range(i + 1, m)
        )

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


@lru_cache(maxsize=64)
def _row_starts(m: int) -> tuple[int, ...]:
    """The slot of pair (i, i+1) in row-major i < j order, for each i."""
    return tuple(accumulate(range(m - 1, 0, -1), initial=0))


def _from_terms(group: AbelianGroup, diag, pairs) -> QuadraticEncoding:
    """The validated encoding with these terms, ordered as in `terms`."""
    L = group.phase_modulus
    xi = object.__new__(QuadraticEncoding)
    diag = tuple((i, n % L, b % L) for i, n, b in diag if n % L or b % L)
    xi._store(group, diag, tuple((i, j, b % L) for i, j, b in pairs if b % L))
    return xi


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
    division, exact because the encoding's check makes d_l * b_kl vanish
    mod 2*order.
    """
    group = xi.group
    d = group.moduli
    L = group.phase_modulus
    cols = [[0] * group.num_factors for _ in d]
    diag, pairs = xi.terms
    entries = [(i, i, b) for i, _, b in diag]
    entries += [e for i, j, b in pairs for e in ((i, j, b), (j, i, b))]
    for k, l, b in entries:
        cols[k][l] = b // (L // d[l])
    return EndoMatrix(group, tuple(group.element(c) for c in cols))


def _single(group: AbelianGroup, factor: int, n: int, b: int) -> QuadraticEncoding:
    """One diagonal term: n = n(e^t) and b = B(e^t, e^t) exponents."""
    return _from_terms(group, [(range(group.num_factors)[factor], n, b)], [])


def quad_character(group: AbelianGroup, factor: int, a: int) -> QuadraticEncoding:
    """x -> exp(2*pi*i*a*x/d) on one factor; a linear character."""
    u = group.phase_modulus // group.moduli[factor]
    return _single(group, factor, u * a, 0)


def quad_square(group: AbelianGroup, factor: int, a: int) -> QuadraticEncoding:
    """x -> exp(2*pi*i*a*x^2/d) on one factor."""
    u = group.phase_modulus // group.moduli[factor]
    return _single(group, factor, u * a, 2 * u * a)


def quad_half(group: AbelianGroup, factor: int, a: int) -> QuadraticEncoding:
    """x -> exp(i*pi*a*x*(x+d)/d) on one factor.

    Takes genuine 2d-th-root values on odd arguments, unlike anything of
    the form chi_g(w(g)); the (x+d) offset keeps it well defined mod d.
    """
    d = group.moduli[factor]
    v = group.order // d  # exponents are in gamma units: i*pi/order
    return _single(group, factor, v * a * (1 + d), 2 * v * a)


def quad_cross(
    group: AbelianGroup, i: int, j: int, c: int
) -> QuadraticEncoding:
    """(x_i, x_j) -> exp(2*pi*i*c*x_i*x_j/d_j); needs d_j | d_i*c."""
    slots = range(group.num_factors)
    i, j = slots[i], slots[j]
    if i == j:
        raise ValueError("cross term needs two distinct factors")
    d = group.moduli
    if (d[i] * c) % d[j]:
        raise InvalidQuadratic(
            f"cross coefficient {c} violates d_{i}*c = 0 mod d_{j}"
        )
    u = group.phase_modulus // d[j]
    return _from_terms(group, [], [(min(i, j), max(i, j), u * c)])


def quad_from_endo(endo: EndoMatrix) -> QuadraticEncoding:
    """The function g -> chi_g(w(g)) for an endomorphism w.

    With A the matrix of w and u_k = 2*order/d_k, its terms are
    n_i = u_i A_ii, b_ii = 2 u_i A_ii and b_ij = u_i A_ij + u_j A_ji,
    read off the nonzero entries of A.
    """
    group = endo.group
    u = [group.phase_modulus // d for d in group.moduli]
    b: dict[tuple[int, int], int] = {}
    for j, col in enumerate(endo.columns):
        for i, a in col.nonzero_residues:
            key = (min(i, j), max(i, j))
            b[key] = b.get(key, 0) + u[i] * a
    terms = sorted(b.items())
    diag = [(i, n, 2 * n) for (i, j), n in terms if i == j]
    return _from_terms(group, diag, [(i, j, v) for (i, j), v in terms if i != j])


def build_quadratic(group: AbelianGroup, kind: str, **params) -> QuadraticEncoding:
    """Dispatch to the named builder family."""
    single = {"character": quad_character, "square": quad_square, "half": quad_half}
    if kind in single:
        return single[kind](group, params["factor"], params["a"])
    if kind == "cross":
        return quad_cross(group, params["i"], params["j"], params["c"])
    if kind == "from_endo":
        return quad_from_endo(params["endo"])
    raise ValueError(f"unknown quadratic family {kind!r}")


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
        a_min = 0 if t == 0 else (c // g) * pow(t // g, -1, L // g) % (L // g)
        out.append((2 * n1 + u * a_min) % L)
    return tuple(out)
