"""Test-only helpers shared by several test modules.

The package keeps none of these: they enumerate groups, build
quadratic functions by hand, or turn exact phases into floats.
"""

import cmath

from normsim.groups import (
    DENSE_BOUND,
    AbelianGroup,
    GroupElement,
    PhaseExponent,
    character_exponent,
    check_bound,
)
from normsim.homs import InvalidEndomorphism
from normsim.quadratic import (
    InvalidQuadratic,
    QuadraticEncoding,
    extract_endo,
    quad_eval,
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

    Returns False when the encoding does not even determine a bilinear
    endomorphism (possible only for encodings built with
    validate=False).
    """
    group = xi.group
    check_bound(group, bound)
    try:
        endo = extract_endo(xi)
    except (InvalidQuadratic, InvalidEndomorphism):
        return False
    L = group.phase_modulus
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
