"""Test-only helpers shared by several test modules.

The package keeps none of these: they enumerate groups, build
quadratic functions by hand, or turn exact phases into floats.
"""

import cmath

from normsim.groups import AbelianGroup, GroupElement, PhaseExponent
from normsim.quadratic import QuadraticEncoding


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
