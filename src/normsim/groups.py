"""Exact arithmetic for finite Abelian groups Z_d1 x ... x Z_dm.

A group is an ordered tuple of cyclic moduli and an element is a tuple
of residues. Every phase used by the simulator is an integer power of
gamma = exp(i*pi/order), so phases are tracked as exact integers modulo
2*order. No floating point lives in the core: complex numbers and state
vectors appear only in the dense verifier, `normsim.oracle`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

# Hard ceiling for anything that enumerates the whole group; a larger
# requested bound does not lift it.
ENUM_BOUND = 1 << 20
# Default group-order cap for dense verification and exhaustive checks.
DENSE_BOUND = 4096
# byte r -> ASCII digit r, for residues below 10
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


class GroupMismatchError(ValueError):
    """Operands belong to different groups."""


class BoundExceeded(ValueError):
    """Group order too large to enumerate."""


def check_size(size: int, bound: int, what: str = "group"):
    """Refuse to enumerate more than min(bound, ENUM_BOUND) elements."""
    limit = min(bound, ENUM_BOUND)
    if size > limit:
        capped = "" if limit == bound else f" (the requested {bound} is capped)"
        raise BoundExceeded(f"{what} order {size} exceeds bound {limit}{capped}")


def check_bound(group: AbelianGroup, bound: int):
    """Refuse a group of order above min(bound, ENUM_BOUND)."""
    check_size(group.order, bound)


@dataclass(frozen=True)
class AbelianGroup:
    """A finite Abelian group presented as a product of cyclic factors.

    Args:
        moduli: the cyclic orders (d_1, ..., d_m), m >= 1. External input
            must use d_i >= 2; internally a factor of order 1 is tolerated.
    """

    moduli: tuple[int, ...]

    def __post_init__(self):
        mods = tuple(int(d) for d in self.moduli)
        if not mods:
            raise ValueError("a group needs at least one cyclic factor")
        if any(d < 1 for d in mods):
            raise ValueError(f"moduli must be positive, got {mods}")
        object.__setattr__(self, "moduli", mods)

    @cached_property
    def order(self) -> int:
        n = 1
        for d in self.moduli:
            n *= d
        return n

    @property
    def phase_modulus(self) -> int:
        """Modulus 2*order of the exponent group for gamma powers."""
        return 2 * self.order

    @property
    def num_factors(self) -> int:
        return len(self.moduli)

    def element(self, residues: Sequence[int]) -> GroupElement:
        """Build an element, reducing arbitrary integers componentwise."""
        if len(residues) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} residues, got {len(residues)}"
            )
        return GroupElement._reduced(
            self, tuple(int(r) % d for r, d in zip(residues, self.moduli))
        )

    def zero(self) -> GroupElement:
        return GroupElement._reduced(self, (0,) * len(self.moduli))

    def unit(self, i: int) -> GroupElement:
        """The generator e^i of the i-th cyclic factor (0-based)."""
        res = [0] * len(self.moduli)
        res[i] = 1 % self.moduli[i]
        return GroupElement._reduced(self, tuple(res))

    def units(self) -> list[GroupElement]:
        return [self.unit(i) for i in range(len(self.moduli))]

    def elements(self) -> Iterator[GroupElement]:
        """All elements in lexicographic order, first residue most significant."""
        for combo in itertools.product(*(range(d) for d in self.moduli)):
            yield GroupElement._reduced(self, combo)

    def index_of(self, g: GroupElement) -> int:
        """Mixed-radix rank of g under the elements() ordering."""
        idx = 0
        for d, r in zip(self.moduli, g.residues):
            idx = idx * d + r
        return idx

    @cached_property
    def _digit_template(self) -> bytes | None:
        """b"(0,0,...,0)" with one digit per factor, or None when some
        modulus is above 10 and a residue can take two digits."""
        if max(self.moduli) > 10:
            return None
        return b"(" + b"0," * (len(self.moduli) - 1) + b"0)"

    def __str__(self):
        return "x".join(f"Z{d}" for d in self.moduli)


@dataclass(frozen=True)
class GroupElement:
    """An element of an AbelianGroup, stored as reduced residues; the
    public constructor checks them, for input from outside the program."""

    group: AbelianGroup
    residues: tuple[int, ...]

    def __post_init__(self):
        if len(self.residues) != len(self.group.moduli):
            raise ValueError(
                f"residue count does not match group: {len(self.residues)} "
                f"residues, {len(self.group.moduli)} factors"
            )
        for r, d in zip(self.residues, self.group.moduli):
            if not 0 <= r < d:
                raise ValueError(f"residue {r} out of range for modulus {d}")

    @classmethod
    def _reduced(cls, group: AbelianGroup, residues: tuple[int, ...]) -> GroupElement:
        """An element from a tuple already reduced against group.moduli,
        built without the range check; only in-package producers whose
        residues are reduced by construction call it."""
        # object.__setattr__ keeps the instance's compact attribute
        # layout; writing to element.__dict__ would build a full dict,
        # about twice the memory per element
        element = object.__new__(cls)
        object.__setattr__(element, "group", group)
        object.__setattr__(element, "residues", residues)
        return element

    def _require_same_group(self, other: GroupElement):
        if self.group != other.group:
            raise GroupMismatchError(
                f"elements of {self.group} and {other.group} do not mix"
            )

    def __add__(self, other: GroupElement) -> GroupElement:
        self._require_same_group(other)
        return GroupElement._reduced(
            self.group,
            tuple(
                (a + b) % d
                for a, b, d in zip(self.residues, other.residues, self.group.moduli)
            ),
        )

    def __sub__(self, other: GroupElement) -> GroupElement:
        self._require_same_group(other)
        return GroupElement._reduced(
            self.group,
            tuple(
                (a - b) % d
                for a, b, d in zip(self.residues, other.residues, self.group.moduli)
            ),
        )

    def __neg__(self) -> GroupElement:
        return GroupElement._reduced(
            self.group,
            tuple((-a) % d for a, d in zip(self.residues, self.group.moduli)),
        )

    def __rmul__(self, n: int) -> GroupElement:
        # n may be any integer, including negative
        return GroupElement._reduced(
            self.group,
            tuple((n * a) % d for a, d in zip(self.residues, self.group.moduli)),
        )

    @cached_property
    def nonzero_residues(self) -> tuple[tuple[int, int], ...]:
        """(i, r_i) for each nonzero residue, for loops that skip zeros."""
        return tuple((i, r) for i, r in enumerate(self.residues) if r)

    @property
    def is_zero(self) -> bool:
        return all(r == 0 for r in self.residues)

    def __str__(self):
        # the one formatting path for shots, "(r_1,...,r_m)"; with every
        # modulus at most 10 the residues are written as single bytes
        template = self.group._digit_template
        if template is None:
            return "(" + ",".join(map(str, self.residues)) + ")"
        line = bytearray(template)
        line[1::2] = bytes(self.residues).translate(_DIGITS)
        return line.decode()


@dataclass(frozen=True)
class PhaseExponent:
    """An exact phase gamma^value with gamma = exp(i*pi/order).

    The exponent is reduced modulo 2*order; multiplying phases adds
    exponents.
    """

    group: AbelianGroup
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", int(self.value) % self.group.phase_modulus)

    def __add__(self, other: PhaseExponent) -> PhaseExponent:
        if self.group != other.group:
            raise GroupMismatchError("phase exponents over different groups")
        return PhaseExponent(self.group, self.value + other.value)

    def __neg__(self) -> PhaseExponent:
        return PhaseExponent(self.group, -self.value)

    def __sub__(self, other: PhaseExponent) -> PhaseExponent:
        return self + (-other)


def character_exponent(g: GroupElement, h: GroupElement) -> int:
    """Exponent a with gamma^a = chi_g(h), as a plain integer.

    chi_g(h) = exp(2*pi*i * sum_i g_i h_i / d_i), hence
    a = sum_i (2*order/d_i) * g_i * h_i mod 2*order, always even.
    """
    g._require_same_group(h)
    group = g.group
    two_g = group.phase_modulus
    a = 0
    for d, gi, hi in zip(group.moduli, g.residues, h.residues):
        a += (two_g // d) * gi * hi
    return a % two_g


def character_eval(g: GroupElement, h: GroupElement) -> PhaseExponent:
    """The character chi_g evaluated at h, as an exact phase."""
    return PhaseExponent(g.group, character_exponent(g, h))
