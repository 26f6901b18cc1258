"""Label algebra for generalized Pauli operators gamma^a Z(g) X(h).

X(h) shifts basis states by h, Z(g) multiplies |k> by chi_g(k), and the
label fixes the operator as the product with Z on the left. Products,
powers, adjoints and basis actions all stay in exact integer exponents;
the only identity needed is Z(g) X(h) = chi_g(h) X(h) Z(g).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .groups import (
    AbelianGroup,
    GroupElement,
    PhaseExponent,
    character_exponent,
)
from .quadratic import triangle


@dataclass(frozen=True)
class PauliLabel:
    phase: PhaseExponent
    z_part: GroupElement
    x_part: GroupElement

    def __post_init__(self):
        if not (self.phase.group == self.z_part.group == self.x_part.group):
            raise ValueError("label components over different groups")

    @classmethod
    def _reduced(cls, a: int, z_part: GroupElement, x_part: GroupElement) -> PauliLabel:
        """gamma^a Z(z) X(x) from parts over one group and a reduced mod
        2|G|, built without the checks; only in-package producers call it."""
        label, phase = object.__new__(cls), object.__new__(PhaseExponent)
        phase.__dict__.update(group=z_part.group, value=a)
        label.__dict__.update(phase=phase, z_part=z_part, x_part=x_part)
        return label

    @property
    def group(self) -> AbelianGroup:
        return self.z_part.group

    def __str__(self):
        return f"a={self.phase.value} z={self.z_part} x={self.x_part}"


def pauli_label(
    group: AbelianGroup, a: int, z: Sequence[int], x: Sequence[int]
) -> PauliLabel:
    """Convenience constructor from raw integers."""
    return PauliLabel(
        PhaseExponent(group, a), group.element(z), group.element(x)
    )


def pauli_identity(group: AbelianGroup) -> PauliLabel:
    return PauliLabel(PhaseExponent(group, 0), group.zero(), group.zero())


def pauli_mul(s: PauliLabel, t: PauliLabel) -> PauliLabel:
    """Label of the operator product s*t.

    Normal-ordering X(s.x) past Z(t.z) costs chi_{t.z}(s.x) on the right,
    hence the subtracted exponent.
    """
    a = s.phase.value + t.phase.value - character_exponent(t.z_part, s.x_part)
    return PauliLabel(
        PhaseExponent(s.group, a), s.z_part + t.z_part, s.x_part + t.x_part
    )


def pauli_pow(s: PauliLabel, n: int) -> PauliLabel:
    """Label of s**n in closed form, for any integer n.

    Collecting the n copies into Z(n g) X(n h) crosses X past Z a
    triangular number of times, each crossing costing chi_g(h).
    """
    comm = character_exponent(s.z_part, s.x_part)
    a = n * s.phase.value - triangle(n) * comm
    return PauliLabel(
        PhaseExponent(s.group, a), n * s.z_part, n * s.x_part
    )


def pauli_dagger(s: PauliLabel) -> PauliLabel:
    """Adjoint label; equals s**(2*order - 1)."""
    a = -s.phase.value - character_exponent(s.z_part, s.x_part)
    return PauliLabel(PhaseExponent(s.group, a), -s.z_part, -s.x_part)


def pauli_apply(
    s: PauliLabel, k: GroupElement
) -> tuple[PhaseExponent, GroupElement]:
    """Action on a basis state: s|k> = gamma^a chi_g(k+h) |k+h>."""
    target = k + s.x_part
    a = s.phase.value + character_exponent(s.z_part, target)
    return PhaseExponent(s.group, a), target

