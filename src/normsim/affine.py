"""The affine-permutation tester.

A permutation F of the group either equals g -> alpha(g) + t for an
automorphism alpha (and the tester reconstructs alpha and t), or a
concrete counterexample element is produced. Modular exponentiation
permutations are built in as a parametrized family because they are
the canonical non-affine case. Permutations are explicit tables, so
every entry point here enumerates the group and is bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .circuits import (
    CircuitError,
    CircuitParseError,
    CircuitValidationError,
    checked_element,
    parse_element_literal,
)
from .groups import DENSE_BOUND, AbelianGroup, GroupElement, check_bound
from .homs import EndoMatrix, InvalidEndomorphism, auto_inverse


@dataclass(frozen=True)
class PermutationSpec:
    """An explicit bijection of the group, stored by element index."""

    group: AbelianGroup
    images: tuple[GroupElement, ...]

    def __post_init__(self):
        if len(self.images) != self.group.order:
            raise ValueError("permutation table has wrong size")
        if len(set(self.images)) != self.group.order:
            raise ValueError("permutation table is not a bijection")

    def apply(self, g: GroupElement) -> GroupElement:
        return self.images[self.group.index_of(g)]

    @classmethod
    def from_callable(
        cls,
        group: AbelianGroup,
        fn: Callable[[GroupElement], GroupElement],
        bound: int = DENSE_BOUND,
    ) -> PermutationSpec:
        check_bound(group, bound)
        return cls(group, tuple(fn(g) for g in group.elements()))


def modexp_permutation(a: int, m: int, n: int) -> PermutationSpec:
    """(x, y) -> (x, y + a^x mod n) on Z_{2^m} x Z_n."""
    group = AbelianGroup((2**m, n))

    def fn(g: GroupElement) -> GroupElement:
        x, y = g.residues
        return group.element((x, y + pow(a, x, n)))

    return PermutationSpec.from_callable(group, fn)


def parse_permutation_table(group: AbelianGroup, text: str) -> PermutationSpec:
    """Permutation table file: one `(g) -> (h)` line per element."""
    mapping: dict[GroupElement, GroupElement] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("->")
        if len(parts) != 2:
            raise CircuitParseError(line_no, "expected `(g) -> (h)`")
        try:
            src, dst = (
                checked_element(group, parse_element_literal(p), line_no, what)
                for p, what in zip(parts, ("source", "image"))
            )
        except CircuitError:
            raise
        except ValueError as err:
            raise CircuitParseError(line_no, str(err)) from None
        if src in mapping:
            raise CircuitValidationError(line_no, f"duplicate source {src}")
        mapping[src] = dst
    if len(mapping) != group.order:
        raise CircuitValidationError(
            0, f"table covers {len(mapping)} of {group.order} elements"
        )
    try:
        return PermutationSpec(
            group, tuple(mapping[g] for g in group.elements())
        )
    except ValueError as err:
        raise CircuitValidationError(0, str(err)) from None


@dataclass(frozen=True)
class AffineTestResult:
    is_affine: bool
    matrix: EndoMatrix | None = None
    shift: GroupElement | None = None
    witness: GroupElement | None = None
    detail: str = ""

    def __str__(self):
        if self.is_affine:
            cols = " ".join(str(c) for c in self.matrix.columns)
            return f"affine cols=[{cols}] shift={self.shift}"
        return f"not_affine witness={self.witness} ({self.detail})"


def affine_test(spec: PermutationSpec, bound: int = DENSE_BOUND) -> AffineTestResult:
    """Decide whether F(g) = alpha(g) + t for some automorphism alpha.

    The only candidates are t = F(0) and alpha(e^i) = F(e^i) - t. If
    those columns are not a homomorphism, some unit increment of F is
    inconsistent and the element where that happens is the witness;
    otherwise F is compared against the candidate everywhere.
    """
    check_bound(spec.group, bound)
    group = spec.group
    t = spec.apply(group.zero())
    cols = tuple(spec.apply(e) - t for e in group.units())
    try:
        candidate = EndoMatrix(group, cols)
    except InvalidEndomorphism as err:
        i = err.column
        for g in group.elements():
            if spec.apply(g + group.unit(i)) - spec.apply(g) != cols[i]:
                return AffineTestResult(
                    is_affine=False,
                    witness=g,
                    detail=(
                        f"increment by e^{i} at {g} breaks the candidate "
                        f"column {cols[i]}"
                    ),
                )
        raise AssertionError(
            "invalid columns but all increments consistent"
        )  # mathematically unreachable
    for g in group.elements():
        if spec.apply(g) != candidate.apply(g) + t:
            return AffineTestResult(
                is_affine=False,
                witness=g,
                detail=f"F({g}) = {spec.apply(g)} but candidate gives "
                f"{candidate.apply(g) + t}",
            )
    assert auto_inverse(candidate) is not None, "bijection forces invertibility"
    return AffineTestResult(is_affine=True, matrix=candidate, shift=t)
