"""Test-only helpers shared by several test modules.

The package keeps none of these: they enumerate groups, build
quadratic functions by hand, turn exact phases into floats, conjugate
one label at a time as the reference for the engine's tableau, or read
out and sample through PauliLabel and GroupElement arithmetic as the
reference for the engine's plain-int readout and sampler.
"""

import cmath
import math

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
from normsim.homs import (
    EndoMatrix,
    InvalidEndomorphism,
    Subgroup,
    solve_character_system,
)
from normsim.intlinalg import kernel_basis
from normsim.pauli import PauliLabel, pauli_identity, pauli_mul, pauli_pow
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


def reference_output_distribution(labels) -> OutputDistribution:
    """Readout with one pauli_mul/pauli_pow product per kernel vector."""
    if not labels:
        raise EngineError("empty stabilizer set")
    group = labels[0].group
    h_parts = [s.x_part for s in labels]
    support = Subgroup(group, tuple(h for h in h_parts if not h.is_zero))
    # exponent tuples k with sum_i k_i h^i = 0 in G
    rows = [[h.residues[j] for h in h_parts] for j in range(group.num_factors)]
    diag_gens: list[GroupElement] = []
    diag_phases: list[int] = []
    for vec in kernel_basis(rows, num_cols=len(labels), moduli=group.moduli):
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
        diag_gens.append(prod.z_part)
        diag_phases.append((-(c // 2)) % group.order)
    offset = solve_character_system(group, diag_gens, diag_phases)
    if offset is None:
        raise EngineError("diagonal constraints are unsatisfiable")
    return OutputDistribution(group, offset, support)


def reference_sample(dist: OutputDistribution, rng) -> GroupElement:
    """One shot: a randrange(|G|) coefficient per generator, in order."""
    order = dist.group.order
    acc = list(dist.offset.residues)
    for h in dist.support.generators:
        c = rng.randrange(order)
        for j, v in h.nonzero_residues:
            acc[j] += c * v
    return dist.group.element(acc)
